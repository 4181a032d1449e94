(** The full Secure k-NN protocol (§3 of the paper): Setup once, then
    one-round queries.

    [deploy] performs the paper's Setup phase — key generation at the
    data owner, database encryption, and key/ciphertext distribution to
    the parties (recorded in the transcript).  [query] runs the paper's
    one round end to end, the same five phases on every path:

    + client encrypts Q and sends it to Party A;
    + {b Compute Distances} at A (Algorithm 1) — encrypted squared
      distances, fresh monotone masking polynomial, fresh permutation;
      the permuted distances, each a constant polynomial, fold N to a
      ciphertext as coefficients ({!Entities.Party_a.compute_distances});
    + one message A→B of [⌈n/N⌉] ciphertexts; {b Find Neighbours} at B
      (Algorithm 2) — decrypt each block and read its coefficients,
      streaming top-k, k encrypted indicator vectors; one
      message B→A per vector (streamed row by row so O(nk) ciphertexts
      never live in memory at once);
    + {b Return kNN} at A (Algorithm 3) — inner products with the
      permuted stored points Compute Distances hands over, giving k
      encrypted points returned to the client.  They are not
      re-randomised: [Bgv.mul_sum] floods nothing.

    [query] runs the round on the deployment's layout: Algorithm 1's
    per-coordinate square-sum, or on a [Dot_product] deployment the
    inner-product form [ED = ‖p‖² − 2⟨p,q⟩ + ‖q‖²]
    ({!Entities.Party_a.masked_inner_product}): the data owner ships one
    encrypted norm per point, the client sends two ciphertexts instead
    of [d], at a public level below the full chain when the distance
    does not need it, and Party A computes one ciphertext product per
    point.  Its randomizer fills every other coefficient, so A sends one
    masked distance per point and B decrypts each one's coefficient 0.

    The packed path, where Party A holds the plaintext points, answers
    Return kNN by blocks instead: B sends one message of
    [⌈n/⌊N/d⌋⌉] slot-packed indicators, A returns one flooded product
    with its plaintext block per indicator, and the client decodes the
    selected points and ranks them against its own queries.

    The result carries plaintext neighbours, per-phase wall-clock times,
    per-party operation counters and the full communication transcript —
    everything the benchmark harness needs to regenerate the paper's
    figures and Table 1. *)

type deployment

val deploy :
  ?obs:Sknn_obs.Ctx.t -> ?rng:Util.Rng.t -> ?counters:Util.Counters.t -> ?jobs:int ->
  Config.t -> db:int array array -> deployment
(** [jobs] is the number of OCaml domains every parallel phase of this
    deployment uses (database encryption, Compute-Distances, Return-kNN
    inner products, indicator encryption, result decryption); it
    defaults to {!Util.Pool.default_jobs} ([SKNN_DOMAINS] or the
    machine's recommended domain count).  Query results, transcripts and
    counter totals are bit-identical for every job count.

    When the configuration admits packed queries
    ({!Config.affine_supported}), deploy also lays the plaintext
    database out for them ({!Entities.Party_a.prepare_packed}) and runs
    their noise guard ({!Entities.Party_a.guard_noise}) under [obs]:
    set-up work, so every packed round runs the same five phases as a
    plain one.  [obs] records ["keygen"] and ["encrypt-db"] spans and
    the guard's [party-a/deploy] audit entries and, when [counters] is
    given, folds the setup transcript's bytes into it.
    @raise Invalid_argument if the configuration is unsound for the
    database's dimensionality (see {!Config.validate}) or the data is
    out of range. *)

val config : deployment -> Config.t
val jobs : deployment -> int
val db_size : deployment -> int
val dimension : deployment -> int
val setup_transcript : deployment -> Transcript.t

(** Direct access to the entity values (examples and tests). *)
val party_a : deployment -> Entities.Party_a.t
val party_b : deployment -> Entities.Party_b.t
val client : deployment -> Entities.Client.t

type result = {
  neighbours : int array array; (** k plaintext points, as the client decrypts them *)
  k : int;
  phase_seconds : (string * float) list;
      (** ["encrypt-query"; "compute-distances"; "find-neighbours";
          "return-knn"; "decrypt-result"] *)
  transcript : Transcript.t;    (** per-query messages *)
  counters_a : Util.Counters.t;
  counters_b : Util.Counters.t;
  counters_client : Util.Counters.t;
  view_b : Entities.Party_b.view; (** Party B's view, for leakage audits *)
  net : Clock.timeline option;
      (** virtual-network replay of [transcript] when the query ran with
          [?net]; [None] otherwise *)
}

val query :
  ?obs:Sknn_obs.Ctx.t -> ?rng:Util.Rng.t -> ?net:Profile.t -> deployment ->
  query:int array -> k:int -> result
(** Runs one complete query.  Counters are reset at the start so each
    result reports per-query costs; when the query finishes, the
    transcript is folded back into them, so [Counters.rounds] and
    [Counters.bytes_sent] report measured per-party communication.

    With an observability context [obs] (see {!Sknn_obs.Ctx}), the five
    phases become [Phase] spans with per-party counter deltas, entity
    sub-stages and pool chunks nest below them, BGV chain level and
    noise-budget headroom are sampled into histograms, per-link
    transcript bytes become gauges, and each party's observables are
    appended to the leakage-audit channel ([party-b]: masked distance
    multiset, [n], [k], equidistant group sizes; [party-a]: ciphertext
    counts and byte sizes only; [client]: the number of points it
    decodes).

    With a network profile [net], a virtual clock cursor runs alongside
    the transcript (flight [Send] events gain seq + virtual arrival),
    the finished transcript is replayed into [result.net], per-link
    busy/rounds land in the metrics registry as [sknn_link_*] families,
    and the trace gains one wire event per message.  The timeline is a
    pure function of (transcript, profile) — timing derives only from
    the already-audited §5 byte/round surface, and stays byte-identical
    across job counts.
    @raise Invalid_argument on dimension mismatch or k out of range. *)

(** {1 Slot-packed (SIMD) path}

    The packed path lays the database out dimension-major across the
    [N = Params.slot_count] plaintext slots, so Party A computes a batch
    of [N] masked distances with [d] plain products plus adds, and
    Party B decrypts [⌈n/N⌉] ciphertexts, slot-unpacking them before
    the top-k scan.  The trust model differs on Party A's
    side: A holds the plaintext database as the data owner's delegate,
    laid out at {!deploy} (see {!Entities.Party_a.prepare_packed}), and
    uses it for Return kNN too: Compute Distances hands over the
    round's permuted columns, B encrypts one indicator per block of
    [⌊N/d⌋] permuted positions instead of [n·k] scalars, A multiplies
    each into its plaintext block and floods the product
    ({!Entities.Party_a.return_blocks}), and the client decodes the
    selected points.  Party B's §5 leakage surface is the plain
    path's (masked distance multiset, [n], [k], equidistant groups)
    plus [points-per-block], [⌊N/d⌋], and [batch-query-count], the
    number of queries in the round.  A packed round answers one or more
    queries under one permutation: {!query_packed} is the round of one,
    {!query_batch} the round of M.

    Requires affine (degree-1) masking and [d ≤ N], the ring degree.
    Results remain exact and bit-identical across job counts. *)

val prepare_packed : ?obs:Sknn_obs.Ctx.t -> deployment -> unit
(** Checks that the deployment answers packed queries, whose layout
    {!deploy} built, and runs their noise guard again under [obs]
    ({!Entities.Party_a.guard_noise}).  It stores nothing.
    @raise Invalid_argument if the configuration does not admit the
    packed path. *)

val query_packed :
  ?obs:Sknn_obs.Ctx.t -> ?rng:Util.Rng.t -> ?net:Profile.t -> deployment ->
  query:int array -> k:int -> result
(** [query_gen ~path:(Packed 1)]: like {!query} on the packed layout,
    with the client sending the broadcast-slot query form
    ({!Entities.Client.encrypt_query_packed}): d+1 ciphertexts in, at
    the public query level, [⌈n/N⌉] masked-distance ciphertexts A→B,
    [⌈n/⌊N/d⌋⌉] block indicators B→A and as many flooded blocks to the
    client.
    @raise Invalid_argument if the configuration does not admit the
    packed path. *)

val query_batch :
  ?obs:Sknn_obs.Ctx.t -> ?rng:Util.Rng.t -> ?net:Profile.t -> deployment ->
  queries:int array array -> k:int -> result array
(** [query_gen ~path:(Packed M)]: M queries in {e one} protocol round.
    The client uploads M broadcast-slot queries
    ({!Entities.Client.encrypt_query_packed}) in one message; Party A
    draws one permutation Π, packs and embeds its permuted columns once,
    and runs the packed distance circuit once per query, each with its
    own fresh affine mask ({!Entities.Party_a.compute_distances_packed});
    Party B decrypts M·[⌈n/N⌉] ciphertexts and selects one view per
    query.  The M views share Π, and B can count M from the
    ciphertexts it receives: every packed round audits it as
    [party-b/find-neighbours/batch-query-count].
    Return kNN runs by blocks, as on {!query_packed}: B's indicators
    cover the union of the M selections, and the client (who asked all
    M queries) gives each query its k nearest among the decoded points —
    exact, since each query's true k-NN lies in that union.  A round of
    one query is {!query_packed}, draw for draw.  The returned results
    share the round's transcript, counters and phase times; neighbours
    and views are per query.
    @raise Invalid_argument on an empty batch, dimension mismatch, k out
    of range, or a configuration that does not admit the packed path. *)

(** {1 Any path} *)

val query_gen :
  path:Sknn_obs.Cost_model.path -> ?obs:Sknn_obs.Ctx.t -> ?rng:Util.Rng.t ->
  ?net:Profile.t -> deployment -> queries:int array array -> k:int -> result array
(** The one round driver behind every entry point above, keyed by the
    path type the planner and the cost model use: [Plain] is {!query},
    [Packed M] {!query_batch} ({!query_packed} when [M = 1]).  [queries] holds exactly one query
    except on [Packed M], which answers all of them in the round.
    Every path emits the same phases and metric names; the packed path
    adds the [points-per-block] and [batch-query-count] audit labels.
    @raise Invalid_argument as the matching entry point does. *)

val total_seconds : result -> float
val exact : deployment -> db:int array array -> query:int array -> result -> bool
(** Checks the result against plaintext k-NN ground truth
    (distance-multiset equality, which is the exactness the paper
    claims; see {!Plain_knn.same_answer}). *)
