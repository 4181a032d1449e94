(** The four protocol entities of Figure 1 and their local computations.

    Each party owns exactly the key material the paper gives it: Party A
    the public key and the encrypted database, Party B the secret and
    public keys, the client both keys, the data owner everything.  All
    cryptographic work a party performs is recorded in its own
    {!Util.Counters.t}, which is how Table 1 is measured rather than
    quoted. *)

type encrypted_point = {
  coords : Bgv.ct array option;
      (** [Per_coordinate] layout: one constant-polynomial ciphertext per
          coordinate. *)
  packed : Bgv.ct;
      (** Coordinates as polynomial coefficients — used by the
          Return-kNN phase in both layouts, and by the [Dot_product]
          distance computation. *)
  norm : Bgv.ct option;
      (** [Dot_product] layout: encryption of [‖p‖²] (constant). *)
}

type encrypted_db = { db_n : int; db_d : int; points : encrypted_point array }

type encrypted_query = {
  q_coords : Bgv.ct array option;
      (** [Per_coordinate]: d constants; packed form: d broadcast-slot
          coordinates *)
  q_rev : Bgv.ct option;           (** [Dot_product]: reversed query *)
  q_norm : Bgv.ct option;          (** [Dot_product] and packed: [‖q‖²] *)
  q_dim : int;
}

(** {1 Data owner} *)

module Data_owner : sig
  type t

  val create : Util.Rng.t -> Config.t -> t
  val keys : t -> Bgv.keys
  val config : t -> Config.t

  val encrypt_db :
    ?obs:Sknn_obs.Ctx.t -> ?counters:Util.Counters.t -> ?jobs:int -> Util.Rng.t -> t ->
    int array array -> encrypted_db
  (** Validates every coordinate against [max_coord_bits] and the layout
      constraints before encrypting.  Points are encrypted in parallel
      over [jobs] domains (default {!Util.Pool.default_jobs}); each
      point's randomness comes from its own stream split off [rng]
      sequentially, so the result is bit-identical for every job count.
      [obs] wraps the loop in an ["encrypt-db"] span with pool chunks.
      @raise Invalid_argument on bad data. *)
end

(** {1 Party A — encrypted storage and blind computation} *)

module Party_a : sig
  type t

  val create :
    ?jobs:int -> Config.t -> Bgv.public_key -> Bgv.relin_key -> encrypted_db -> t
  (** [jobs] is the domain count used by {!compute_distances},
      {!select_row} and {!return_blocks} (default
      {!Util.Pool.default_jobs}).  Results and counter totals are
      identical for every value.  The public key floods the packed
      paths' Return-kNN results. *)

  val counters : t -> Util.Counters.t
  val db_size : t -> int
  val jobs : t -> int

  type query_state
  (** Party A's per-query secret that outlives Compute Distances: the
      fresh permutation Π. *)

  val compute_distances :
    ?obs:Sknn_obs.Ctx.t -> t -> Util.Rng.t -> encrypted_query ->
    query_state * Bgv.ct array
  (** Algorithm 1: returns the masked encrypted distances in permuted
      order, [D'_i = Π(m(ED_i))].  A [Per_coordinate] deployment runs
      the per-coordinate square-sum; a [Dot_product] one runs
      {!masked_inner_product} against the norms the data owner shipped,
      one ciphertext product per point against the two-ciphertext query
      {!Client.encrypt_query} sends there.  [obs] records the
      ["draw-mask"], ["distance-batches"] (with per-point pool chunks)
      and ["permute"] sub-stages.
      @raise Invalid_argument on a dimension mismatch or a query in
      another layout's form. *)

  val masked_inner_product :
    counters:Util.Counters.t -> ?rlk:Bgv.relin_key -> Config.t -> lead_bits:float ->
    coeffs:int64 array -> Util.Rng.t -> norm:Bgv.ct -> packed:Bgv.ct -> Bgv.ct * Bgv.ct ->
    Bgv.ct
  (** One point's masked distance through
      [ED = ‖p‖² − 2⟨p,q⟩ + ‖q‖²]: the product of the coefficient-packed
      point [packed] with the reversed query (relinearised with [rlk]),
      the combine with [norm] = [‖p‖²] and the query's [‖q‖²], the drop
      to {!Util.Noise_model.distance_level} (or the configured rescale
      when no level has the headroom), the mask [coeffs] with its
      leading coefficient charged at [lead_bits] ({!Bgv.eval_poly}), and
      a uniform zero-constant polynomial drawn from [rng] that destroys
      the cross terms in the other coefficients.  The query is
      [(reversed query, ‖q‖²)].  The plain path on a [Dot_product]
      deployment and {!Kmeans.run} both run this circuit. *)

  val permuted_packed : t -> query_state -> Bgv.ct array
  (** [Π(P')], the stored packed points in permuted order — the first
      step of Algorithm 3, exposed so the protocol driver can stream
      indicator rows.  {!select_row} brings them to the indicators'
      return level. *)

  val select_row : ?obs:Sknn_obs.Ctx.t -> t -> Bgv.ct array -> Bgv.ct array -> Bgv.ct
  (** Algorithm 3, one row at a time: [select_row t Π(P') B^j] computes
      the inner product and sum of indicator row [B^j] (in permuted
      index space): one encrypted neighbour point.  The result is not
      re-randomised: only {!return_blocks} floods its products. *)

  val state_perm : query_state -> Util.Perm.t
  (** The permutation, which {!return_blocks} also reads.  A deployed
      Party A keeps it secret and drops it after the query. *)

  val forecast_noise : path:Sknn_obs.Cost_model.path -> t -> Util.Noise_model.report
  (** Worst-case noise headroom of [path]'s circuit, predicted from the
      parameter chain alone: the noise report of
      {!Sknn_obs.Cost_model.predict}, the symbolic walk of the circuit
      that runs, level-drop rules included, with a 4-bit warning
      margin.  A negative [min_headroom_bits] means a live query would
      raise {!Bgv.Decryption_failure}. *)

  (** {2 Slot-packed (SIMD) prepared state}

      The packed path models the outsourced-query setting (SANNS-style):
      Party A acts for the data owner and holds the database in the
      clear, laid out dimension-major — for coordinate [j] one
      [n]-vector whose entry [i] is [p_i(j)], packed into plaintext
      slots per batch — while the client's query stays encrypted.  A
      batch of [N = slot_count] points then costs [d] plain products
      plus adds instead of [N] ciphertext products, and Party B decrypts
      [⌈n/N⌉] ciphertexts instead of [n].  Party B's §5 view (the masked
      permuted distance multiset, [n] and [k]) is unchanged.  Return-kNN
      selects whole blocks of plaintext points ({!return_blocks}), so
      the database never needs a return-level ciphertext copy. *)

  type prepared_packed

  val prepare_packed : ?obs:Sknn_obs.Ctx.t -> t -> db:int array array -> prepared_packed
  (** Lays [db] (the plaintext database, dimension-major) out for the
      packed path.  Runs {!forecast_noise} on a packed round of one
      query and always records the forecast minimum as the audit entry
      [party-a/prepare-db/noise-min-headroom-bits]; when it drops below
      the 4-bit margin, also emits a structured warning: an audit entry
      [party-a/prepare-db/noise-low-headroom-warning], a [Warning]
      flight event and a stderr line.  Requires affine masking and
      [d <= N], the ring degree.
      @raise Invalid_argument when the config is unsupported or [db]
      does not match the encrypted database's dimensions. *)

  val compute_distances_packed :
    ?obs:Sknn_obs.Ctx.t -> t -> prepared_packed -> Util.Rng.t -> encrypted_query array ->
    query_state * Bgv.ct array array
  (** Algorithm 1 on the packed layout, for a round of one or more
      queries under one permutation Π: returns, per query, [⌈n/N⌉]
      ciphertexts whose slot [s] of batch [b] holds the masked distance
      of point [Π⁻¹(b·N + s)].  The permutation is applied when the
      plaintext columns are packed, so it stays uniform; each batch's
      d columns and norms are packed and embedded once
      ({!Bgv.embed}) and serve every query of the round
      ({!Bgv.mul_plain_sums}).  Each query gets its own fresh affine
      mask and its own uniform dead slots in the ragged tail batch.  A
      round of one query draws exactly what a single packed query
      does: its mask and batch streams, then Π.

      Every query must be in broadcast-slot form
      ({!Client.encrypt_query_packed}) and reach A at or above the
      public level {!Util.Noise_model.packed_query_level}; A truncates
      one above it.  Batches run pool-parallel: results, counters and
      transcripts are bit-identical for every job count.
      @raise Invalid_argument on an empty round, a dimension mismatch,
      a query whose ciphertexts differ in level or lie below the public
      level, or an unsupported config. *)

  val return_blocks :
    ?obs:Sknn_obs.Ctx.t -> t -> prepared_packed -> perm:Util.Perm.t -> Util.Rng.t ->
    Bgv.ct array -> Bgv.ct array
  (** Return-kNN on the packed path, given the round's
      permutation Π and Party B's {!Party_b.block_indicators}: block [b]
      is [rerandomize (indicator_b ⊙ P_b)], where [P_b] holds, in the
      slots of the point at permuted position [p = b·per + o], its
      coordinates plus one ([per = ⌊N/d⌋] points a block, each owning
      [N/per] slots from [o·(N/per)]).  The product is flooded by
      {!Bgv.rerandomize} at the public width
      {!Util.Noise_model.flood_bits}.  Blocks run pool-parallel with
      per-block RNG streams split in order (pool chunks ["select-row"]).
      @raise Invalid_argument when the indicator count is not
      [⌈n/per⌉]. *)
end

(** {1 Party B — key holder, never sees the database} *)

module Party_b : sig
  type t

  val create : ?jobs:int -> Config.t -> Bgv.secret_key -> Bgv.public_key -> t
  (** [jobs] parallelises the indicator encryption of {!indicator_row}
      and {!block_indicators} only; the decrypt-and-select half of
      Algorithm 2 always runs in B's own domain (it touches secret-key
      material). *)

  val counters : t -> Util.Counters.t

  type view = {
    masked_distances : int64 array;
        (** What B actually decrypts, in A's permuted order. *)
    selected : int array;
        (** Permuted indices of the k chosen minima. *)
  }

  val select_neighbours : ?obs:Sknn_obs.Ctx.t -> t -> Bgv.ct array -> k:int -> view
  (** The decrypt-and-select half of Algorithm 2: decrypts the masked
      distances and selects the k smallest with an O(n log k) heap that
      replicates the paper's streaming max-replacement scan exactly
      (ties included; see {!Util.Topk}).  {!indicator_row} then
      encrypts the k indicator vectors one row at a time. *)

  val select_neighbours_packed :
    ?obs:Sknn_obs.Ctx.t -> t -> Bgv.ct array -> n:int -> k:int -> view
  (** {!select_neighbours} over slot-packed distances: decrypts the
      [⌈n/N⌉] ciphertexts, unpacks the slots ({!Plaintext.to_slots}) and
      discards the dead tail slots, so the view carries exactly the [n]
      per-point masked distances — Leakage accounting (equidistant
      groups, multiset) is computed on the same surface as the unpacked
      path, never on per-ciphertext aggregates. *)

  val indicator_row :
    ?obs:Sknn_obs.Ctx.t -> t -> Util.Rng.t -> view -> n:int -> j:int -> Bgv.ct array
  (** The j-th indicator vector [B^j] (n encryptions of 0 with a single
      1).  Used by the protocol driver to stream row-by-row so that the
      O(nk) ciphertexts never live in memory at once. *)

  val block_indicators :
    ?obs:Sknn_obs.Ctx.t -> t -> Util.Rng.t -> view array -> n:int -> per:int ->
    Bgv.ct array
  (** The packed paths' indicators: one slot-packed encryption, at the
      return level, per block of [per] permuted positions ([⌈n/per⌉] in
      all), with ones over the [N/per] slots of every position selected
      in any of [views] and zeros elsewhere.  Every block is packed and
      encrypted alike, so B's work depends on [n], [N] and [per] only.
      Blocks run pool-parallel with per-block RNG streams split in order
      (pool chunks ["indicator-row"]). *)
end

(** {1 Client} *)

module Client : sig
  type t

  val create : ?jobs:int -> Config.t -> Bgv.secret_key -> Bgv.public_key -> t
  (** [jobs] parallelises {!decrypt_points}. *)

  val counters : t -> Util.Counters.t

  val encrypt_query : t -> Util.Rng.t -> int array -> encrypted_query
  (** Layout-matched query form: [d] constants ([Per_coordinate]) or,
      on [Dot_product], the inner-product form: the reversed-packed
      polynomial plus [‖q‖²], two ciphertexts whatever [d].
      @raise Invalid_argument on a coordinate outside
      [[0, 2^max_coord_bits)] (the error names the query) or, on
      [Dot_product], when [d] exceeds the ring degree. *)

  val encrypt_query_packed : t -> Util.Rng.t -> int array -> encrypted_query
  (** Broadcast-slot query form for the packed paths: [d] coordinate
      ciphertexts with the same value in every slot plus [‖q‖²]
      broadcast; what {!Party_a.compute_distances_packed} consumes.
      They are encrypted at the public level
      {!Util.Noise_model.packed_query_level}: for the same RNG state,
      byte for byte what truncating top-level encryptions gives.
      @raise Invalid_argument on a coordinate out of range or when [d]
      exceeds the ring degree. *)

  val decrypt_points : ?obs:Sknn_obs.Ctx.t -> t -> d:int -> Bgv.ct array -> int array array
  (** The plain path's result: one coefficient-packed point per
      ciphertext. *)

  val decrypt_blocks : ?obs:Sknn_obs.Ctx.t -> t -> d:int -> Bgv.ct array -> int array array
  (** The packed paths' result ({!Party_a.return_blocks}): decrypts and
      slot-unpacks every block and returns the points whose first slot
      is non-zero, minus the one added to each coordinate, in block
      order. *)

  val nearest : k:int -> query:int array -> int array array -> int array array
  (** The [k] points nearest to [query] among the decoded ones, computed
      by the client in the clear ({!Plain_knn.knn}'s order). *)
end

val points_per_block : Params.t -> d:int -> int
(** [⌊N/d⌋]: the points a Return-kNN block holds on the packed paths —
    what Party B learns to lay out its indicators. *)

(** {1 Serialised sizes} *)

val query_bytes : encrypted_query -> int
val db_bytes : encrypted_db -> int
