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

type masked_form =
  | Scalars  (** one value per ciphertext, at coefficient 0 *)
  | Coeff_blocks  (** N values per ciphertext, value s at coefficient s *)
  | Slot_blocks  (** N values per ciphertext, value s in slot s *)
(** How a round's masked distances reach Party B.  Value [s] of
    ciphertext [b] is permuted position [b·per + s], [per] the form's
    values per ciphertext. *)

val masked_form : Config.t -> Sknn_obs.Cost_model.path -> masked_form
(** The form a path sends: {!Slot_blocks} on the packed paths;
    {!Coeff_blocks} on plain over a [Per_coordinate] deployment, whose
    masked distances are constant polynomials; {!Scalars} on plain over
    a [Dot_product] one, whose randomizer fills every other
    coefficient. *)

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
      {!return_monomials} and {!return_blocks} (default
      {!Util.Pool.default_jobs}).  Results and counter totals are
      identical for every value.  The public key floods Return-kNN's
      results. *)

  val counters : t -> Util.Counters.t
  val db_size : t -> int
  val jobs : t -> int

  val compute_distances :
    ?obs:Sknn_obs.Ctx.t -> t -> Util.Rng.t -> encrypted_query ->
    Bgv.ct array * Bgv.ct array
  (** Algorithm 1: Return kNN's operand [Π(P')], the stored packed
      points in the round's fresh permutation Π, which
      {!return_monomials} reads, and the masked encrypted distances in the same order,
      [D'_i = Π(m(ED_i))], in the deployment's {!masked_form}.  A
      [Per_coordinate] deployment runs the per-coordinate square-sum and
      folds each run of N permuted distances into one block
      [Σₛ xˢ·D'_{bN+s}] ({!Bgv.fold_monomials}): [⌈n/N⌉] ciphertexts,
      coefficient [s] of block [b] holding position [b·N + s].  A
      [Dot_product] one runs {!masked_inner_product} against the norms
      the data owner shipped, one ciphertext product per point against
      the two-ciphertext query {!Client.encrypt_query} sends there, and
      returns one ciphertext per point.  [obs] records the
      ["draw-mask"], ["distance-batches"] (with per-point pool chunks)
      and ["permute"] sub-stages, and ["fold-blocks"] (with per-block
      pool chunks) on [Per_coordinate].
      @raise Invalid_argument on a dimension mismatch or a query in
      another layout's form. *)

  val masked_inner_product :
    counters:Util.Counters.t -> ?rlk:Bgv.relin_key -> Config.t -> lead_bits:float ->
    coeffs:int64 array -> Util.Rng.t -> norm:Bgv.ct -> packed:Bgv.ct -> Bgv.ct * Bgv.ct ->
    Bgv.ct
  (** One point's masked distance through
      [ED = ‖p‖² − 2⟨p,q⟩ + ‖q‖²]: the product of the coefficient-packed
      point [packed] with the reversed query (relinearised with [rlk]),
      the combine with [norm] = [‖p‖²] and the query's [‖q‖²] at the
      query's level (the stored ciphertexts align down to it unrecorded),
      the drop to {!Util.Noise_model.distance_level}, which leaves a
      distance at the query's public level where it is (or the
      configured rescale when no level has the headroom), the mask
      [coeffs] with its
      leading coefficient charged at [lead_bits] ({!Bgv.eval_poly}), and
      a uniform zero-constant polynomial drawn from [rng] that destroys
      the cross terms in the other coefficients.  The query is
      [(reversed query, ‖q‖²)].  The plain path on a [Dot_product]
      deployment and {!Kmeans.run} both run this circuit. *)

  val return_monomials :
    ?obs:Sknn_obs.Ctx.t -> t -> Bgv.ct array -> Util.Rng.t -> Bgv.ct array array ->
    Bgv.ct array
  (** Algorithm 3 by monomial selection: [return_monomials t Π(P') rng
      I] takes the operand {!compute_distances} returned and Party B's
      {!Party_b.monomial_indicators} [I] (one row of [⌈n/per⌉] per
      neighbour, [per = ⌊N/d⌋]) and returns one encrypted point per
      row.  The points are truncated to {!monomial_level}, and every
      [per] of them fold into one block
      [D_b = Σ_o x^{o·w}·Π(P')_{b·per+o}] with stride
      [w = ⌊N/per⌋ ≥ d] ({!Bgv.fold_monomials}, blocks pool-parallel);
      result [j] is [Σ_b I_{j,b}·D_b] ({!Bgv.mul_sum}): its
      coefficients [0..d−1] hold
      neighbour [j] and the rest of its block lands in [d..N−1].  A
      adds a plaintext uniform on [d..N−1] and zero below, then floods
      the sum with {!Bgv.rerandomize} at
      {!Util.Noise_model.monomial_flood_bits} (one fresh indicator
      times the widest block, summed over every block), with one RNG
      stream per row split in order.  Pool chunks ["select-row"].
      @raise Invalid_argument when the operand is not [n] points, a
      row is not [⌈n/per⌉] indicators, or {!monomial_level} raises. *)

  val forecast_noise : path:Sknn_obs.Cost_model.path -> t -> Util.Noise_model.report
  (** Worst-case noise headroom of [path]'s circuit, predicted from the
      parameter chain alone: the noise report of
      {!Sknn_obs.Cost_model.predict}, the symbolic walk of the circuit
      that runs, level-drop rules included, with a 4-bit warning
      margin.  A negative [min_headroom_bits] means a live query would
      raise {!Bgv.Decryption_failure}. *)

  val guard_noise : ?obs:Sknn_obs.Ctx.t -> path:Sknn_obs.Cost_model.path -> t -> unit
  (** The noise guard {!Protocol.deploy} runs on a packed round of one
      query when the configuration admits packed queries: always
      records {!forecast_noise}'s minimum as the audit entry
      [party-a/deploy/noise-min-headroom-bits]; when it drops below the
      4-bit margin, also emits a structured warning: an audit entry
      [party-a/deploy/noise-low-headroom-warning], a [Warning] flight
      event and a stderr line. *)

  (** {2 Slot-packed (SIMD) layout}

      The packed path models the outsourced-query setting (SANNS-style):
      Party A acts for the data owner and holds the database in the
      clear, laid out dimension-major — for coordinate [j] one
      [n]-vector whose entry [i] is [p_i(j)], packed into plaintext
      slots per batch — while the client's query stays encrypted.  A
      batch of [N = slot_count] points then costs [d] plain products
      plus adds instead of [N] ciphertext products, and Party B decrypts
      [⌈n/N⌉] slot-packed ciphertexts.  Party B's §5 view (the masked
      permuted distance multiset, [n] and [k]) is unchanged.  Return-kNN
      selects whole blocks of plaintext points ({!return_blocks}), so
      the database never needs a return-level ciphertext copy.
      Laying the database out is set-up work: {!Protocol.deploy} does
      it once. *)

  type prepared_packed

  val prepare_packed : t -> db:int array array -> prepared_packed
  (** Lays [db] (the plaintext database, dimension-major) out for the
      packed path.  Requires affine masking and [d <= N], the ring
      degree.
      @raise Invalid_argument when the config is unsupported or [db]
      does not match the encrypted database's dimensions. *)

  val compute_distances_packed :
    ?obs:Sknn_obs.Ctx.t -> t -> prepared_packed -> Util.Rng.t -> encrypted_query array ->
    int64 array array * Bgv.ct array array
  (** Algorithm 1 on the packed layout, for a round of one or more
      queries under one permutation Π: returns Return kNN's operand,
      the plaintext columns in Π order (entry [p] of column [j] is
      coordinate [j] of point [Π⁻¹(p)], mod t), which {!return_blocks}
      reads, and, per query, [⌈n/N⌉] ciphertexts whose slot [s] of
      batch [b] holds the masked distance of point [Π⁻¹(b·N + s)].
      The permutation is applied when the plaintext columns are packed,
      so it stays uniform; each batch's d columns and norms are packed
      and embedded once ({!Bgv.embed}) and serve every query of the
      round ({!Bgv.mul_plain_sums}).  Each query gets its own fresh affine
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
    ?obs:Sknn_obs.Ctx.t -> t -> int64 array array -> Util.Rng.t -> Bgv.ct array ->
    Bgv.ct array
  (** Return-kNN on the packed path, given the round's Π-ordered
      columns from {!compute_distances_packed} and Party B's
      {!Party_b.block_indicators}: block [b] is
      [rerandomize (indicator_b ⊙ P_b)], where [P_b] holds, in the
      slots of the point at permuted position [p = b·per + o], its
      coordinates plus one ([per = ⌊N/d⌋] points a block, each owning
      [N/per] slots from [o·(N/per)]).  The product is flooded by
      {!Bgv.rerandomize} at the public width
      {!Util.Noise_model.block_flood_bits}.  Blocks run pool-parallel with
      per-block RNG streams split in order (pool chunks ["select-row"]).
      @raise Invalid_argument when the indicator count is not
      [⌈n/per⌉]. *)
end

(** {1 Party B — key holder, never sees the database} *)

module Party_b : sig
  type t

  val create : ?jobs:int -> Config.t -> Bgv.secret_key -> Bgv.public_key -> t
  (** [jobs] parallelises the indicator encryption of
      {!monomial_indicators} and {!block_indicators} only; the decrypt-and-select half of
      Algorithm 2 always runs in B's own domain (it touches secret-key
      material). *)

  val counters : t -> Util.Counters.t

  type view = {
    masked_distances : int64 array;
        (** What B actually decrypts, in A's permuted order. *)
    selected : int array;
        (** Permuted indices of the k chosen minima. *)
  }

  val select_neighbours :
    ?obs:Sknn_obs.Ctx.t -> t -> masked_form -> Bgv.ct array -> n:int -> k:int -> view
  (** The decrypt-and-select half of Algorithm 2 over a round's [n]
      masked distances in [form]: decrypts each ciphertext
      ({!Bgv.decrypt_coeff0} for {!Scalars}, a full {!Bgv.decrypt} read
      by coefficient or slot-unpacked for the blocks), drops a last
      block's values past [n] by position, and selects the k smallest
      with an O(n log k) heap that replicates the paper's streaming
      max-replacement scan exactly (ties included; see {!Util.Topk}).
      The view carries exactly the [n] per-point masked distances, so
      Leakage accounting (equidistant groups, multiset) sees the same
      surface on every form, never per-ciphertext aggregates.  Runs in
      B's own domain, span ["decrypt-distances"] then ["select-top-k"].
      @raise Invalid_argument when the ciphertext count is not [n]
      divided by the form's values per ciphertext, rounded up, or [k]
      is outside [1, n]. *)

  val monomial_indicators :
    ?obs:Sknn_obs.Ctx.t -> t -> Util.Rng.t -> view -> n:int -> per:int -> Bgv.ct array array
  (** The plain path's indicators: for each of the view's k selections
      [s_j], a row of [⌈n/per⌉] fresh encryptions at {!monomial_level},
      [Enc(x^{−(s_j mod per)·w})] for block [⌊s_j/per⌋] and [Enc(0)]
      for every other block, with [w = ⌊N/per⌋].  Every block is
      encrypted alike, so B's work depends on [n], [N], [per] and [k]
      only.  The [k·⌈n/per⌉] encryptions run pool-parallel with
      per-encryption RNG streams split in order, row by row (pool
      chunks ["indicator-row"]).
      @raise Invalid_argument when {!monomial_level} does. *)

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
      polynomial plus [‖q‖²], two ciphertexts whatever [d], encrypted at
      the public level {!Util.Noise_model.inner_product_query_level}.
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
  (** The plain path's result ({!Party_a.return_monomials}): one point
      per ciphertext, read from coefficients [0..d−1]; the others are
      uniform. *)

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
(** [⌊N/d⌋]: the points a Return-kNN block holds on every path — what
    Party B learns to lay out its indicators. *)

val monomial_level : Config.t -> n:int -> per:int -> int
(** The plain path's Return-kNN level for [n] stored points, [per] to a
    block: {!Util.Noise_model.monomial_return_level} from the
    configured return level.  Its flood grows by log2 ⌈n/per⌉, so a
    larger database may need a higher level; Party A and Party B both
    derive it from this public shape.
    @raise Invalid_argument when no level of the chain clears the
    flood. *)

(** {1 Serialised sizes} *)

val query_bytes : encrypted_query -> int
val db_bytes : encrypted_db -> int
