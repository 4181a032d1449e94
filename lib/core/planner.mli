(** Automatic BGV parameter planning.

    [plan] searches the (ring degree, chain length × prime width,
    plaintext prime) space for the cheapest parameter set a workload can
    prove safe:

    - candidates are enumerated as cheap {!Params.probe}s (prime search
      only; structured {!Params.Infeasible} specs are counted, not
      fatal), with the plaintext width sized to the masking envelope via
      {!Masking.max_coeff_bits};
    - feasibility pruning checks the noise report of
      {!Sknn_obs.Cost_model.predict} — the symbolic walk of the
      workload's query path, the same one [Party_a.prepare_packed]
      audits — against the noise margin, and
      {!Params.security_bits_for} against the security floor; the
      return level is the lowest that clears the margin;
    - survivors are ranked by {!Sknn_obs.Cost_model.price} of the same
      walk — one query of a deployed database — with unit costs from a
      {!Sknn_obs.Cost_model.unit_model} fitted from one measured
      calibration.

    Everything is pure given the unit model: the same spec yields the
    byte-identical plan.  Only {!realize} builds the expensive NTT/CRT
    tables, for the candidate actually chosen. *)

(** {1 Workload and constraints} *)

type workload = {
  points : int;  (** database size n *)
  dim : int;  (** dimension d *)
  k : int;  (** neighbours returned *)
  coord_bits : int;  (** coordinates fit in this many bits *)
  layout : Config.layout;
  path : Sknn_obs.Cost_model.path;  (** pipeline the plan optimises *)
  mask_degree : int;
  mask_coeff_bits : int;  (** required sound mask-coefficient width *)
}

val workload :
  ?layout:Config.layout ->
  ?path:Sknn_obs.Cost_model.path ->
  ?mask_degree:int ->
  ?mask_coeff_bits:int ->
  points:int ->
  dim:int ->
  k:int ->
  coord_bits:int ->
  unit ->
  workload
(** Defaults: [Dot_product] layout, [Packed 1] path, affine mask with
    8-bit coefficients (the presets' request). *)

type constraints = {
  min_security_bits : float;  (** RLWE floor; 0 disables the prune *)
  noise_margin_bits : float;  (** forecast headroom the plan must keep *)
  net : Profile.t option;
      (** price candidates end-to-end under this network profile: each
          entry's seconds gain the virtual wire time of its predicted
          transcript (rounds × RTT + bytes/bandwidth), so a WAN ranking
          weights rounds and message sizes, not just compute *)
}

val default_constraints : constraints
(** No security floor, 4-bit margin, no network term. *)

(** {1 Planning} *)

type spec = {
  sp_n : int;
  sp_plain_bits : int;
  sp_prime_bits : int;
  sp_chain_len : int;
  sp_return_level : int;
}

type entry = {
  spec : spec;
  probe : Params.probe;
  log2_q : float;
  security_bits : float;
  min_headroom_bits : float;  (** at the chosen return level *)
  seconds : float;
      (** the ranking key: [total_s] of one query's price on a deployed
          database, under [net] when given *)
  phase_seconds : (string * float) list;  (** that price's [phase_s] *)
}

type outcome = {
  load : workload;
  limits : constraints;
  ranked : entry list;  (** best first, at most [keep] *)
  considered : int;  (** (n, prime_bits, chain_len) tuples examined *)
  infeasible : (string * int) list;  (** reason → count, sorted *)
  pruned_noise : int;  (** feasible specs failing the margin *)
  pruned_security : int;  (** feasible specs under the floor *)
}

val plan :
  ?keep:int ->
  unit_model:Sknn_obs.Cost_model.unit_model ->
  workload ->
  constraints ->
  outcome
(** Search the candidate space; [keep] (default 10) bounds the ranked
    list.  Pure given [unit_model] — the same inputs always produce the
    identical outcome.  @raise Invalid_argument on nonsensical
    workloads (an empty packed round, and [mask_degree > 1] anywhere
    but the plain per-coordinate path, the only pipeline that supports
    it). *)

val best : outcome -> entry option

val realize : workload -> entry -> Config.t
(** Build the winning candidate's full parameter set (NTT/CRT tables)
    and wrap it in a validated protocol configuration. *)

(** {1 Rendering} *)

val path_name : Sknn_obs.Cost_model.path -> string
(** ["plain"] or ["packed-M"]. *)

val json_of_outcome : outcome -> string
val pp_outcome : Format.formatter -> outcome -> unit
