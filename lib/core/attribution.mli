(** Config → {!Sknn_obs.Cost_model} bridge.

    Derives the analytic cost model's parameters from a protocol
    configuration — exact modulus bit lengths for the key-switch digit
    count, the sound mask-coefficient width, the worst-case scalar
    magnitude — using the functions the live circuit uses, so the
    model's branch decisions match the instrumented run's.
    See DESIGN.md §5a for the invariant this upholds. *)

val q_ibits_of_moduli : int array -> int array
(** Exact bit length of the prefix modulus products (index [i] =
    [i + 1] active primes) — [Zint.numbits] of the same products
    [Rq.modulus ~nprimes] returns, without needing a ring context. *)

val model_params_probe :
  Params.probe ->
  layout:Config.layout ->
  mask_degree:int ->
  mask_coeff_bits:int ->
  max_coord_bits:int ->
  use_relin:bool ->
  rescale_distances:bool ->
  return_level:int ->
  n:int ->
  d:int ->
  k:int ->
  Sknn_obs.Cost_model.params
(** The bridge from an {e unrealized} [Params.probe] plus the protocol
    knobs a [Config.t] would carry: what the planner prices candidates
    with.  [model_params] is this applied to [Params.probe_of_t], so a
    candidate and its realized configuration price identically. *)

val model_params :
  Config.t -> n:int -> d:int -> k:int -> Sknn_obs.Cost_model.params
(** [n] is the database size, [d] the dimension, [k] the neighbour
    count — the three run-time numbers a [Config.t] does not carry. *)

val predict :
  ?margin_bits:float ->
  Config.t ->
  n:int ->
  d:int ->
  k:int ->
  Sknn_obs.Cost_model.path ->
  Sknn_obs.Cost_model.prediction
(** One-stop [model_params] + [Cost_model.predict]: one round on a
    deployed database, of the plain path on the configuration's layout
    or of a packed round, the same five phases either way;
    {!Sknn_obs.Cost_model.price} turns the prediction into seconds. *)
