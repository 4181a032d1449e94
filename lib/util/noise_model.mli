(** Log2-domain noise bounds and ciphertext sizes for the BGV chain.

    The one copy of every noise and size formula the system uses, over
    plain numeric parameters.  [Bgv] derives each ciphertext's tracked
    bound, its budget, the rescale rule and its serialised size from
    these ops; the forecaster, the planner and [Cost_model] walk the
    same ops on {!state}s, so worst-case end-of-circuit headroom can be
    predicted {e before} any ciphertext exists — at
    [Party_a.prepare_packed] time — and a deployment whose chain is too shallow for its circuit
    warns instead of failing mid-query.  Every op keeps its float
    operations in one fixed order, so a branch on a bound decides the
    same way live and in a walk. *)

type params = {
  n : int;  (** ring degree *)
  t_bits : float;  (** log2 of the plaintext modulus *)
  moduli_bits : float array;  (** log2 of each RNS chain prime, in order *)
  eta : float;  (** CBD noise parameter *)
}

type state = {
  level : int;  (** active RNS primes *)
  degree : int;  (** ciphertext degree (components − 1) *)
  bits : float;  (** log2 bound on the decryption noise term *)
}

val log2 : float -> float
(** [log x /. log 2], the rounding every bound here is computed with. *)

val log2_q : params -> level:int -> float
val chain_length : params -> int

val headroom : params -> state -> float
(** [log2(Q_level/2) − bits]; decryption is guaranteed while positive. *)

val ct_bytes : params -> state -> int
(** Serialised size of a ciphertext in [state]: 4 bytes per residue
    coefficient plus the 40-byte header. *)

val fresh : params -> state
val fresh_at : params -> level:int -> state
val add : state -> state -> state
val add_plain : params -> state -> state
val mul_plain : params -> state -> state

val mul_scalar : state -> bits:float -> state
(** Scalar of magnitude ≤ [2^bits]. *)

val mul : params -> state -> state -> state

val mul_sum : params -> state -> state -> terms:int -> state
(** Inner product of [terms] identical pairs, folded term by term in
    the order [Bgv.mul_sum] folds its tracked bound.
    @raise Invalid_argument if [terms < 1]. *)

val modswitch : params -> state -> state

val switch_helps : params -> state -> bool
(** Whether one {!modswitch} cuts the bound by more than half a bit —
    the rule [Bgv.rescale_to_floor] switches by. *)

val rescale_to_floor : ?switch:(params -> state -> state) -> params -> state -> state
(** Switch down while {!switch_helps}; [switch] (default {!modswitch})
    performs each step. *)

val key_switch : params -> state -> ndigits:int -> w:int -> state
(** A base-[2^w] key switch over [ndigits] digits back to degree 1:
    relinearisation or a Galois automorphism. *)

val truncate : state -> level:int -> state

val flood_bits : params -> int
(** The public flood width of the packed paths' Return-kNN: the bound of
    a fresh ciphertext after one {!mul_plain}, rounded up, plus 40 bits.
    Party A passes it to [Bgv.rerandomize] and [Cost_model.predict]
    walks the same value. *)

val flooded_zero : params -> level:int -> flood_bits:int -> state
(** What [Bgv.rerandomize ~flood_bits] adds at [level]: a fresh
    encryption of zero that also carries a flood of [flood_bits] bits. *)

val flood : params -> state -> flood_bits:int -> state
(** [Bgv.rerandomize ~flood_bits]: {!add}s {!flooded_zero} at the
    state's level. *)

(** {1 Level-drop rules}

    Where Party A drops spare RNS primes: each rule predicts the masked
    bound and returns the lowest level whose modulus clears it with 17
    bits of slack, floored at [return_level].  The live circuit
    ([Entities.Party_a]) and the symbolic walk ([Cost_model.predict])
    both call these, so their level choices are the same float
    comparisons. *)

val distance_level : params -> return_level:int -> level:int -> bits:float -> int option
(** The inner-product circuit (plain on a [Dot_product] deployment,
    k-means), per point: the level for a distance at [level] with noise
    [bits] before its affine mask; [Some] only when below [level]. *)

val packed_query_level : params -> return_level:int -> d:int -> int option
(** Packed paths: the level of the query ciphertexts, from the fresh
    bound alone — public, so the client encrypts there and Party A
    embeds its columns there; [None] means no level clears the bound. *)

(** {1 Forecast traces} *)

type step = { op : string; s_level : int; s_bits : float; s_headroom : float }

type report = {
  steps : step list;  (** in circuit order *)
  min_headroom_bits : float;
  margin_bits : float;
  below_margin : bool;
}

type trace

val start : params -> trace

val step : trace -> string -> state -> state
(** Record the state after [op] and return it unchanged, so circuit
    composition reads as a pipeline. *)

val report : ?margin_bits:float -> trace -> report
(** [margin_bits] defaults to 4. *)

val pp_report : Format.formatter -> report -> unit
