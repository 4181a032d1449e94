(** BGV parameter sets.

    A parameter set fixes the ring degree [n], the plaintext prime [t]
    (chosen ≡ 1 mod 2n so that CRT batching gives [n] independent Z_t
    slots per ciphertext), the RNS modulus chain (NTT primes below 2^31),
    the centered-binomial noise width and the relinearisation digit size.

    The named presets trade ring size against speed:
    - [toy]: fast unit-test parameters (n = 256);
    - [bench_small], [bench]: the scaling-experiment parameters — the
      shape of every figure (linearity in n, d, k) is preserved while a
      full sweep stays tractable in OCaml;
    - [secure]: production-shaped ring (n = 8192) whose estimated RLWE
      security [security_bits] is ≈ 128, matching the paper's setting.

    Preset construction performs prime searches; results are memoised.

    The planner ([Secure_knn.Planner]) enumerates many candidate specs;
    for that, [probe] runs only the prime searches (cheap) and raises the
    structured [Infeasible] when no such parameter set exists, while
    [of_probe] pays for the NTT/CRT table construction only for specs
    that survive pruning.  [create = of_probe % probe], so a realized set
    always matches the probe that admitted it. *)

type t = private {
  name : string;
  n : int;                    (** ring degree, power of two *)
  t_plain : int64;            (** plaintext prime, ≡ 1 mod 2n *)
  moduli : int array;         (** RNS chain, most significant first *)
  eta : int;                  (** CBD noise parameter *)
  relin_digit_bits : int;     (** base-2^w key-switching decomposition *)
  ring : Rq.context;
  batching : Ntt64.table;
  noise : Util.Noise_model.params;
      (** the chain's numbers for the noise and size formulas *)
}

(** Why a spec admits no parameter set.  Distinct from [Invalid_argument]
    (programmer errors: non-power-of-two [n], [plain_bits > 50]): these
    are legitimate points of a parameter search that happen to be empty. *)
type infeasibility =
  | No_plain_prime of { n : int; plain_bits : int }
      (** no prime ≡ 1 mod 2n below [2^plain_bits] *)
  | Prime_bits_too_large of { prime_bits : int; limit : int }
      (** chain primes above the Barrett/Shoup kernel bound *)
  | Chain_exhausted of { n : int; prime_bits : int; chain_len : int }
      (** fewer than [chain_len] NTT primes in the [prime_bits] window *)

exception Infeasible of infeasibility

val describe_infeasibility : infeasibility -> string

type probe = private {
  pr_name : string;
  pr_n : int;
  pr_t_plain : int64;
  pr_moduli : int array;
  pr_eta : int;
  pr_relin_digit_bits : int;
}
(** The prime-search result alone: everything [create] decides, minus the
    ring/batching tables it builds. *)

val probe :
  name:string ->
  n:int ->
  plain_bits:int ->
  prime_bits:int ->
  chain_len:int ->
  unit ->
  probe
(** Searches for the plaintext prime (largest ≡ 1 mod 2n below
    [2^plain_bits]) and [chain_len] distinct NTT primes of [prime_bits]
    bits (skipping a collision with the plaintext prime), with CBD
    noise parameter [eta = 2] and key-switching digits of 16 bits.
    Raises [Infeasible] when the spec admits no parameter set,
    [Invalid_argument] on programmer errors ([plain_bits > 50], the fast
    64-bit multiplier bound; [n] not a power of two; [chain_len < 1]). *)

val of_probe : probe -> t
(** Builds the CRT ring context and batching NTT tables — the expensive
    part of [create]. *)

val probe_of_t : t -> probe
(** The probe a realized set came from (inverse of [of_probe]). *)

val noise_of_probe : probe -> Util.Noise_model.params
(** The [noise] field [of_probe] derives: what the planner walks its
    unrealized candidates with. *)

val create :
  name:string ->
  n:int ->
  plain_bits:int ->
  prime_bits:int ->
  chain_len:int ->
  unit ->
  t
(** [of_probe (probe ...)].  Raises as [probe] does. *)

val toy : unit -> t
val bench_small : unit -> t
val bench : unit -> t
val secure : unit -> t

val chain_length : t -> int
val log2_q : t -> float
(** Bit size of the full ciphertext modulus. *)

val probe_log2_q : probe -> float
(** Same, from a probe's chain. *)

val security_bits_for : n:int -> log2_q:float -> float
(** RLWE security estimate by piecewise interpolation (linear in log2 n)
    over the homomorphicencryption.org standard table rows
    (ternary secret, classical attacks; n ∈ {1024 .. 32768}), extended
    geometrically outside the table range.  Monotone: decreasing in
    [log2_q] at fixed [n], increasing in [n] at fixed [log2_q].  An
    estimate for reporting and planner pruning, not a guarantee. *)

val security_bits : t -> float
(** [security_bits_for] at the set's own [n] and [log2_q]. *)

val slot_count : t -> int
(** Number of CRT plaintext slots (= [n]). *)

val pp : Format.formatter -> t -> unit
