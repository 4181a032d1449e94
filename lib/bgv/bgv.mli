(** The leveled BGV somewhat-homomorphic encryption scheme.

    This is the paper's underlying (S)HE — the "LFHE" instantiated by
    HElib — rebuilt from its definition (Brakerski–Gentry–Vaikuntanathan,
    ITCS 2012) on the RNS/NTT ring substrate of {!Rq}:

    - secret key: ternary [s]; public key: RLWE pair [(b, a)] with
      [b + a·s = t·e];
    - encryption of plaintext polynomial [m]: [(b·u + t·e1 + m, a·u + t·e2)],
      so that [c0 + c1·s = m + t·E] for small [E];
    - homomorphic addition/subtraction componentwise; multiplication by
      tensoring (ciphertext degree grows), with optional relinearisation
      back to degree 1 via base-2^w key switching;
    - leveled structure: {!modswitch} divides the ciphertext modulus by
      the last RNS prime, scaling the noise down proportionally, which is
      what keeps noise growth linear rather than exponential in depth.

    Each ciphertext tracks a conservative noise bound (in bits) and the
    plaintext scale factor accumulated by modulus switching; [decrypt]
    undoes the factor, so callers never see it.  Every bound, the
    budget, the rescale rule and the serialised size come from
    {!Util.Noise_model}'s ops applied to the ciphertext's (level,
    degree, bits), the same ops the forecaster and
    {!Sknn_obs.Cost_model} walk before any ciphertext exists.

    Every operation optionally records into a {!Util.Counters.t}: one
    cell of the op-kind × level cost ledger ({!Util.Counters.op}), plus
    the whole-polynomial NTT passes each composite operation triggers.
    The Table 1 reproduction reads those counts on live protocol runs,
    and {!Sknn_obs.Cost_model} replays the same accounting
    analytically. *)

type secret_key
type public_key
type relin_key
type galois_key
type keys = { sk : secret_key; pk : public_key; rlk : relin_key }
type ct

exception Decryption_failure of string
(** Raised by {!decrypt} / {!decrypt_coeff0} when the tracked noise
    bound shows the ciphertext is undecryptable (budget exhausted).
    Distinct from [Failure] so callers — the CLI dumps the flight
    recorder on it — can catch exactly this condition. *)

(** {1 Keys} *)

val keygen : Util.Rng.t -> Params.t -> keys
val params_of_sk : secret_key -> Params.t
val params_of_pk : public_key -> Params.t

(** {1 Encryption / decryption} *)

(** [encrypt ?level rng pk pt] encrypts under the public key.  [?level]
    encrypts directly at a truncated modulus level (1 = last prime
    only); cheaper when the ciphertext is destined for shallow
    computation, as with Party B's Return-kNN indicators.  Three forward
    NTT sets: u, and one fused embedding per component
    (c0 = b·u + NTT(t·e0 + m), c1 = a·u + NTT(t·e1)); the draws run u,
    e0, e1. *)
val encrypt :
  ?counters:Util.Counters.t -> ?level:int -> Util.Rng.t -> public_key -> Plaintext.t -> ct
val decrypt : ?counters:Util.Counters.t -> secret_key -> ct -> Plaintext.t
(** One inverse NTT of c0 + c1·s + …, then {!Rq.decode_mod_t}: each
    coefficient's centered residue mod t in native integers, with no
    branch, division or index that depends on it.
    @raise Decryption_failure if the tracked noise bound shows the
    ciphertext is undecryptable (budget exhausted). *)

val decrypt_coeff0 : ?counters:Util.Counters.t -> secret_key -> ct -> int64
(** Decrypts only the constant coefficient of the plaintext polynomial.
    Party B's Find-Neighbours phase reads exactly one scalar per masked
    distance, and the constant coefficient of a negacyclic transform is
    recoverable as [n^{-1} · Σ evaluations], so this skips the inverse
    NTTs and decodes one residue vector ({!Rq.decode_residues_mod_t})
    instead of n. *)

(** {1 Homomorphic evaluation} *)

val add : ?counters:Util.Counters.t -> ct -> ct -> ct
val sub : ?counters:Util.Counters.t -> ct -> ct -> ct
val neg : ct -> ct
val add_plain : ?counters:Util.Counters.t -> ct -> Plaintext.t -> ct
val add_const : ?counters:Util.Counters.t -> ct -> int64 -> ct
val mul_plain : ?counters:Util.Counters.t -> ct -> Plaintext.t -> ct
val mul_scalar : ?counters:Util.Counters.t -> ct -> int64 -> ct

val fold_monomials : ?counters:Util.Counters.t -> by:Rq.power -> ct array -> ct
(** [fold_monomials ~by cts], for [by = x^w] ({!Rq.x_power} of the
    params' ring, built once by the caller), is
    [Σₛ x^{s·w}·cts.(s)]: a product by a monomial shifts the
    decryption's coefficients, so when every input encrypts a
    polynomial of degree below [w], coefficients [s·w] to
    [s·w + w − 1] of the result decrypt to input [s] and the
    coefficients past the inputs to 0 (with [w = 1] and constant
    inputs, coefficient [s] is input [s]).  The shift needs no key
    switch, so the tracked bound is the inputs'
    {!Util.Noise_model.add} fold in term order (log2 m bits above m
    equal bounds).  Horner's [m − 1] steps run in place in the
    evaluation domain ({!Rq.fold_monomials}); the ledger records
    [m − 1] {!Util.Counters.Op_mul_plain} and [m − 1]
    {!Util.Counters.Op_ct_add} cells at the inputs' level and no
    transform.
    @raise Invalid_argument on no input, a last term's shift
    [(m − 1)·w] at or past the ring degree, or inputs of differing
    params, level, degree or factor. *)

type embedded
(** A plaintext transformed into the evaluation domain once, at a
    level: the embedding {!add_plain} and {!mul_plain} build on every
    call, kept so that many products can share it. *)

val embed : ?counters:Util.Counters.t -> level:int -> Plaintext.t -> embedded
(** One forward NTT set at [level], recorded as
    {!Util.Counters.Op_ntt_fwd}.  The embedding serves any ciphertext
    at [level] or below.
    @raise Invalid_argument when [level] is outside the chain. *)

val add_embedded : ?counters:Util.Counters.t -> ct -> embedded -> ct
(** {!add_plain} without the transform: one
    {!Util.Counters.Op_ct_add} cell.
    @raise Invalid_argument on a parameter mismatch, a ciphertext above
    the embedding's level, or one a modulus switch has scaled (its
    plaintext factor is not 1). *)

val mul_plain_sums :
  ?counters:Util.Counters.t -> ct array array -> (int -> embedded) -> ct array
(** [mul_plain_sums rows e] is [Σⱼ rowⱼ ⊙ e j] for every row: [e j] is
    called once per term, in order, and serves every row before the
    next is requested, so one embedding is alive at a time.  Each
    result's components, factor, tracked bound and ledger ([m]
    {!Util.Counters.Op_mul_plain} and [m − 1]
    {!Util.Counters.Op_ct_add} cells per row of [m] terms, no
    transform) equal the [mul_plain]-then-[add] fold's without the
    embeddings; the sums run on {!Rq.sum_mul_add}.
    @raise Invalid_argument on empty input, rows of differing lengths,
    terms of differing levels, degrees or factors, or an embedding
    below the terms' level. *)

val mul :
  ?counters:Util.Counters.t -> ?rlk:relin_key -> ?rescale:bool -> ct -> ct -> ct
(** Tensor product.  Levels are aligned automatically (the deeper operand
    wins).  If [rlk] is given and the result has degree 2 it is
    relinearised back to degree 1; afterwards, unless [rescale:false],
    the modulus chain is switched down while that reduces the noise
    bound.  Without [rlk] the ciphertext degree grows — decryption still
    works at any degree (at higher cost), which is the "no-relin"
    ablation of DESIGN.md. *)

val mul_sum :
  ?counters:Util.Counters.t -> ?jobs:int -> ?rlk:relin_key -> ct array -> ct array -> ct
(** [mul_sum a b] is the inner product [Σᵢ aᵢ·bᵢ] with no rescaling,
    recording [n] {!Util.Counters.Op_ct_mul} and [n-1]
    {!Util.Counters.Op_ct_add} ledger cells — exactly what the
    equivalent [mul ~rescale:false] / [add] fold would record.  All
    operands are first aligned to their common minimum level.  The
    products are tensored straight into a shared accumulator
    ({!Rq.mul_add_into}), skipping one intermediate [Rq] allocation per
    term; [?jobs] splits the terms across that many domains
    ({!Util.Pool}).  Residue addition is exact modular arithmetic and
    the noise bound is folded in term order ({!Util.Noise_model.mul}
    then {!Util.Noise_model.add}), so the result is bit-identical for
    every job count.  With [rlk] a degree-2 sum is relinearised once,
    after the last term: one {!Util.Counters.Op_key_switch}.
    @raise Invalid_argument on empty or length-mismatched inputs, or
    when the terms' factors [aᵢ.factor·bᵢ.factor] differ (a modswitched
    operand among fresh ones). *)

val sum_sq_diff :
  ?counters:Util.Counters.t -> ?rlk:relin_key -> ct array -> ct array -> ct
(** [sum_sq_diff a b] is [Σⱼ (aⱼ - bⱼ)²], Algorithm 1's per-coordinate
    squared distance.  Its components, factor, tracked bound and ledger
    cells ([n] {!Util.Counters.Op_ct_add} for the differences, then
    [n] {!Util.Counters.Op_ct_mul} and [n-1] {!Util.Counters.Op_ct_add})
    equal [mul_sum (Array.map2 sub a b) (Array.map2 sub a b)]'s, but no
    difference ciphertext is built: {!Rq.sum_sq_diff} sums each term's
    d0², d0·d1 and d1² directly.  With [rlk] the sum is
    relinearised once.  Runs on the calling domain.
    @raise Invalid_argument unless every input shares params, level and
    factor and has degree 1 (the protocol's fresh encryptions do). *)

val rerandomize :
  ?counters:Util.Counters.t -> flood_bits:int -> Util.Rng.t -> public_key -> ct -> ct
(** Noise flooding: adds a fresh encryption of zero at the ciphertext's
    level whose [c0] also carries [t·F], with [F] uniform and
    [|t·F| < 2^flood_bits].  Same plaintext; the tracked noise bound
    grows by the flood.  With [flood_bits] a statistical margin above
    the ciphertext's noise bound, the decryptor learns the plaintext
    and nothing about how the ciphertext was computed.  [flood_bits]
    must come from public bounds, not from the ciphertext.  Costs one
    encryption and one addition: [t·F] joins c0's embedding before its
    transform, and F's chunks are drawn after the encryption's own.
    @raise Invalid_argument when the flood is narrower than [t] or does
    not fit under the level's modulus. *)

val relinearize : ?counters:Util.Counters.t -> relin_key -> ct -> ct
(** Degree-2 → degree-1. @raise Invalid_argument on other degrees. *)

val galois_keygen : Util.Rng.t -> secret_key -> elt:int -> galois_key
(** Key material for the Galois automorphism [x -> x^elt] (odd [elt],
    taken mod 2n).  [elt = 3^r] rotates the batching slots within their
    two hypercolumns by [r]; [elt = 2n - 1] is the conjugation that
    swaps the hypercolumns — the Smart–Vercauteren slot-manipulation
    toolkit of the paper's HElib instantiation. *)

val galois_elt : galois_key -> int

val apply_galois : ?counters:Util.Counters.t -> galois_key -> ct -> ct
(** Homomorphically maps an encryption of [m(x)] to an encryption of
    [m(x^elt)], i.e. permutes the plaintext slots (see
    {!Plaintext.substitute} for the plaintext-side image).  Degree-1
    ciphertexts only; costs one key switch. *)

val slot_sum_keys : Util.Rng.t -> secret_key -> galois_key list
(** The log2(n) Galois keys {!sum_slots} needs. *)

val sum_slots : ?counters:Util.Counters.t -> galois_key list -> ct -> ct
(** Rotate-and-sum: returns a ciphertext whose every slot holds the sum
    of all the input's slots — log2(n) automorphisms and additions (the
    standard HElib "total sums" primitive). *)

val modswitch : ?counters:Util.Counters.t -> ct -> ct
(** Drop the last active prime, dividing noise by it (plus the standard
    additive rounding term). @raise Invalid_argument at level 1. *)

val rescale_to_floor : ?counters:Util.Counters.t -> ct -> ct
(** Switch down while {!Util.Noise_model.switch_helps}: while a switch
    cuts the noise bound by more than half a bit.  The trip count [j]
    is decided first on the tracked bound; the [j] switches then run as
    one {!Rq.switch_down} chain per component, equal byte for byte to
    [j] calls of {!modswitch}.  The ledger records [j]
    {!Util.Counters.Op_modswitch} cells, but only one pair of NTT
    passes per component: [degree+1] inverse passes over the [j]
    dropped primes (cells at level [j]) and [degree+1] forward passes
    at the target level. *)

val truncate_to_level : ?counters:Util.Counters.t -> ct -> int -> ct
(** Cheap level alignment: drop RNS components without rescaling (valid
    because the represented value is far below the smaller modulus).
    With [counters], an actual drop is recorded in the cost ledger as
    {!Util.Counters.Op_level_drop} at the target level; the implicit
    alignments inside {!add}/{!mul}/{!mul_sum} stay unrecorded. *)

val eval_poly :
  ?counters:Util.Counters.t -> ?rlk:relin_key -> lead_bits:float -> coeffs:int64 array ->
  ct -> ct
(** Horner evaluation of [coeffs.(0) + coeffs.(1)·x + …] at the
    encrypted [x], slot-wise.  This is the protocol's [EvalPoly].
    [lead_bits] is a public bound on the leading coefficient's
    {!scalar_bits}: the noise bound charges it instead of the drawn
    value, so the result's level, bound and size do not depend on the
    coefficients.
    @raise Invalid_argument when the leading coefficient exceeds
    [lead_bits]. *)

(** {1 Inspection} *)

val degree : ct -> int
(** Number of components minus one; fresh ciphertexts have degree 1. *)

val level : ct -> int
(** Active RNS primes remaining. *)

val noise_bits : ct -> float
(** Conservative bound (bits) on the decryption noise term. *)

val actual_noise_bits : secret_key -> ct -> float
(** Debug oracle: the bit size of the true decryption noise
    [Σ cᵢ·sⁱ mod Q] (centered).  The protocols never call this; the test
    suite uses it to check that {!noise_bits} is a sound upper bound on
    every circuit it runs. *)

val noise_budget_bits : ct -> float
(** [log2 (Q_level / 2) - noise_bits]; decryption is guaranteed while
    positive. *)

val scalar_bits : t_plain:int64 -> int64 -> float
(** log2 of a scalar's centered magnitude mod [t_plain] (at least 0):
    the growth {!mul_scalar} charges the noise bound.  What the cost
    model charges for a worst-case scalar, too. *)

val byte_size : ct -> int
(** Exact serialised size: [Bytes.length (ct_to_bytes ct)] without
    paying for the encoding ({!Util.Noise_model.ct_bytes}). *)

val pp_ct : Format.formatter -> ct -> unit

(** {1 Serialisation}

    Binary wire format (little-endian, versioned magic), so the
    simulated parties exchange exactly what real deployments would.
    Decoding validates the magic, the parameter fingerprint and every
    residue range. *)

exception Malformed of string
(** Raised by the [*_of_bytes] decoders on truncated, padded or
    corrupted input, and on bytes written under other parameters. *)

val ct_to_bytes : ct -> Stdlib.Bytes.t
val ct_of_bytes : Params.t -> Stdlib.Bytes.t -> ct
val pk_to_bytes : public_key -> Stdlib.Bytes.t
val pk_of_bytes : Params.t -> Stdlib.Bytes.t -> public_key
val sk_to_bytes : secret_key -> Stdlib.Bytes.t
val sk_of_bytes : Params.t -> Stdlib.Bytes.t -> secret_key
