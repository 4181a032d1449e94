(** Polynomials in R_Q = Z_Q[x]/(x^N + 1), with Q a product of word-sized
    NTT primes held in residue-number-system (RNS) form.

    A value stores one residue polynomial per active prime.  Leveled BGV
    drops primes from the end of the chain as computation deepens, so the
    number of active primes ([nprimes]) is a per-value property; binary
    operations require both operands at the same level.

    Values are immutable from the outside: every operation returns a
    fresh value (the module reuses buffers internally where safe). *)

type context
(** Ring degree, modulus chain, NTT tables, all chain-prefix CRT bases
    and the per-level modulus-switch constants, shared by all values.
    Immutable after creation, so a context (and every value over it) may
    be read concurrently from multiple domains. *)

type domain = Coeff | Eval
(** [Coeff]: natural coefficient embedding. [Eval]: per-prime NTT
    evaluation domain (bit-reversed), where multiplication is pointwise. *)

type t

(** {1 Context} *)

val context : n:int -> moduli:int array -> t:int64 -> context
(** [context ~n ~moduli ~t] requires [n] a power of two and each modulus
    a prime ≡ 1 (mod 2n) below 2^31, all distinct.  [t] is the plaintext
    modulus whose residues {!switch_down} preserves and {!decode_mod_t}
    returns; it must lie in (1, 2^61) and be invertible mod every chain
    prime.  For each level the context precomputes t⁻¹ mod the dropped
    prime and the dropped prime's inverse mod every prime below it, and
    for each chain down to level [target] ending at prime l the fold
    constants (p_target⋯p_l)⁻¹ and t·(p_target⋯p_l)⁻¹ mod every kept
    prime, all with their Shoup companions; for the decode, every
    prefix product p₀⋯pⱼ₋₁ mod pᵢ (j < i) and its inverse at j = i,
    every prefix product mod t and (pᵢ - 1)/2; t mod every prime
    for {!embed_noise}; and x's transform mod every prime, with Shoup
    companions, for {!fold_monomials}.
    @raise Invalid_argument otherwise. *)

val degree : context -> int
val moduli : context -> int array
val chain_length : context -> int
val basis : context -> nprimes:int -> Crt.basis
(** CRT basis for the first [nprimes] primes of the chain (cached). *)

val modulus : context -> nprimes:int -> Zint.t
(** Product of the first [nprimes] primes. *)

(** {1 Construction and inspection} *)

val zero : context -> nprimes:int -> domain -> t
val nprimes : t -> int
val domain : t -> domain
val ctx : t -> context

val of_small_coeffs : ?bound:int -> context -> nprimes:int -> domain -> int array -> t
(** Embeds a polynomial with small signed coefficients (|c| < 2^30, e.g.
    noise, ternary secrets, digits) and converts to the requested
    domain.  [bound] is the caller's public bound on |c|: for each prime
    above it the embedding is a branchless sign fold, otherwise (and
    without [bound]) a [mod] per coefficient.  The result is the same;
    a coefficient beyond a given [bound] is embedded wrongly. *)

val of_int64_coeffs : context -> nprimes:int -> domain -> int64 array -> t
(** Embeds signed 64-bit coefficients (reduced per prime). *)

val of_zint_coeffs : context -> nprimes:int -> domain -> Zint.t array -> t

val to_zint_coeffs : t -> Zint.t array
(** Exact centered coefficients in [(-Q/2, Q/2]] via CRT lifting.
    Converts to [Coeff] domain internally if needed. *)

val constant : context -> nprimes:int -> domain -> int64 -> t
(** The constant polynomial. *)

(** {1 Domain conversion} *)

val to_eval : t -> t
val to_coeff : t -> t

val needs_transform : t -> domain -> bool
(** Whether presenting [t] in [domain] requires an NTT pass over its
    residues (false when the stored domain already matches).  The BGV
    layer's cost ledger uses this census so its [ntt_fwd]/[ntt_inv]
    counts stay exact even at call sites where a value's domain is
    data-dependent. *)

(** {1 Arithmetic}

    Every loop over residues runs one pass per prime with its modular
    correction written in the loop body: no closure and no call into
    another module per coefficient.  Results are canonical residues,
    equal to the naive [mod] formulation. *)

val add : t -> t -> t
val sub : t -> t -> t
(** Operands in different domains are added (subtracted) in [Eval]. *)

val neg : t -> t
val mul : t -> t -> t
(** Ring product; operands are converted to [Eval] if needed. *)

val mul_scalar : t -> int64 -> t
(** Multiply every coefficient by a signed scalar. *)

val add_constant : t -> int64 -> t
(** [add_constant a v] adds the constant polynomial [v] (reduced per
    prime): to every evaluation point in [Eval], since the transform of
    a constant is that constant, or to coefficient 0 in [Coeff].  Equal
    to [add a (constant ctx ~nprimes (domain a) v)] without the
    transform. *)

val mul_add_into : t -> t -> t -> unit
(** [mul_add_into acc a b] sets [acc <- acc + a·b] by fused pointwise
    multiply-accumulate, allocating nothing — the inner-product
    primitive behind {!Bgv.mul_sum}.  [acc] must be in [Eval] domain,
    uniquely owned by the caller (create it with {!zero}), and at the
    same level as [a] and [b].  [Coeff]-domain operands are transformed
    through per-worker arena scratch, not materialised. *)

(** {2 Destructive variants}

    Each writes into a value that must be {e uniquely owned} by the
    caller — created with {!zero} or the sole reference to a freshly
    computed result — and never a value that was handed out or stored
    elsewhere.  They keep the steady-state hot loop free of
    intermediate allocations; all reductions are exact, so results are
    bit-identical to the pure counterparts. *)

val add_into : t -> t -> unit
(** [add_into acc b] sets [acc <- acc + b].  Domains and levels must
    already match (no implicit conversion). *)

val sub_into : t -> t -> unit
(** [sub_into acc b] sets [acc <- acc - b].  Same contract as
    {!add_into}. *)

val mul_into : t -> t -> t -> unit
(** [mul_into dst a b] sets [dst <- a·b] (pointwise); [dst] must be
    [Eval] at the operands' level.  [dst] may alias [a] or [b] when the
    aliased operand is already [Eval]. *)

type sum
(** A running [Σₜ aₜ ⊙ bₜ] over one context and level, with each
    product reduced lazily and each row once, when read. *)

val sum_create : context -> nprimes:int -> sum
(** The empty sum at [nprimes] primes. *)

val sum_mul_add : sum -> t -> t -> unit
(** Adds [a ⊙ b] (both Eval, at the sum's level).  Folding terms in
    equals folding {!mul_add_into} into a zero accumulator.
    @raise Invalid_argument on a mismatched context, level or domain. *)

val sum_value : sum -> t
(** The reduced sum so far, in [Eval]; the sum can take more terms. *)

val sum_sq_diff : t array array -> t array array -> t array
(** [sum_sq_diff a b], for degree-1 ciphertext components
    [a.(j) = [|a0; a1|]] and [b.(j) = [|b0; b1|]], is [Σⱼ (aⱼ - bⱼ)²]
    as a degree-2 tensor: [[|Σ d0²; 2·Σ d0·d1; Σ d1²|]] with
    [d0 = a0 - b0] and [d1 = a1 - b1], fresh and [Eval].  Equal to
    summing [mul_add_into] over the differences, but no difference
    polynomial is built: per prime the three sums accumulate in the
    output rows while the terms' residue rows stream through them two
    at a time, each read once, and each sum row is reduced once.
    All inputs must be [Eval] at one level.  Primes at or above 2^30,
    and sums too long for the lazy bound (3m > 2^(bits p) terms), take
    a [mod]-based loop.
    @raise Invalid_argument on empty or mismatched inputs. *)

type power
(** A monomial [x^e]'s transform mod every prime of one context's
    chain, with Shoup companions: the multiplier of {!fold_monomials}.
    Immutable once built, so it may be shared across domains. *)

val x_power : context -> int -> power
(** [x_power ctx e] is [x^e]'s transform (negacyclic, so a power past
    n wraps with a sign).  [e = 1] returns the context's own table;
    any other exponent builds one, a forward transform per prime, so a
    caller builds it once and passes it to every fold that uses it.
    @raise Invalid_argument when [e < 1]. *)

val exponent : power -> int

val fold_monomials : by:power -> t array -> t
(** [fold_monomials ~by a], for [by = x^e], is [Σₛ x^{s·e}·a.(s)],
    fresh and [Eval]: Horner's [acc <- acc·x^e + a.(s)] from the last
    term down, each product a Shoup product per evaluation point by
    [by].  Equal to summing [mul] by each monomial's transform; per
    prime each term's row is read once.  All inputs must be [Eval] at
    one level.
    @raise Invalid_argument on empty or mismatched inputs, or [by]
    built from another context. *)

val to_coeff_into : t -> t
(** The inverse of {!to_eval_into}: transforms [t]'s residue arrays to
    the coefficient domain in place; same ownership contract. *)

val to_eval_into : t -> t
(** [to_eval_into t] transforms [t]'s residue arrays to the evaluation
    domain {e in place} and returns the [Eval]-tagged view (sharing the
    arrays).  The caller must own [t] and drop its old binding. *)

val equal : t -> t -> bool
(** Structural equality at identical level; domains are reconciled. *)

(** {1 The plaintext boundary}

    BGV's encryption embeddings and the exact decode mod t, in native
    integers: no [Zint], no division on the standard chains, and no
    branch or memory index that depends on a residue in the decode. *)

type flood = {
  chunks : int array;  (** [per_coeff] chunks below 2^30 per coefficient, most significant first *)
  per_coeff : int;
  offset_bits : int;
}
(** Wide coefficients F_j = (Σ_c chunks.(j·per_coeff + c) · 2^(30(per_coeff-1-c))) - 2^offset_bits,
    never materialised as integers: each prime reduces them by Horner
    steps. *)

val embed_noise :
  ?plain:int64 array -> ?flood:flood -> context -> nprimes:int -> bound:int -> int array -> t
(** [embed_noise ?plain ?flood ctx ~nprimes ~bound e] is
    t·(e + F) + m in [Eval], with one forward NTT per prime: one BGV
    ciphertext component's addend.  [e] is small with |eⱼ| <= [bound]
    (embedded as {!of_small_coeffs} [~bound] does), [plain] holds
    canonical residues mod t (default zero) and [flood] the wide F
    (default zero).  Equal to embedding each addend, transforming it and
    adding the transforms; t·x is a Shoup product by the context's
    t mod p, m Barrett-reduced when t <= 2^(2 bits p), F's Horner steps
    Barrett-reduced when bits p = 30; other primes use [mod].
    @raise Invalid_argument on wrong lengths or [nprimes]. *)

val decode_mod_t : ?scale:int -> t -> int array
(** For each coefficient x of the centered lift of [t] into
    (-Q/2, Q/2] (Q the product of [t]'s active primes), x mod t in
    [0, t), times [scale] mod t when given ([0 <= scale < t]).  Equal to
    [Zint.erem] of {!to_zint_coeffs}, computed from Garner's mixed-radix
    digits in native integers, with no branch, division or index that
    depends on a residue.  Transforms a copy when [t] is [Eval]. *)

val decode_residues_mod_t : ?scale:int -> context -> int array -> int
(** {!decode_mod_t} for one coefficient given by its residues mod the
    first [Array.length residues] primes. *)

val n_inv : context -> int -> Shoup.t
(** n⁻¹ mod prime [i], from that prime's NTT table. *)

(** {1 Level manipulation} *)

val switch_down : t -> drops:int -> t
(** BGV's modulus switch, [drops] times in one pass: divide by the last
    [drops] active primes and round, keeping every coefficient's residue
    mod the context's [t].  One step maps [c] to [(c - t·w) / q] for the
    dropped prime [q] and [w = c·t⁻¹ mod q] centered.  Costs one inverse
    NTT per dropped prime (none on a [Coeff] input) and one forward NTT
    per kept prime: the kept rows take the whole chain as one linear map
    in the input's domain.  The result ([Eval]) is equal to [drops]
    single-step switches.  The caller accounts for the
    factor [q⁻¹ mod t] each step leaves on the plaintext.
    @raise Invalid_argument unless [1 <= drops < nprimes t]. *)

val truncate : t -> nprimes:int -> t
(** Keeps only the first [nprimes] residue components (valid when the
    caller knows the represented value is small enough, as in BGV level
    alignment). *)

val mul_scalar_zint : t -> Zint.t -> t
(** Multiply every coefficient by an arbitrary-precision scalar (reduced
    per prime); needed for key-switching gadget powers 2^{jw} that exceed
    64 bits. *)

val substitute : t -> k:int -> t
(** The Galois automorphism [a(x) -> a(x^k)] of Z_q[x]/(x^N + 1), for
    odd [k] (taken mod 2N): a signed permutation of the coefficients.
    Works in either domain (converts to [Coeff] internally); the result
    is in [Coeff] domain. @raise Invalid_argument on even [k]. *)

val component : t -> int -> int array
(** [component t i] is a copy of the residue polynomial mod prime [i]. *)

val unsafe_component : t -> int -> int array
(** The live residue array mod prime [i]; callers must not mutate it.
    Exposed for serialisation and [Bgv.decrypt_coeff0]'s slot sum. *)

val of_components : context -> domain -> int array array -> t
(** Adopts the given residue arrays (takes ownership; do not reuse). *)

val pp : Format.formatter -> t -> unit
