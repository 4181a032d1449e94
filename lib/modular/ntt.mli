(** Negacyclic number-theoretic transform modulo a word-sized prime.

    This is the hot loop of the whole repository: every homomorphic
    operation in the BGV layer reduces to forward/inverse NTTs and
    pointwise products in Z_p[x]/(x^n + 1).  The modulus is restricted to
    [p < 2^31] so that every butterfly product fits in the native 63-bit
    [int] — no boxed [int64] in the inner loop.

    For [p < 2^30] (every prime {!Params} can emit) the transforms are
    division-free: each twiddle carries a precomputed {!Shoup}
    companion, butterflies run lazily over [[0, 2p)] with one
    conditional subtraction instead of [mod], and the pointwise kernels
    reduce with the table's {!Barrett} reciprocal.  Both reductions are
    exact, so outputs are bit-identical to the naive [mod]-based
    transform (which remains as the fallback for larger primes).

    The transform convention is the standard merged-psi one (Longa &
    Naehrig, 2016): [forward] consumes coefficients in natural order and
    produces the evaluation domain in bit-reversed order; [inverse]
    consumes that layout and returns natural-order coefficients, so
    [inverse (forward a) = a] with no explicit bit-reversal pass, and
    multiplication is a pointwise product between the two. *)

type table
(** Precomputed twiddle factors for a fixed (prime, degree) pair. *)

val make_table : p:int -> n:int -> table
(** [make_table ~p ~n] precomputes tables for Z_p[x]/(x^n+1).  Requires
    [n] a power of two, [p] prime, [p ≡ 1 (mod 2n)], [p < 2^31].
    @raise Invalid_argument otherwise. *)

val prime : table -> int
val degree : table -> int

val barrett : table -> Barrett.t
(** The per-prime Barrett reciprocal used by the pointwise kernels,
    exposed so the ring layer can reduce its own products without
    recomputing it. *)

val n_inv : table -> Shoup.t
(** n⁻¹ mod p with its Shoup companion: the scaling the inverse
    transform applies, for callers that sum evaluation points to read
    coefficient 0. *)

val forward : table -> int array -> unit
(** In-place forward negacyclic NTT; input in natural order, output in
    bit-reversed evaluation order. Length must equal [degree]. *)

val inverse : table -> int array -> unit
(** In-place inverse; undoes [forward] including the 1/n scaling. *)

val pointwise_mul : table -> int array -> int array -> int array -> unit
(** [pointwise_mul t dst a b] sets [dst.(i) <- a.(i)*b.(i) mod p].
    [dst] may alias [a] or [b]. *)

val pointwise_mul_acc : table -> int array -> int array -> int array -> unit
(** [pointwise_mul_acc t acc a b] adds [a.(i)*b.(i)] into [acc.(i)] mod p. *)

val negacyclic_mul : table -> int array -> int array -> int array
(** Convenience: full polynomial product of natural-order inputs
    (forward both, pointwise, inverse). Allocates; inputs unchanged. *)
