(** Shoup multiplication: division-free modular product with a fixed
    operand, exact for any modulus [p < 2^31] on OCaml's 63-bit ints.

    Precomputing {!of_int} costs two hardware divisions; every
    subsequent {!mul} costs three multiplications, two shifts and one
    conditional subtraction — no division.  This is the kernel behind
    the NTT butterflies and scalar multiplication in the ring layer. *)

type t = {
  w : int;   (** the fixed operand, in [[0, p)] *)
  hi : int;  (** high 31 bits of [floor (w * 2^62 / p)] *)
  lo : int;  (** low 31 bits of the same companion constant *)
}
(** Fields are exposed (read-only by convention) so hot loops can hoist
    them into registers; construct only via {!of_int}. *)

val of_int : p:int -> int -> t
(** [of_int ~p w] precomputes the companion of [w] for modulus [p].
    Requires [1 < p < 2^31] and [0 <= w < p].
    @raise Invalid_argument otherwise. *)

val mul_lazy : t -> p:int -> int -> int
(** [mul_lazy t ~p x] returns [t.w * x mod p + e*p] with [e] in {0,1} —
    a value in [[0, 2p)] congruent to the product.  Requires
    [0 <= x < 2^31].  Used inside lazy butterfly stages where the final
    reduction is deferred.

    For a prime [p] and a canonical [x < p], [e = 0]: with
    [w' = ⌊w·2^62/p⌋], the quotient estimate falls short only when
    [frac(w·x/p) < x/2^62 < 2^-31 < 1/p], that is when [p] divides
    [w·x], so [w = 0] or [x = 0], where [w'·x/2^62] is exact.  [e = 1]
    needs [x >= p] ([x = p] with [w <> 0] gives [p]); the kernels keep
    their correction so they stay exact for any [x < 2^31]. *)

val mul : t -> p:int -> int -> int
(** [mul t ~p x] is the exact product residue [t.w * x mod p], for
    [0 <= x < 2^31].  Bit-for-bit identical to [(t.w * x) mod p]. *)
