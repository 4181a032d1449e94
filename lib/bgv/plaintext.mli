(** BGV plaintexts: polynomials over Z_t with SIMD slot packing.

    Because the plaintext prime satisfies [t ≡ 1 (mod 2n)], the plaintext
    ring Z_t[x]/(x^n+1) splits into [n] independent Z_t slots (the
    Smart–Vercauteren packing the paper's HElib instantiation relies on).
    [of_slots]/[to_slots] move between the slot view and the coefficient
    view via a negacyclic NTT mod [t]; all homomorphic operations then act
    slot-wise.  The Apriori extension packs one transaction per slot,
    which is what makes a candidate's support cost [|S| - 1] ciphertext
    multiplications in total.  The k-NN protocol uses both views: the
    per-point layouts put one point per ciphertext in the coefficient
    view, while the slot-packed path (DESIGN §2 "Packing
    layout") packs one database point per slot, dimension-major —
    Party A's per-query permutation needs no Galois key material there
    because it is applied to the plaintext columns at pack time, and
    Party B slot-unpacks decrypted batches with [to_slots]. *)

type t
(** Immutable plaintext polynomial attached to a parameter set. *)

val params : t -> Params.t

val of_coeffs : Params.t -> int64 array -> t
(** Coefficient-embedding constructor; values are reduced mod [t].
    Length must be [Params.slot_count]. *)

val to_coeffs : t -> int64 array

val of_slots : ?counters:Util.Counters.t -> Params.t -> int64 array -> t
(** Packs [n] slot values (reduced mod [t]) — one negacyclic inverse
    NTT mod [t], recorded in the cost ledger as
    {!Util.Counters.Op_slot_pack} when [counters] is given. *)

val to_slots : ?counters:Util.Counters.t -> t -> int64 array
(** Slot view of the plaintext.  The forward NTT mod [t] runs (and is
    recorded as {!Util.Counters.Op_slot_unpack}) only when the slot view
    is not already cached; repeated calls are free and unrecorded. *)

val constant : Params.t -> int64 -> t
(** The constant polynomial, i.e. the same value in every slot. *)

val zero : Params.t -> t

val slot : t -> int -> int64
(** [slot pt i] = [to_slots pt].(i), without converting the whole array
    twice on repeated calls (conversion is cached). *)

(** Reference slot-wise arithmetic (used by tests and by Party B's
    plaintext-side computations): *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val scale : t -> int64 -> t

val substitute : t -> k:int -> t
(** The Galois map [m(x) -> m(x^k)] for odd [k] — the plaintext-side
    image of {!Bgv.apply_galois}, which permutes the slots. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
