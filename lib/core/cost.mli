(** The analytical cost model of Table 1, next to measured values.

    Table 1 compares our protocol with Yousef et al. on five rows:
    homomorphic operations, encryptions, decryptions (Party B), round
    communications, and communication per round.  [ours]/[yousef] give
    the asymptotic predictions instantiated with concrete constants;
    [measured] extracts the same quantities from a live protocol run so
    the benchmark can print "predicted vs measured" per cell. *)

type row = {
  hom_ops : int;        (** homomorphic evaluations *)
  encryptions : int;
  decryptions : int;    (** at the key-holding party *)
  rounds : int;         (** A↔B communication rounds *)
  bytes : int;          (** total A↔B payload *)
}

val ours :
  ?bytes:int -> n:int -> d:int -> k:int -> mask_degree:int -> ring_degree:int -> unit -> row
(** O(n(d + D) + k⌈n/⌊N/d⌋⌉) homomorphic ops, k·⌈n/⌊N/d⌋⌉
    encryptions (Algorithm 3's n·k, with Return kNN selecting blocks of
    ⌊N/d⌋ points by monomial), 1 round — instantiated with this
    implementation's exact constants — and the [⌈n/N⌉] decryptions
    Party B runs, the masked distances folded [N = ring_degree] to a
    ciphertext by coefficient.  [bytes] is the predicted A<->B payload
    from serialized
    ciphertext sizes ({!Sknn_obs.Cost_model.prediction}[.ab_bytes] via
    [Attribution.predict]); it defaults to 0 for callers without a
    parameter set in hand, since unlike the event counts it cannot be
    derived from (n, d, k, D) alone. *)

val yousef : n:int -> d:int -> k:int -> l:int -> row
(** O(n(2kl + d)) homomorphic ops, O(nkl) encryptions, O(n(kl + d))
    decryptions, O(k) rounds, for l-bit values (Table 1's published
    asymptotics with unit constants). *)

val measured : Protocol.result -> row
(** Party A + Party B homomorphic work, Party B encryptions/decryptions,
    measured A↔B rounds and bytes from the transcript. *)

val predicted : Sknn_obs.Cost_model.prediction -> row
(** The same cells as {!measured}, read from the cost model's per-party
    ledgers and symbolic transcript: the predicted Table 1 row of any
    path, where {!ours} is the plain path's closed form. *)

val within_asymptotic : measured:row -> predicted:row -> slack:float -> bool
(** Each measured count is at most [slack] times the prediction (and the
    prediction is not wildly pessimistic either: measured >=
    predicted / slack for nonzero rows). *)

val pp : Format.formatter -> row -> unit
