(** Secure Apriori over encrypted transactions — the second §7
    future-work extension, and the one place the protocol layer uses the
    SHE's SIMD batching: transactions live in plaintext *slots*, so a
    candidate itemset's per-transaction membership bits come out of
    [|S| − 1] ciphertext multiplications *total*, independent of the
    number of transactions.

    Model: Party A stores, per item, slot-packed encryptions of that
    item's column. The client drives the levelwise mining and is
    entitled to the frequent itemsets (candidate generation therefore
    travels to A in the clear — A learns the mining lattice structure,
    a documented relaxation shared with the encrypted-mining
    literature); supports and per-transaction contents stay hidden from
    both clouds:

    + per level, A computes each candidate's encrypted membership-bit
      vector, scales it by a fresh secret [a] (charged to the noise
      bound at its public width, so the ciphertexts' headers do not
      reveal it), adds per-slot uniform masks [r_i], and sends the
      ciphertexts to B together with the masked threshold
      [a·minsup + Σ r_i], under a fresh permutation of the candidates;
    + B decrypts, sums each candidate's slots — obtaining
      [a·support + Σ r_i], which hides the support — and reports one
      comparison bit per (permuted) candidate to the client;
    + the client, who received the permutation from A, recovers which
      candidates are frequent and generates the next level.

    Leakage: A never sees a decryption; B learns only the number of
    candidates and how many pass per level (not which, not their
    supports, not any transaction bit — slots are uniformly masked). *)

type deployment

val deploy :
  ?rng:Util.Rng.t -> Config.t -> transactions:int array array -> deployment
(** Transactions are 0/1 rows. @raise Invalid_argument otherwise. *)

val item_count : deployment -> int
val transaction_count : deployment -> int

type result = {
  frequent : int list list;        (** in (size, lexicographic) order *)
  level_candidates : int array;    (** candidates tested per level *)
  level_frequent : int array;      (** survivors per level *)
  seconds : float;
  transcript : Transcript.t;
  counters_a : Util.Counters.t;
  counters_b : Util.Counters.t;
}

val mine :
  ?rng:Util.Rng.t -> ?max_size:int -> ?use_rotations:bool -> deployment ->
  minsup:int -> result
(** Levelwise mining up to itemsets of [max_size] (default 4).

    With [use_rotations] (default false), Party A additionally folds
    each candidate's support itself using relinearised products and the
    rotate-and-sum Galois primitive ({!Bgv.sum_slots}): B then receives a
    single scalar ciphertext per candidate — strictly less information
    (no per-slot view at all) and far less communication, at the cost of
    key-switching work at A.  Both variants return identical results. *)

val masked_support :
  ?use_rotations:bool -> deployment -> Util.Rng.t -> minsup:int -> int list ->
  Bgv.ct array * int64
(** Party A's message to B for one candidate itemset, as {!mine} sends
    it: the membership ciphertexts scaled by a fresh secret
    [a ∈ [1, 65535]] and masked (per slot, or by one scalar with
    [use_rotations]), and the masked threshold.  [a] is applied through
    {!Bgv.eval_poly} at its public width [Bgv.scalar_bits 65535], so the
    ciphertexts' level, noise bound and header are the same for every
    draw: B cannot read [a] off them.  Records into the deployment's
    Party A ledger; the per-slot variant adds one [ct_add] per block
    over a bare scalar product (the mask polynomial's zero constant). *)

val matches_plaintext :
  transactions:int array array -> minsup:int -> ?max_size:int -> result -> bool
(** The secure run finds exactly {!Apriori_plain.frequent_itemsets}'
    itemsets. *)
