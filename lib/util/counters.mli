(** Operation counters for reproducing Table 1: the op-level cost
    ledger, plus communication rounds and bytes.

    The paper's Table 1 compares protocols by the number of homomorphic
    operations, encryptions, decryptions, communication rounds and bytes
    per round.  Every crypto substrate in this repository reports into a
    [Counters.t] so that benchmark runs measure these quantities on real
    executions instead of quoting the asymptotic formulas.

    There is one set of books per operation, the {e ledger} ({!op}):
    op-kind × BGV-level counts, recorded at every [Bgv]/[Rq] call site.
    [ct_mul@L6=858] means 858 ciphertext–ciphertext multiplications
    were performed on ciphertexts with 6 active RNS primes.  Because the
    unit cost of a ring operation is proportional to its active-prime
    count, the ledger is what a calibrated time model
    ({!Sknn_obs.Cost_model.predict_seconds}) can price.  The Table 1
    classes ({!encryptions}, {!hom_adds}, …) are sums of its rows over
    levels.  Row 0 holds level-less ops: slot pack/unpack, and every
    Paillier op (Paillier has no modulus chain).  The only {e events}
    ({!event}) are rounds and bytes, which no ledger row holds.

    Ledger updates are plain field increments with no synchronisation;
    per-worker counters from {!Pool.map_local} are folded back with
    {!absorb} in worker order, so totals are bit-identical for every
    job count. *)

type t

(** The communication events, which no ledger row holds. *)
type event =
  | Round            (** one protocol communication round *)
  | Bytes_sent of int (** payload bytes placed on the wire *)

(** The ledger's op kinds.  Composite BGV operations record one primary
    op plus the NTT passes they trigger; {!Op_ntt_fwd}/{!Op_ntt_inv}
    count whole-polynomial conversions at the recorded level (each is
    [level] per-prime butterfly passes). *)
type op =
  | Op_encrypt       (** public-key encryption (3 forward NTT sets: u and
                         the two components' embeds) *)
  | Op_decrypt       (** full or coeff0-only decryption *)
  | Op_ct_add        (** ciphertext ± ciphertext or plaintext *)
  | Op_ct_mul        (** ciphertext tensor product *)
  | Op_mul_plain     (** ciphertext × plaintext / scalar *)
  | Op_modswitch     (** modulus switch (recorded at the source level) *)
  | Op_level_drop    (** RNS truncation without rescaling (target level) *)
  | Op_key_switch    (** relinearisation or Galois key switch *)
  | Op_ntt_fwd       (** Coeff→Eval conversion of one polynomial *)
  | Op_ntt_inv       (** Eval→Coeff conversion of one polynomial; a rescale
                         chain's pass covers only its dropped primes, so
                         a chain of j switches records it at level j *)
  | Op_slot_pack     (** Plaintext.of_slots mod-t inverse NTT (level 0) *)
  | Op_slot_unpack   (** Plaintext.to_slots mod-t forward NTT (level 0) *)

val all_ops : op array
(** Every op kind once, in {!op_index} order. *)

val num_ops : int
val op_index : op -> int
(** Dense index in [0 .. num_ops - 1], stable across runs. *)

val op_name : op -> string
(** Snake-case wire name ([ct_mul], [ntt_fwd], …) used by the metrics
    exposition and the bench JSON ledger fields. *)

val max_level : int
(** Highest level the ledger can record (inclusive); {!record_op}
    rejects levels outside [0 .. max_level].  Level 0 is reserved for
    level-less ops: slot pack/unpack and Paillier's. *)

val create : unit -> t
val reset : t -> unit
val record : t -> event -> unit

val record_op : t -> op -> level:int -> unit
(** Add one ledger entry for [op] at [level].
    @raise Invalid_argument when [level] is out of range. *)

val record_op_n : t -> op -> level:int -> int -> unit
(** [record_op_n t op ~level k] records [op] [k] times ([k >= 0]). *)

val op_count : t -> op -> level:int -> int
val op_total : t -> op -> int
(** Ledger count of [op] summed over all levels. *)

val ops_total : t -> int
(** Every ledger entry summed — the single-number "ciphertext work"
    aggregate. *)

val ledger_entries : t -> (op * int * int) list
(** Nonzero ledger cells as [(op, level, count)], ordered by
    {!op_index} then ascending level — deterministic, so two counters
    with equal ledgers render identically. *)

val equal_ledger : t -> t -> bool
(** Cell-wise equality of the two ledgers (rounds and bytes are not
    compared) — what the Cost_model cross-check tests assert. *)

(** {1 Table 1 classes}

    Each is its op's ledger row summed over levels: [Op_encrypt],
    [Op_decrypt], [Op_ct_add], [Op_ct_mul], [Op_mul_plain],
    [Op_modswitch] and [Op_key_switch] (relinearisation and Galois
    key switches). *)

val encryptions : t -> int
val decryptions : t -> int
val hom_adds : t -> int
val hom_muls : t -> int
val hom_mul_plains : t -> int
val hom_modswitches : t -> int
val hom_relins : t -> int
val hom_total : t -> int
(** Sum of the five homomorphic classes above (adds, muls, plain muls,
    modswitches, relins). *)

val rounds : t -> int
val bytes_sent : t -> int

val record_n : t -> event -> int -> unit
(** [record_n t e k] records [e] [k] times ([k >= 0]); for
    [Bytes_sent n] this adds [n * k] bytes. *)

val merge : t -> t -> t
(** [merge a b] is a fresh counter holding the component-wise sums
    (events and ledger). *)

val copy : t -> t
(** An independent snapshot.  {!Sknn_obs.Trace} snapshots a party's live
    counter when a span opens and {!diff}s at close to get the span's
    delta. *)

val diff : t -> t -> t
(** [diff a b] is the component-wise difference [a - b]. *)

val is_zero : t -> bool

val to_list : t -> (string * int) list
(** The Table 1 classes, rounds and bytes as [(name, count)] pairs, in
    a fixed order — the generic view the observability sinks serialise.
    Per-level cells are not included here; use {!ledger_entries}. *)

val absorb : into:t -> t -> unit
(** [absorb ~into b] adds every count of [b] (events and ledger) into
    [into].  This is how per-worker counters from {!Pool.map_local} are
    folded back into a party's counter, keeping totals exact under any
    job count. *)

val pp : Format.formatter -> t -> unit
(** Renders the Table 1 classes, rounds, bytes and, when nonempty, the
    ledger ([ledger(ct_mul@L6=858 …)]) — the jobs-determinism tests
    compare this rendering across worker counts. *)
