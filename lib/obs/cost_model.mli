(** The analytic model of a query path.

    {!predict} symbolically executes the exact per-path circuits of
    [lib/core/entities.ml]/[protocol.ml] on {!Util.Noise_model} bounds
    instead of ciphertexts.  One walk yields three things:

    - the op-kind × BGV-level ledger the instrumented scheme records on
      live ciphertexts, in fresh {!Util.Counters.t} values;
    - the transcript, message for message, with exact byte sizes;
    - the worst-case noise report that [Party_a.guard_noise] audits
      and the planner prunes with.

    The test suite asserts {!Util.Counters.equal_ledger} and transcript
    equality between a prediction and a measured query on every preset,
    and that every live noise gauge clears the report's minimum.

    Every count that depends on a noise bound (rescale loop trips, the
    level-drop rules) is decided by the same {!Util.Noise_model}
    functions [Bgv] and the live circuit call, so the predicted branch
    decisions match the live ones.

    Combined with per-op unit costs measured by the calibration bench
    ([bench/kernels]), {!predict_seconds} turns a ledger — predicted or
    measured — into seconds, and {!price} turns a whole prediction into
    per-phase, per-party, compute, wire and total seconds: the one
    pricing every consumer ([sknn cost], [sknn plan], the planner, the
    bench harness) reads. *)

type params = {
  nm : Util.Noise_model.params;  (** ring/modulus/noise numbers, shared with the forecaster *)
  q_ibits : int array;
      (** exact bit length of the RNS modulus product with [i+1] active
          primes (index [level − 1]) — [Zint.numbits], not a float
          ceiling, because the relinearisation digit count divides it *)
  n_points : int;  (** database size n *)
  d : int;  (** dimension *)
  k : int;  (** neighbours returned *)
  per_coordinate : bool;  (** layout: per-coordinate vs dot-product *)
  mask_degree : int;
  mask_leading_bits : float;
      (** log2 bound on the centered magnitude of the mask's leading
          coefficient (the one Horner applies as a scalar), the public
          width [Bgv.eval_poly] charges live *)
  rescale_distances : bool;
  return_level : int;
  use_relin : bool;
  relin_digit_bits : int;
  relin_rows : int;  (** gadget rows in the relinearisation key *)
  slots : int;  (** SIMD slot count (= ring degree here) *)
}

(** Which query pipeline to predict.  [Plain] is the paper's round on
    the deployment's layout: Algorithm 1's square-sum per coordinate,
    its masked distances folded N to a coefficient block, or on a
    [Dot_product] deployment the inner-product circuit against the
    norms the data owner shipped, from a query at its public level.  [Packed m] is one slot-packed round
    of [m ≥ 1] queries under one permutation
    ([Protocol.query_gen ~path:(Packed m)]); [Packed 1] is the single
    packed query. *)
type path = Plain | Packed of int

type phase = {
  phase : string;  (** protocol phase name, as [Protocol] times it *)
  party : string;  (** ["party-a"] / ["party-b"] / ["client"] *)
  counters : Util.Counters.t;
}

type prediction = {
  phases : phase list;  (** in protocol order; return-knn appears once per party *)
  party_a : Util.Counters.t;  (** merged totals, comparable to live query counters *)
  party_b : Util.Counters.t;
  client : Util.Counters.t;
  ab_bytes : int;
      (** serialized bytes crossing the A<->B link (both directions),
          computed with {!Util.Noise_model.ct_bytes}, as
          [Bgv.byte_size] is, on the symbolic ciphertexts at their send-time degree and level —
          comparable to [Transcript.bytes_between] on a measured run *)
  transcript : Transcript.t;
      (** the predicted communication transcript, message for message:
          same senders, labels and granularity as the live [Protocol]
          run, with bytes from the symbolic send-time states — so
          per-link bytes and rounds (and any {!Netsim.Clock} replay of
          it) agree exactly with a measured query *)
  noise : Util.Noise_model.report;
      (** worst-case noise bound of one representative point (or batch)
          per phase, in circuit order: the step ["masked-distance"] is
          the A→B ciphertext, ["result"] what A returns to the client,
          flooded: on the plain path a monomial-selection sum over the
          widest block at {!Util.Noise_model.monomial_flood_bits}, on
          the packed path a block product at
          {!Util.Noise_model.block_flood_bits}.  A negative minimum
          means a live query would raise [Bgv.Decryption_failure]. *)
}

val predict : ?margin_bits:float -> params -> path -> prediction
(** Symbolically run one round, on a deployed database: every path runs
    the same five phases, the first round of a deployment included
    (the packed layout is set-up work).  [margin_bits] (default 4) is
    the report's warning margin.
    @raise Invalid_argument on nonsensical sizes and on [Packed m] with
    [m < 1]. *)

(** {1 Calibrated time} *)

type unit_costs = float array array
(** [unit_costs.(Util.Counters.op_index op).(level)] = measured seconds
    per operation of that kind at that chain level (row 0 holds the
    level-free slot ops).  Produced by the calibration pass in
    [bench/kernels]: the NTT census rows ([Op_ntt_fwd]/[Op_ntt_inv])
    hold one whole-polynomial pass, and every composite op's cell is
    net of the passes it records.  Missing cells read as zero. *)

val predict_seconds : unit_costs:unit_costs -> Util.Counters.t -> float
(** [Σ count × unit_cost] over every cell of the ledger, the NTT census
    included: composite ops are priced net of their own passes, so the
    census adds each pass exactly once (a rescale chain of j switches
    is j divide-and-round steps, an inverse pass over the j dropped
    primes and a forward pass at the target level). *)

(** {1 Pricing} *)

type priced = {
  phase_s : (string * float) list;
      (** seconds per protocol phase, parties merged, in protocol order —
          the analytic counterpart of [Protocol.result.phase_seconds] *)
  party_s : (string * float) list;  (** seconds per party, in phase order *)
  compute_s : float;
      (** compute critical path: the protocol is a strict sequential
          exchange, so this is the in-order sum over all phases *)
  wire_s : float;  (** [timeline.end_to_end_s]: zero on loopback *)
  total_s : float;  (** [compute_s + wire_s] *)
  timeline : Clock.timeline;
      (** the {!Clock} replay of the predicted transcript *)
}

val price :
  unit_costs:unit_costs -> ?profile:Profile.t -> prediction -> priced
(** The one way a prediction becomes seconds: every phase ledger priced
    with {!predict_seconds}, and the symbolic transcript replayed under
    [profile] (default {!Profile.loopback}, whose wire time is
    zero).  Rounds and bytes agree {e exactly} with the replay of a live
    run's transcript (the symbolic transcript mirrors the live message
    structure); only the compute split depends on the calibrated unit
    costs. *)

(** {1 Unit-cost model}

    One calibration table is measured at a single parameter set, but the
    planner prices candidates at other ring degrees and chain lengths.
    Each op kind has a known analytic work shape in (ring degree [n],
    active primes [level]) — see {!op_basis} — so a measured table pins a
    seconds-per-work-unit scale per op ({!fit_unit_model}, least squares
    through the origin over the table's populated cells), and
    {!unit_costs_for} re-evaluates the basis at any target shape. *)

type unit_model = { scales : float array }
(** Seconds per work unit, indexed by [Util.Counters.op_index]. *)

val op_basis : n:int -> level:int -> Util.Counters.op -> float
(** Analytic work of one op: [level·n] for pointwise ops
    (add/mul/level-drop), [level·n·lg n] for NTT-bound ops
    (encrypt/decrypt/mul_plain/modswitch), [level²·n·lg n] for key
    switching (the digit count grows with the modulus), [n·lg n] for the
    level-free slot ops (level 0 reads as 1). *)

val fit_unit_model : n:int -> unit_costs -> unit_model
(** Fit per-op scales to a table measured at ring degree [n]. Ops with
    no populated cells get scale 0 (their synthesized costs read 0). *)

val unit_costs_for : unit_model -> n:int -> levels:int -> unit_costs
(** Synthesize a full table for a chain of [levels] primes at ring
    degree [n]: cell [(op, level)] = scale × basis. *)
