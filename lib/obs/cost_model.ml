(* The analytic model of a query path: a symbolic executor that walks
   the exact circuit each path runs (lib/core/entities.ml +
   protocol.ml) on Noise_model states instead of ciphertexts.  One walk
   yields the op-kind × BGV-level ledger cells (Util.Counters) the
   instrumented scheme records, the transcript with its byte sizes, and
   the noise report the deploy-time guard and the planner read.

   Exactness is the contract: the test suite asserts
   [Counters.equal_ledger] between a prediction and a measured run on
   every preset.  That only holds because every branch the live circuit
   takes on a noise bound (rescale_to_floor loop trips, the level-drop
   rules) is decided here by the same float arithmetic:

   - every noise, size and level-drop formula is Noise_model's, and
     Bgv and the live circuit call the same functions;
   - the one secret scalar with a bound, the mask's leading
     coefficient, is charged live at the same public bound the caller
     supplies here (mask_leading_bits), so no decision depends on a
     drawn value.

   The level-0 row of the ledger holds the slot pack/unpack NTTs mod t,
   exactly as Plaintext records them. *)

module C = Util.Counters
module NM = Util.Noise_model

type params = {
  nm : NM.params;
  q_ibits : int array;
  n_points : int;
  d : int;
  k : int;
  per_coordinate : bool;
  mask_degree : int;
  mask_leading_bits : float;
  rescale_distances : bool;
  return_level : int;
  use_relin : bool;
  relin_digit_bits : int;
  relin_rows : int;
  slots : int;
}

type path = Plain | Packed of int

type phase = { phase : string; party : string; counters : C.t }

type prediction = {
  phases : phase list;
  party_a : C.t;
  party_b : C.t;
  client : C.t;
  ab_bytes : int;
  transcript : Transcript.t;
  noise : NM.report;
}

let full_level p = NM.chain_length p.nm
let return_level p = Stdlib.min p.return_level (full_level p)

(* ------------------------------------------------------------------ *)
(* Symbolic Bgv: Noise_model states + ledger recording                 *)
(* ------------------------------------------------------------------ *)

(* Where a symbolic op records: its phase's ledger and its party's
   total, each entry counted [times] times.  Every point (or slot
   batch) of a phase runs the same circuit on the same symbolic states,
   so each walk evaluates one representative and [repeat] scales what
   it records.  That keeps a prediction O(d + n) and gives the noise
   report a one-point step list. *)
type tally = { phase_c : C.t; party_c : C.t; times : int }

let record_op ?(n = 1) t op ~level =
  C.record_op_n t.phase_c op ~level (n * t.times);
  C.record_op_n t.party_c op ~level (n * t.times)

let repeat t ~times f = f { t with times = t.times * times }

(* Each operation mirrors the recording discipline of the matching
   Bgv/Plaintext entry point: primary op cell and the whole-polynomial
   NTT passes it triggers. *)

(* Bgv.encrypt: u and the two fused component embeddings each run one
   forward NTT set. *)
let enc p c ~level =
  record_op c C.Op_encrypt ~level;
  record_op ~n:3 c C.Op_ntt_fwd ~level;
  NM.fresh_at p.nm ~level

(* Full decrypt: the sk dot product leaves an Eval-domain accumulator,
   so presenting coefficients always costs one inverse pass. *)
let dec c (st : NM.state) =
  record_op c C.Op_decrypt ~level:st.NM.level;
  record_op c C.Op_ntt_inv ~level:st.NM.level

(* decrypt_coeff0 reads the evaluation-domain residues directly. *)
let dec0 c (st : NM.state) =
  record_op c C.Op_decrypt ~level:st.NM.level

let add c a b =
  record_op c C.Op_ct_add ~level:(Stdlib.min a.NM.level b.NM.level);
  NM.add a b

let sub = add

(* Bgv.embed: one forward NTT set at the level. *)
let embed c ~level = record_op c C.Op_ntt_fwd ~level

(* Bgv.add_embedded and each term of Bgv.mul_plain_sums: no transform.
   Bgv.add_plain and Bgv.mul_plain embed their plaintext first. *)
let add_embedded p c st =
  record_op c C.Op_ct_add ~level:st.NM.level;
  NM.add_plain p.nm st

let mul_embedded p c st =
  record_op c C.Op_mul_plain ~level:st.NM.level;
  NM.mul_plain p.nm st

let add_plain p c st =
  embed c ~level:st.NM.level;
  add_embedded p c st

(* Bgv.add_const adds the scaled constant at every evaluation point:
   no transform. *)
let add_const p c st =
  record_op c C.Op_ct_add ~level:st.NM.level;
  NM.add_plain p.nm st

let mul_plain p c st =
  embed c ~level:st.NM.level;
  mul_embedded p c st

let mul_scalar c st ~bits =
  record_op c C.Op_mul_plain ~level:st.NM.level;
  NM.mul_scalar st ~bits

(* Bgv.rescale_to_floor: one modswitch cell per prime dropped, and one
   pair of NTT passes per component for the whole chain.  Every
   component is Eval (the scheme's invariant), so each pays an inverse
   pass over the dropped primes (a cell at level j for j drops) and a
   forward pass at the target level. *)
let rescale_to_floor p c (st : NM.state) =
  let switch nm (st : NM.state) =
    record_op c C.Op_modswitch ~level:st.NM.level;
    NM.modswitch nm st
  in
  let out = NM.rescale_to_floor ~switch p.nm st in
  if out.NM.level < st.NM.level then begin
    record_op ~n:(st.NM.degree + 1) c C.Op_ntt_inv ~level:(st.NM.level - out.NM.level);
    record_op ~n:(st.NM.degree + 1) c C.Op_ntt_fwd ~level:out.NM.level
  end;
  out

(* Recorded truncation (Bgv.truncate_to_level ~counters): a cell only
   when components are actually dropped. *)
let truncate c (st : NM.state) ~level =
  if level >= st.NM.level then st
  else begin
    record_op c C.Op_level_drop ~level;
    NM.truncate st ~level
  end

(* The silent alignments inside add/mul/mul_sum/eval_poly. *)
let truncate_silent (st : NM.state) ~level =
  if level >= st.NM.level then st else NM.truncate st ~level

let relinearize p c (st : NM.state) =
  let k = st.NM.level in
  record_op c C.Op_key_switch ~level:k;
  (* key_switch_digits: the tensor component is Eval, one inverse pass;
     then ndigits digit polynomials embed Coeff→Eval. *)
  let w = p.relin_digit_bits in
  let ndigits = Stdlib.min p.relin_rows ((p.q_ibits.(k - 1) + w - 1) / w) in
  record_op c C.Op_ntt_inv ~level:k;
  record_op ~n:ndigits c C.Op_ntt_fwd ~level:k;
  NM.key_switch p.nm st ~ndigits ~w

(* The tensor product, relinearised when the live call site passes
   [?rlk] — Return-kNN's row selection never does, whatever the
   configuration says.  A rescaling Bgv.mul is this followed by
   [rescale_to_floor]. *)
let mul p c ~relin a b =
  record_op c C.Op_ct_mul ~level:(Stdlib.min a.NM.level b.NM.level);
  let st = NM.mul p.nm a b in
  if relin && st.NM.degree = 2 then relinearize p c st else st

(* Σ terms · (a·b) with every term the same symbolic pair — all the
   protocol's inner products are uniform.  Mirrors Bgv.mul_sum (and
   Bgv.sum_sq_diff after its differences): the bound is the scheme's
   term-order fold, and with [relin] the degree-2 sum is relinearised
   once. *)
let mul_sum p c ~terms ~relin a b =
  if terms < 1 then invalid_arg "Cost_model.mul_sum: terms must be positive";
  let lvl = Stdlib.min a.NM.level b.NM.level in
  record_op ~n:terms c C.Op_ct_mul ~level:lvl;
  record_op ~n:(terms - 1) c C.Op_ct_add ~level:lvl;
  let st = NM.mul_sum p.nm a b ~terms in
  if relin && st.NM.degree = 2 then relinearize p c st else st

(* Bgv.fold_monomials over [terms] inputs in state [st]: one mul_plain
   and one ct_add cell a Horner step, no transform; the bound is the
   add fold in term order. *)
let fold_monomials c ~terms (st : NM.state) =
  record_op ~n:(terms - 1) c C.Op_mul_plain ~level:st.NM.level;
  record_op ~n:(terms - 1) c C.Op_ct_add ~level:st.NM.level;
  let acc = ref st in
  for _ = 2 to terms do
    acc := NM.add !acc st
  done;
  !acc

let slot_pack c = record_op c C.Op_slot_pack ~level:0
let slot_unpack c = record_op c C.Op_slot_unpack ~level:0

(* Bgv.rerandomize ~flood_bits: an encryption of zero whose c0
   embedding also carries the flood (no transform of its own), and the
   addition. *)
let rerandomize p c (st : NM.state) =
  ignore (enc p c ~level:st.NM.level);
  record_op c C.Op_ct_add ~level:st.NM.level;
  NM.flood p.nm st ~flood_bits:(NM.flood_bits p.nm)

(* ------------------------------------------------------------------ *)
(* Per-path circuits                                                   *)
(* ------------------------------------------------------------------ *)

type sim = {
  p : params;
  mutable rev_phases : phase list;
  tr : Transcript.t;
  noise : NM.trace;
  party_a : C.t;
  party_b : C.t;
  client : C.t;
}

let step sim name st = NM.step sim.noise name st

(* A symbolic transcript message of [count] ciphertexts in state [st],
   with the same granularity and labels as the live [Protocol] sends —
   what makes the predicted transcript structurally comparable (and the
   Clock replay byte-exact) against a measured run. *)
let send sim ~sender ~receiver ~label ~count st =
  Transcript.send sim.tr ~sender ~receiver ~label
    ~bytes:(count * NM.ct_bytes sim.p.nm st)

let phase_counter sim ~phase ~party =
  let c = C.create () in
  sim.rev_phases <- { phase; party; counters = c } :: sim.rev_phases;
  let party_c =
    match party with
    | "party-a" -> sim.party_a
    | "party-b" -> sim.party_b
    | _ -> sim.client
  in
  { phase_c = c; party_c; times = 1 }

(* Horner evaluation with the protocol's masking polynomial: only the
   leading coefficient is applied as a scalar, the rest arrive through
   add_const.  [mask_leading_bits] bounds its centered magnitude. *)
let eval_poly sim c st =
  let p = sim.p in
  let d = p.mask_degree in
  if d = 0 then add_const p c (mul_scalar c st ~bits:0.0)
  else begin
    let acc = ref (step sim "mask-scale" (mul_scalar c st ~bits:p.mask_leading_bits)) in
    for i = d - 1 downto 0 do
      if i < d - 1 then begin
        let x = truncate_silent st ~level:(!acc).NM.level in
        let prod = mul p c ~relin:p.use_relin !acc x in
        acc := step sim "mask-rescale" (rescale_to_floor p c (step sim "mask-horner-mul" prod))
      end;
      acc := step sim "mask-shift" (add_const p c !acc)
    done;
    !acc
  end

(* The masked distances cross A->B as [count] ciphertexts in state
   [masked], and Party B decrypts each one. *)
let send_masked sim ~count ~decrypt masked =
  let masked = step sim "masked-distance" masked in
  send sim ~sender:Transcript.Party_a ~receiver:Transcript.Party_b
    ~label:"masked permuted distances" ~count masked;
  let cb = phase_counter sim ~phase:"find-neighbours" ~party:"party-b" in
  repeat cb ~times:count (fun c -> decrypt c masked)

(* Return-kNN + decrypt-result on the plain path: [k]
   scalar indicator rows against the stored packed points, which
   Bgv.mul_sum brings to the return level without a ledger cell. *)
let return_rows sim =
  let p = sim.p in
  let rl = return_level p in
  let ca = phase_counter sim ~phase:"return-knn" ~party:"party-a" in
  let cb = phase_counter sim ~phase:"return-knn" ~party:"party-b" in
  let packed_ret = truncate_silent (NM.fresh p.nm) ~level:rl in
  (* Each indicator row is n fresh return-level encryptions crossing
     B->A in one message, folded by A into one selected point. *)
  let row = repeat cb ~times:(p.k * p.n_points) (fun c -> enc p c ~level:rl) in
  let result =
    repeat ca ~times:p.k (fun c -> mul_sum p c ~terms:p.n_points ~relin:false packed_ret row)
  in
  for j = 1 to p.k do
    send sim ~sender:Transcript.Party_b ~receiver:Transcript.Party_a
      ~label:(Printf.sprintf "indicator vector B^%d" j)
      ~count:p.n_points row
  done;
  let result = step sim "result" result in
  let cc = phase_counter sim ~phase:"decrypt-result" ~party:"client" in
  send sim ~sender:Transcript.Party_a ~receiver:Transcript.Client
    ~label:"encrypted k-NN result" ~count:p.k result;
  repeat cc ~times:p.k (fun c -> dec c result)

(* Return-kNN on the packed path.  Party B encrypts one slot-packed
   indicator per block of ⌊N/d⌋ permuted positions and sends them in
   one message; Party A multiplies each by its plaintext block and
   floods the product; the client decrypts and slot-unpacks every
   block.  The counts depend on n, N and d only. *)
let return_blocks sim =
  let p = sim.p in
  let rl = return_level p in
  let per = p.slots / p.d in
  let blocks = (p.n_points + per - 1) / per in
  let ca = phase_counter sim ~phase:"return-knn" ~party:"party-a" in
  let cb = phase_counter sim ~phase:"return-knn" ~party:"party-b" in
  let ind =
    repeat cb ~times:blocks (fun c ->
        slot_pack c;
        enc p c ~level:rl)
  in
  send sim ~sender:Transcript.Party_b ~receiver:Transcript.Party_a
    ~label:"indicator blocks" ~count:blocks ind;
  let result =
    repeat ca ~times:blocks (fun c ->
        slot_pack c;
        rerandomize p c (mul_plain p c ind))
  in
  let result = step sim "result" result in
  let cc = phase_counter sim ~phase:"decrypt-result" ~party:"client" in
  send sim ~sender:Transcript.Party_a ~receiver:Transcript.Client
    ~label:"encrypted k-NN result" ~count:blocks result;
  repeat cc ~times:blocks (fun c ->
      dec c result;
      slot_unpack c)

let encrypt_query sim ~level count =
  let p = sim.p in
  let cc = phase_counter sim ~phase:"encrypt-query" ~party:"client" in
  let fresh = repeat cc ~times:count (fun c -> enc p c ~level) in
  send sim ~sender:Transcript.Client ~receiver:Transcript.Party_a
    ~label:"encrypted query" ~count fresh;
  step sim "fresh-encrypt" fresh

(* Entities.Party_a.masked_inner_product on one point: the product of
   its fresh packed ciphertext with the reversed query, the ED combine
   with its fresh norm, the level drop (or the configured rescale), the
   mask and the zero-constant randomizer. *)
let masked_inner_product sim c q =
  let p = sim.p in
  let stored = NM.fresh p.nm in
  let ip = step sim "inner-product" (mul p c ~relin:p.use_relin stored q) in
  let ed = step sim "ed-combine" (sub c (add c stored q) (mul_scalar c ip ~bits:1.0)) in
  let ed =
    match
      NM.distance_level p.nm ~return_level:(return_level p) ~level:ed.NM.level
        ~bits:ed.NM.bits
    with
    | Some lvl when lvl < ed.NM.level -> step sim "truncate" (truncate c ed ~level:lvl)
    | Some _ -> ed
    | None when p.rescale_distances -> step sim "rescale-to-floor" (rescale_to_floor p c ed)
    | None -> ed
  in
  add_plain p c (eval_poly sim c ed)

(* The plain path: the query, one masked distance per point, B's
   decryptions and Return-kNN by rows.  A per-coordinate deployment runs
   Algorithm 1's square-sum on [d] coordinate ciphertexts, then folds
   each run of N permuted distances into one block, which B decrypts in
   full; a dot-product one meets the two-ciphertext inner-product query,
   at its public level, with its stored norms, and B reads each
   distance's coefficient 0. *)
let predict_plain sim =
  let p = sim.p in
  let per_coordinate = p.per_coordinate in
  let fresh =
    if per_coordinate then encrypt_query sim ~level:(full_level p) p.d
    else
      encrypt_query sim
        ~level:
          (Option.value ~default:(full_level p)
             (NM.inner_product_query_level p.nm ~return_level:(return_level p)))
        2
  in
  let ca = phase_counter sim ~phase:"compute-distances" ~party:"party-a" in
  let masked =
    repeat ca ~times:p.n_points (fun c ->
        if per_coordinate then begin
          (* Bgv.sum_sq_diff: d per-coordinate differences and their
             square-and-sum, then one deferred rescale chain and the
             masking polynomial. *)
          let diff = repeat c ~times:p.d (fun c -> sub c fresh fresh) in
          let ed = step sim "square-sum" (mul_sum p c ~terms:p.d ~relin:p.use_relin diff diff) in
          let ed =
            if p.rescale_distances then step sim "rescale-to-floor" (rescale_to_floor p c ed)
            else ed
          in
          eval_poly sim c ed
        end
        else masked_inner_product sim c fresh)
  in
  if per_coordinate then begin
    (* Bgv.fold_monomials per block of N permuted positions, the last
       holding what is left; the forecast follows the widest. *)
    let per = p.nm.NM.n in
    let blocks = (p.n_points + per - 1) / per in
    let last = fold_monomials ca ~terms:(p.n_points - ((blocks - 1) * per)) masked in
    let full = repeat ca ~times:(blocks - 1) (fun c -> fold_monomials c ~terms:per masked) in
    send_masked sim ~count:blocks ~decrypt:dec (if blocks > 1 then full else last)
  end
  else send_masked sim ~count:p.n_points ~decrypt:dec0 masked;
  return_rows sim

(* The packed path: a round of [queries] ≥ 1 packed queries under one
   Π.  The client encrypts every query at the public query level; per
   round, Party A slot-packs and embeds each batch's d columns and norms
   there once, then runs every query's circuit against them; B decrypts
   each query's batches. *)
let predict_packed sim ~queries =
  let p = sim.p in
  if queries < 1 then invalid_arg "Cost_model.predict: empty batch";
  let drop = NM.packed_query_level p.nm ~return_level:(return_level p) ~d:p.d in
  let level = Option.value drop ~default:(full_level p) in
  let q = encrypt_query sim ~level (queries * (p.d + 1)) in
  let ca = phase_counter sim ~phase:"compute-distances" ~party:"party-a" in
  let nbatches = (p.n_points + p.slots - 1) / p.slots in
  repeat ca ~times:(nbatches * (p.d + 1)) (fun c ->
      slot_pack c;
      embed c ~level);
  let masked =
    repeat ca ~times:(queries * nbatches) (fun c ->
        (* Bgv.mul_plain_sums: d products folded in term order. *)
        let ip = ref (mul_embedded p c q) in
        for _ = 2 to p.d do
          ip := add c !ip (mul_embedded p c q)
        done;
        let ip = step sim "coordinate-sum" !ip in
        let ed = step sim "ed-combine" (sub c (add_embedded p c q) (mul_scalar c ip ~bits:1.0)) in
        let ed =
          if drop = None && p.rescale_distances then
            step sim "rescale-to-floor" (rescale_to_floor p c ed)
          else ed
        in
        eval_poly sim c ed)
  in
  (* The ragged tail batch also masks its dead slots. *)
  let masked =
    if p.n_points mod p.slots = 0 then masked
    else
      repeat ca ~times:queries (fun c ->
          slot_pack c;
          add_plain p c masked)
  in
  send_masked sim ~count:(queries * nbatches) masked ~decrypt:(fun c st ->
      dec c st;
      slot_unpack c);
  return_blocks sim

let predict ?margin_bits p path =
  if p.n_points < 1 then invalid_arg "Cost_model.predict: empty database";
  if p.d < 1 then invalid_arg "Cost_model.predict: dimension < 1";
  if p.k < 1 || p.k > p.n_points then invalid_arg "Cost_model.predict: k out of range";
  let sim =
    { p; rev_phases = []; tr = Transcript.create (); noise = NM.start p.nm;
      party_a = C.create (); party_b = C.create (); client = C.create () }
  in
  (match path with
   | Plain -> predict_plain sim
   | Packed queries -> predict_packed sim ~queries);
  { phases = List.rev sim.rev_phases;
    party_a = sim.party_a;
    party_b = sim.party_b;
    client = sim.client;
    ab_bytes = Transcript.bytes_between sim.tr Transcript.Party_a Transcript.Party_b;
    transcript = sim.tr;
    noise = NM.report ?margin_bits sim.noise }

(* ------------------------------------------------------------------ *)
(* Calibrated time prediction                                          *)
(* ------------------------------------------------------------------ *)

type unit_costs = float array array

(* Every cell is priced, the NTT census rows included: a composite
   op's unit cost is net of the passes it records, so a rescale chain
   of j switches costs j divide-and-round steps plus the one round trip
   its census holds. *)
let predict_seconds ~unit_costs counters =
  List.fold_left
    (fun acc (op, level, count) ->
      let i = C.op_index op in
      if i < Array.length unit_costs && level < Array.length unit_costs.(i) then
        acc +. (float_of_int count *. unit_costs.(i).(level))
      else acc)
    0.0
    (C.ledger_entries counters)

(* ------------------------------------------------------------------ *)
(* Pricing a prediction                                                *)
(* ------------------------------------------------------------------ *)

type priced = {
  phase_s : (string * float) list;
  party_s : (string * float) list;
  compute_s : float;
  wire_s : float;
  total_s : float;
  timeline : Clock.timeline;
}

(* Add [s] to [key]'s running total; keys keep their first-seen order. *)
let accumulate totals key s =
  if List.mem_assoc key totals then
    List.map (fun (k, acc) -> if k = key then (k, acc +. s) else (k, acc)) totals
  else totals @ [ (key, s) ]

(* The protocol is a strict sequential exchange — every phase waits for
   the previous phase's message — so the compute critical path is the
   in-order sum of all phases, split per phase and per party for the
   breakdowns; the wire term is the Clock replay of the predicted
   transcript (serialization + the causal chain of RTT/2 hops, i.e.
   rounds × RTT + bytes/bandwidth), zero on loopback.  Rounds and bytes
   agree exactly with a live run's replay because the symbolic
   transcript reproduces the live message structure; the time split
   only disagrees through the calibrated unit costs. *)
let price ~unit_costs ?(profile = Profile.loopback) pred =
  let phases =
    List.map (fun ph -> (ph, predict_seconds ~unit_costs ph.counters)) pred.phases
  in
  let split key = List.fold_left (fun acc (ph, s) -> accumulate acc (key ph) s) [] phases in
  let compute_s = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 phases in
  let timeline = Clock.replay profile pred.transcript in
  let wire_s = timeline.Clock.end_to_end_s in
  { phase_s = split (fun ph -> ph.phase);
    party_s = split (fun ph -> ph.party);
    compute_s;
    wire_s;
    total_s = compute_s +. wire_s;
    timeline }

(* ------------------------------------------------------------------ *)
(* Unit-cost model: extrapolating one calibration across (n, chain)    *)
(* ------------------------------------------------------------------ *)

(* The planner prices candidate parameter sets at ring degrees and chain
   lengths that were never calibrated.  Each op kind has a known analytic
   work shape in (ring degree, active primes) — NTT-bound ops scale as
   level·n·lg n, pointwise ops as level·n, key switching as level²·n·lg n
   because the digit count grows with the modulus — so one measured table
   pins a single seconds-per-work-unit scale per op, and any other shape
   is priced by re-evaluating the basis. *)

type unit_model = { scales : float array }

let op_basis ~n ~level op =
  let fn = float_of_int n in
  let lg = NM.log2 fn in
  let lvl = float_of_int (Stdlib.max 1 level) in
  match op with
  | C.Op_ct_add | C.Op_ct_mul | C.Op_level_drop -> lvl *. fn
  | C.Op_encrypt | C.Op_decrypt | C.Op_mul_plain | C.Op_modswitch
  | C.Op_ntt_fwd | C.Op_ntt_inv ->
    lvl *. fn *. lg
  | C.Op_key_switch -> lvl *. lvl *. fn *. lg
  | C.Op_slot_pack | C.Op_slot_unpack -> fn *. lg

let fit_unit_model ~n (costs : unit_costs) =
  let scales = Array.make C.num_ops 0.0 in
  Array.iter
    (fun op ->
      let i = C.op_index op in
      if i < Array.length costs then begin
        let num = ref 0.0 and den = ref 0.0 in
        Array.iteri
          (fun level c ->
            if c > 0.0 then begin
              let b = op_basis ~n ~level op in
              num := !num +. (c *. b);
              den := !den +. (b *. b)
            end)
          costs.(i);
        if !den > 0.0 then scales.(i) <- !num /. !den
      end)
    C.all_ops;
  { scales }

let unit_costs_for model ~n ~levels =
  let costs = Array.make_matrix C.num_ops (Stdlib.max 1 levels + 1) 0.0 in
  Array.iter
    (fun op ->
      let i = C.op_index op in
      let s = model.scales.(i) in
      if s > 0.0 then
        match op with
        | C.Op_slot_pack | C.Op_slot_unpack ->
          costs.(i).(0) <- s *. op_basis ~n ~level:0 op
        | _ ->
          for level = 1 to levels do
            costs.(i).(level) <- s *. op_basis ~n ~level op
          done)
    C.all_ops;
  costs
