(* The system under test: the benchmark's only window onto the secure
   k-NN library (lib/) and the kernel microbenchmarks (bench/kernels).
   Every other perfbench module sees plain records, so a change to a
   library signature touches this file alone.  The protocol is driven
   only through Protocol's public entry points, at one domain. *)

module Rng = Util.Rng
module Counters = Util.Counters
module Obs = Sknn_obs.Ctx
module Otrace = Sknn_obs.Trace
module Metrics = Sknn_obs.Metrics

type workload = Plain_k2 | Packed_k20 | Batch8_k2

let workloads = [ ("plain-k2", Plain_k2); ("packed-k20", Packed_k20); ("batch8-k2", Batch8_k2) ]
let k = function Plain_k2 | Batch8_k2 -> 2 | Packed_k20 -> 20
let batch = function Batch8_k2 -> 8 | Plain_k2 | Packed_k20 -> 1

(* plain-k2 runs the paper's per-coordinate layout with its degree-2
   mask; the packed paths need an affine mask. *)
let config = function
  | Plain_k2 -> Config.standard ()
  | Packed_k20 | Batch8_k2 -> Config.with_mask_degree 1 (Config.standard ())

let slot_count wl = Params.slot_count (config wl).Config.bgv

(* Slots computed per useful distance slot: Party A sends n one-value
   ciphertexts on the plain path, ceil(n/slots) full ones on the packed
   path and n ciphertexts carrying one slot per batched query. *)
let slot_fill wl ~n =
  let slots = slot_count wl in
  let cts = match wl with Packed_k20 -> (n + slots - 1) / slots | Plain_k2 | Batch8_k2 -> n in
  float_of_int (n * batch wl) /. float_of_int (cts * slots)

(* The fig3 workload at its default scale: half of the 858-row
   cervical-cancer shape, 32 columns scaled to [0, 255]. *)
let db_rows = 429

let make_inputs ~seed ~stream =
  let rng = Rng.of_int seed in
  let db =
    Preprocess.scale_to_max ~max_value:255 (Uci_like.cervical_cancer ~n:db_rows (Rng.split rng))
  in
  let qrng = Rng.split rng in
  (db, Array.init stream (fun _ -> Synthetic.query_like qrng db))

(* ------------------------------------------------------------------ *)
(* Exact counts                                                         *)
(* ------------------------------------------------------------------ *)

type counts = {
  a_to_b : int;
  b_to_a : int;
  client_bytes : int;  (* both directions of the client's link *)
  total_bytes : int;
  messages : int;
  ab_rounds : int;
  ledger : (string * string * int * int) list;  (* party, op, level, count *)
}

let ledger_rows party c =
  List.map (fun (op, level, n) -> (party, Counters.op_name op, level, n)) (Counters.ledger_entries c)

let transcript_counts tr ledger =
  let dir s r =
    List.fold_left
      (fun acc (e : Transcript.entry) ->
        if e.Transcript.sender = s && e.Transcript.receiver = r then acc + e.Transcript.bytes
        else acc)
      0 (Transcript.entries tr)
  in
  let open Transcript in
  { a_to_b = dir Party_a Party_b;
    b_to_a = dir Party_b Party_a;
    client_bytes = bytes_between tr Client Party_a;
    total_bytes = total_bytes tr;
    messages = messages tr;
    ab_rounds = rounds tr Party_a Party_b;
    ledger }

(* ------------------------------------------------------------------ *)
(* Setup                                                                *)
(* ------------------------------------------------------------------ *)

type deployment = { dep : Protocol.deployment; wl : workload; owner : Counters.t }

(* [deploy] plus, on the packed workloads, [prepare_packed]: a
   deployment ready for steady-state queries. *)
let setup ?(obs = Obs.disabled) wl ~db ~seed =
  let owner = Counters.create () in
  let dep = Protocol.deploy ~obs ~rng:(Rng.of_int seed) ~counters:owner ~jobs:1 (config wl) ~db in
  (match wl with Plain_k2 -> () | Packed_k20 | Batch8_k2 -> Protocol.prepare_packed ~obs dep);
  if Protocol.jobs dep <> 1 then failwith "perfbench: deployment is not single-domain";
  { dep; wl; owner }

let setup_counts d =
  transcript_counts (Protocol.setup_transcript d.dep) (ledger_rows "data-owner" d.owner)

let owner_encryptions d = Counters.encryptions d.owner

type setup_spans = { setup_s : float; keygen_s : float; encrypt_db_s : float }

(* A setup inside one benchmark span; the data owner's keygen and
   encrypt-db phase spans come from the library's existing tracing. *)
let setup_traced wl ~db ~seed =
  let trace = Otrace.create () in
  let obs = Obs.create ~trace () in
  let d = Obs.with_span obs ~kind:Otrace.Root "perfbench.setup" (fun () -> setup ~obs wl ~db ~seed) in
  match Otrace.roots trace with
  | [ root ] ->
    let phase name =
      List.fold_left
        (fun acc (s : Otrace.span) -> if s.Otrace.name = name then acc +. s.Otrace.dur_s else acc)
        0.0 root.Otrace.children
    in
    (d, { setup_s = root.Otrace.dur_s; keygen_s = phase "keygen"; encrypt_db_s = phase "encrypt-db" })
  | _ -> failwith "perfbench: setup trace lost its root span"

(* ------------------------------------------------------------------ *)
(* Rounds                                                               *)
(* ------------------------------------------------------------------ *)

(* One protocol round: one query, or one slot batch on batch8-k2.  The
   round's results share one transcript and one set of counters. *)
type round = Protocol.result array

let run_round ?(obs = Obs.disabled) d ~queries ~rng_seed =
  let rng = Rng.of_int rng_seed and k = k d.wl in
  match d.wl with
  | Plain_k2 -> [| Protocol.query ~obs ~rng d.dep ~query:queries.(0) ~k |]
  | Packed_k20 -> [| Protocol.query_packed ~obs ~rng d.dep ~query:queries.(0) ~k |]
  | Batch8_k2 -> Protocol.query_batch ~obs ~rng d.dep ~queries ~k

let answers (r : round) = Array.map (fun (x : Protocol.result) -> x.Protocol.neighbours) r

let counts (r : round) =
  let x = r.(0) in
  transcript_counts x.Protocol.transcript
    (ledger_rows "client" x.Protocol.counters_client
    @ ledger_rows "party-a" x.Protocol.counters_a
    @ ledger_rows "party-b" x.Protocol.counters_b)

(* Virtual seconds of the round's transcript under the LAN and WAN
   profiles: computed from the bytes, not measured on a network. *)
let wire_seconds (r : round) =
  let replay p = (Clock.replay p r.(0).Protocol.transcript).Clock.end_to_end_s in
  (replay Profile.lan, replay Profile.wan)

type span_totals = {
  round_s : float;  (* the benchmark span around the Protocol call *)
  phases : (string * float) list;  (* the library's phase spans, by name *)
  stages : (string * float) list;  (* stage spans summed by name *)
  chunks : (string * float) list;  (* pool-chunk spans summed by label *)
  min_noise_bits : float;  (* tightest min_noise_budget_bits gauge *)
}

let add_to tbl key v = Hashtbl.replace tbl key (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl key))
let sorted_bindings tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let chunk_label name = match String.index_opt name '[' with Some i -> String.sub name 0 i | None -> name

let span_totals trace metrics =
  match Otrace.roots trace with
  | [ root ] ->
    let stages = Hashtbl.create 16 and chunks = Hashtbl.create 8 in
    let rec walk (s : Otrace.span) =
      (match s.Otrace.kind with
       | Otrace.Stage -> add_to stages s.Otrace.name s.Otrace.dur_s
       | Otrace.Chunk -> add_to chunks (chunk_label s.Otrace.name) s.Otrace.dur_s
       | Otrace.Root | Otrace.Phase -> ());
      List.iter walk s.Otrace.children
    in
    List.iter walk root.Otrace.children;
    let min_noise =
      List.fold_left
        (fun acc name ->
          if String.ends_with ~suffix:".min_noise_budget_bits" name then
            match Metrics.gauge_value (Metrics.gauge metrics name) with
            | Some v -> Float.min acc v
            | None -> acc
          else acc)
        infinity (Metrics.names metrics)
    in
    { round_s = root.Otrace.dur_s;
      phases =
        List.filter_map
          (fun (s : Otrace.span) ->
            if s.Otrace.kind = Otrace.Phase then Some (s.Otrace.name, s.Otrace.dur_s) else None)
          root.Otrace.children;
      stages = sorted_bindings stages;
      chunks = sorted_bindings chunks;
      min_noise_bits = min_noise }
  | _ -> failwith "perfbench: round trace lost its root span"

(* A round under a fresh trace and metrics registry, wrapped in one
   benchmark span; the library records its own spans below it. *)
let run_round_traced d ~queries ~rng_seed =
  let trace = Otrace.create () and metrics = Metrics.create () in
  let obs = Obs.create ~trace ~metrics () in
  let r =
    Obs.with_span obs ~kind:Otrace.Root "perfbench.round" (fun () ->
        run_round ~obs d ~queries ~rng_seed)
  in
  (r, span_totals trace metrics)

(* ------------------------------------------------------------------ *)
(* Calibration                                                          *)
(* ------------------------------------------------------------------ *)

(* Seconds per ledger op, per (op, level) cell, measured on the
   workload's own parameter set by the existing calibration pass. *)
type unit_costs = string -> int -> float

let calibrate wl : unit_costs =
  let costs = Kernel_bench.Calibration.measure (config wl).Config.bgv in
  let by_name = Hashtbl.create 16 in
  Array.iter (fun op -> Hashtbl.replace by_name (Counters.op_name op) (Counters.op_index op)) Counters.all_ops;
  fun op level ->
    match Hashtbl.find_opt by_name op with
    | Some i when level >= 0 && level < Array.length costs.(i) -> costs.(i).(level)
    | _ -> 0.0

(* NTT passes and the ring product at the protocol's ring size (n=64,
   30-bit primes, the standard preset's 10-prime chain). *)
let kernel_ns () =
  let rng = Rng.create 42L and target = 0.1 in
  let results =
    Kernel_bench.ntt_suite ~target rng ~n:64 ~bits:30
    @ Kernel_bench.rq_suite ~target rng ~n:64 ~bits:30 ~chain:10
  in
  let ns name =
    match List.find_opt (fun (r : Kernel_bench.result) -> r.Kernel_bench.name = name) results with
    | Some r -> r.Kernel_bench.ns_per_op
    | None -> failwith ("perfbench: kernel " ^ name ^ " not measured")
  in
  (ns "ntt-forward", ns "ntt-inverse", ns "rq-mul")
