(* Tests for the observability layer (Sknn_obs): span trees, counter
   deltas, sink well-formedness, the metrics registry, the leakage-audit
   channel — and the PR 1 determinism invariant extended to tracing:
   the non-chunk span tree is bit-identical for every job count. *)

module Rng = Util.Rng
module Counters = Util.Counters
module Trace = Sknn_obs.Trace
module Metrics = Sknn_obs.Metrics
module Audit = Sknn_obs.Audit
module Ctx = Sknn_obs.Ctx
module Flight = Sknn_obs.Flight
module NM = Util.Noise_model
module Report = Sknn_obs.Report

(* ------------------------------------------------------------------ *)
(* Trace core                                                          *)
(* ------------------------------------------------------------------ *)

let test_trace_disabled_passthrough () =
  let t = Trace.disabled in
  Alcotest.(check bool) "disabled" false (Trace.is_enabled t);
  let x = Trace.with_span t "phase" (fun () -> 41 + 1) in
  Alcotest.(check int) "value passes through" 42 x;
  Trace.add_complete t ~name:"chunk" ~start:0.0 ~dur:1.0 ();
  Alcotest.(check int) "no spans recorded" 0 (List.length (Trace.roots t))

let test_trace_nesting () =
  let t = Trace.create () in
  let v =
    Trace.with_span t ~kind:Trace.Phase "outer" (fun () ->
        let a = Trace.with_span t "inner-1" (fun () -> 1) in
        let b = Trace.with_span t "inner-2" (fun () -> 2) in
        Trace.add_complete t ~name:"leaf" ~args:[ ("worker", "0") ]
          ~start:(Util.Timer.counter ()) ~dur:0.001 ();
        a + b)
  in
  Alcotest.(check int) "value" 3 v;
  match Trace.roots t with
  | [ root ] ->
    Alcotest.(check string) "root name" "outer" root.Trace.name;
    Alcotest.(check string) "root kind" "phase" (Trace.kind_name root.Trace.kind);
    Alcotest.(check (list string)) "children in completion order"
      [ "inner-1"; "inner-2"; "leaf" ]
      (List.map (fun s -> s.Trace.name) root.Trace.children);
    Alcotest.(check bool) "durations non-negative" true
      (root.Trace.dur_s >= 0.0
       && List.for_all (fun s -> s.Trace.dur_s >= 0.0) root.Trace.children)
  | roots -> Alcotest.failf "expected one root, got %d" (List.length roots)

let test_trace_counter_deltas () =
  let t = Trace.create () in
  let c = Counters.create () in
  Counters.record_op c Counters.Op_encrypt ~level:1; (* pre-span noise, must not leak in *)
  Trace.with_span t ~counters:[ ("party", c) ] "work" (fun () ->
      Counters.record_op c Counters.Op_ct_mul ~level:1;
      Counters.record c (Counters.Bytes_sent 10));
  Trace.with_span t ~counters:[ ("party", c) ] "idle" (fun () -> ());
  match Trace.roots t with
  | [ work; idle ] ->
    (match work.Trace.deltas with
     | [ ("party", d) ] ->
       Alcotest.(check int) "delta muls" 1 (Counters.hom_muls d);
       Alcotest.(check int) "delta bytes" 10 (Counters.bytes_sent d);
       Alcotest.(check int) "pre-span encrypt excluded" 0 (Counters.encryptions d)
     | _ -> Alcotest.fail "expected one delta on work span");
    Alcotest.(check int) "zero delta omitted" 0 (List.length idle.Trace.deltas)
  | _ -> Alcotest.fail "expected two roots"

let test_trace_span_survives_raise () =
  let t = Trace.create () in
  (try
     Trace.with_span t "boom" (fun () -> failwith "expected")
   with Failure _ -> ());
  Alcotest.(check (list string)) "span recorded despite raise" [ "boom" ]
    (List.map (fun s -> s.Trace.name) (Trace.roots t))

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let assert_valid_json name s =
  match Util.Json.of_string s with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "%s: invalid JSON (%s)" name msg

(* One traced round on [path]: the paper's standard preset on the plain
   path, its affine-mask variant on the others. *)
let traced_round ~path ~jobs =
  let db = Synthetic.uniform (Rng.of_int 77) ~n:18 ~d:3 ~max_value:100 in
  let queries =
    match path with
    | Sknn_obs.Cost_model.Packed m -> Array.init m (fun i -> [| 10 + i; 20; 30 - i |])
    | _ -> [| [| 10; 20; 30 |] |]
  in
  let config =
    match path with
    | Sknn_obs.Cost_model.Plain -> Config.standard ()
    | _ -> Config.with_mask_degree 1 (Config.standard ())
  in
  let trace = Trace.create () in
  let audit = Audit.create () in
  let flight = Flight.create () in
  let obs = Ctx.create ~trace ~audit ~flight () in
  let dep = Protocol.deploy ~obs ~rng:(Rng.of_int 999) ~jobs config ~db in
  let rs = Protocol.query_gen ~path ~obs ~rng:(Rng.of_int 1000) dep ~queries ~k:3 in
  (trace, audit, flight, rs)

let traced_run ~jobs =
  let trace, audit, flight, rs = traced_round ~path:Sknn_obs.Cost_model.Plain ~jobs in
  (trace, audit, flight, rs.(0))

let with_temp_file f =
  let path = Filename.temp_file "sknn_obs_test" ".json" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () ->
      f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let test_sink_chrome () =
  let trace, _, _, _ = traced_run ~jobs:2 in
  with_temp_file (fun path ->
      let oc = open_out path in
      Trace.write trace Trace.Chrome oc;
      close_out oc;
      let s = read_file path in
      assert_valid_json "chrome trace" s;
      Alcotest.(check bool) "has traceEvents" true
        (contains ~sub:"\"traceEvents\"" s))

let test_sink_jsonl () =
  let trace, _, _, _ = traced_run ~jobs:2 in
  with_temp_file (fun path ->
      let oc = open_out path in
      Trace.write trace Trace.Jsonl oc;
      close_out oc;
      let lines =
        String.split_on_char '\n' (read_file path)
        |> List.filter (fun l -> String.trim l <> "")
      in
      Alcotest.(check bool) "several lines" true (List.length lines > 5);
      List.iteri
        (fun i line -> assert_valid_json (Printf.sprintf "jsonl line %d" i) line)
        lines)

let test_sink_pretty_and_format_names () =
  let trace, _, _, _ = traced_run ~jobs:1 in
  let s = Format.asprintf "%a" Trace.pp_tree trace in
  Alcotest.(check bool) "mentions a phase" true
    (contains ~sub:"compute-distances" s);
  List.iter
    (fun (name, ok) ->
      Alcotest.(check bool) name ok
        (match Trace.format_of_string name with Ok _ -> true | Error _ -> false))
    [ ("chrome", true); ("jsonl", true); ("pretty", true); ("perfetto", true);
      ("tree", true); ("bogus", false) ]

(* ------------------------------------------------------------------ *)
(* Determinism across job counts                                       *)
(* ------------------------------------------------------------------ *)

(* Render the span tree with Chunk spans removed and timings zeroed:
   names, kinds, nesting, args and counter deltas — everything that must
   be bit-identical across job counts. *)
let shape trace =
  let buf = Buffer.create 1024 in
  let rec go depth (s : Trace.span) =
    if s.Trace.kind <> Trace.Chunk then begin
      Buffer.add_string buf
        (Printf.sprintf "%*s%s kind=%s args=[%s] deltas=[%s]\n" (2 * depth) ""
           s.Trace.name
           (Trace.kind_name s.Trace.kind)
           (String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) s.Trace.args))
           (String.concat ";"
              (List.map
                 (fun (owner, d) ->
                   owner ^ ":"
                   ^ String.concat ","
                       (List.filter_map
                          (fun (k, v) ->
                            if v = 0 then None else Some (Printf.sprintf "%s=%d" k v))
                          (Counters.to_list d)))
                 s.Trace.deltas)));
      List.iter (go (depth + 1)) s.Trace.children
    end
  in
  List.iter (go 0) (Trace.roots trace);
  Buffer.contents buf

let audit_s a =
  Format.asprintf "%a" Audit.pp a

let test_span_tree_jobs_determinism () =
  List.iter
    (fun (name, path) ->
      let check what = Alcotest.(check string) (name ^ ": " ^ what) in
      let t1, a1, _, rs1 = traced_round ~path ~jobs:1 in
      let t2, a2, _, rs2 = traced_round ~path ~jobs:2 in
      let t4, a4, _, rs4 = traced_round ~path ~jobs:4 in
      let s1 = shape t1 and s2 = shape t2 and s4 = shape t4 in
      check "span tree: jobs 1 = jobs 2" s1 s2;
      check "span tree: jobs 1 = jobs 4" s1 s4;
      Alcotest.(check bool) (name ^ ": tree is non-trivial") true (String.length s1 > 100);
      check "audit: jobs 1 = jobs 2" (audit_s a1) (audit_s a2);
      check "audit: jobs 1 = jobs 4" (audit_s a1) (audit_s a4);
      let neighbours rs = Array.map (fun r -> r.Protocol.neighbours) rs in
      Alcotest.(check bool) (name ^ ": results identical") true
        (neighbours rs1 = neighbours rs2 && neighbours rs1 = neighbours rs4);
      let r1 = rs1.(0) and r4 = rs4.(0) in
      let cs c = Format.asprintf "%a" Counters.pp c in
      check "counters identical (A)" (cs r1.Protocol.counters_a) (cs r4.Protocol.counters_a);
      check "counters identical (B)" (cs r1.Protocol.counters_b) (cs r4.Protocol.counters_b);
      check "counters identical (client)" (cs r1.Protocol.counters_client)
        (cs r4.Protocol.counters_client);
      check "transcript identical"
        (Format.asprintf "%a" Transcript.pp r1.Protocol.transcript)
        (Format.asprintf "%a" Transcript.pp r4.Protocol.transcript))
    [ ("plain", Sknn_obs.Cost_model.Plain); ("packed", Sknn_obs.Cost_model.Packed 1);
      ("batch", Sknn_obs.Cost_model.Packed 3) ]

let test_chunk_spans_partition () =
  (* At jobs=2 the "distance-batches" stage must carry exactly 2 chunk
     spans partitioning [0, n). *)
  let t2, _, _, _ = traced_run ~jobs:2 in
  let chunks = ref [] in
  let rec collect under (s : Trace.span) =
    let here = under || s.Trace.name = "distance-batches" in
    if here && s.Trace.kind = Trace.Chunk then chunks := s :: !chunks;
    List.iter (collect here) s.Trace.children
  in
  List.iter (collect false) (Trace.roots t2);
  let names = List.rev_map (fun s -> s.Trace.name) !chunks in
  Alcotest.(check (list string)) "two chunks in worker order"
    [ "distances[0,9)"; "distances[9,18)" ]
    names

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_metrics_counter_gauge () =
  let m = Metrics.create () in
  let c = Metrics.counter m "ops" in
  Metrics.inc c;
  Metrics.inc ~by:4 c;
  Alcotest.(check int) "counter" 5 (Metrics.counter_value c);
  Alcotest.(check int) "re-registration returns same instrument" 5
    (Metrics.counter_value (Metrics.counter m "ops"));
  let g = Metrics.gauge m "util" in
  Alcotest.(check bool) "gauge starts unset" true (Metrics.gauge_value g = None);
  Metrics.set g 0.75;
  Alcotest.(check (option (float 0.0))) "gauge set" (Some 0.75) (Metrics.gauge_value g)

let test_metrics_histogram () =
  let m = Metrics.create () in
  let h = Metrics.histogram ~buckets:[| 1.0; 10.0; 100.0 |] m "lat" in
  List.iter (Metrics.observe h) [ 0.5; 1.0; 5.0; 100.0; 1000.0 ];
  Alcotest.(check int) "count" 5 (Metrics.hist_count h);
  Alcotest.(check (float 1e-9)) "sum" 1106.5 (Metrics.hist_sum h);
  (* le(1)=2 (0.5 and the boundary 1.0), le(10)=1, le(100)=1, overflow=1 *)
  Alcotest.(check (array int)) "bucket counts" [| 2; 1; 1; 1 |] (Metrics.hist_counts h);
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Metrics.counter: \"lat\" registered with another kind")
    (fun () -> ignore (Metrics.counter m "lat"));
  Alcotest.(check bool) "non-increasing buckets rejected" true
    (try ignore (Metrics.histogram ~buckets:[| 2.0; 2.0 |] m "bad"); false
     with Invalid_argument _ -> true)

let test_metrics_names_sorted () =
  let m = Metrics.create () in
  ignore (Metrics.counter m "zeta");
  ignore (Metrics.gauge m "alpha");
  ignore (Metrics.histogram m "mid");
  Alcotest.(check (list string)) "sorted" [ "alpha"; "mid"; "zeta" ] (Metrics.names m)

(* ------------------------------------------------------------------ *)
(* Audit                                                               *)
(* ------------------------------------------------------------------ *)

let test_audit_basics () =
  let a = Audit.create () in
  Audit.observe a ~party:"party-b" ~phase:"p" ~label:"k" (Audit.Int 3);
  Audit.observe a ~party:"party-b" ~phase:"p" ~label:"ms" (Audit.Int64s [| 5L; 1L |]);
  Audit.observe a ~party:"party-a" ~phase:"q" ~label:"bytes" (Audit.Int 100);
  Audit.observe a ~party:"party-b" ~phase:"p2" ~label:"k" (Audit.Int 7);
  Alcotest.(check int) "entry count" 4 (List.length (Audit.entries a));
  Alcotest.(check (list string)) "labels sorted + deduped" [ "k"; "ms" ]
    (Audit.labels_for a ~party:"party-b");
  (match Audit.value_of a ~party:"party-b" ~label:"k" with
   | Some (Audit.Int v) -> Alcotest.(check int) "latest wins" 7 v
   | _ -> Alcotest.fail "expected Int");
  Alcotest.(check bool) "missing is None" true
    (Audit.value_of a ~party:"client" ~label:"k" = None);
  Alcotest.(check int) "for_party filters" 1
    (List.length (Audit.for_party a ~party:"party-a"))

(* ------------------------------------------------------------------ *)
(* Ctx                                                                 *)
(* ------------------------------------------------------------------ *)

let test_ctx_disabled () =
  let obs = Ctx.disabled in
  Alcotest.(check bool) "disabled" true (Ctx.is_disabled obs);
  Alcotest.(check int) "with_span passthrough" 9 (Ctx.with_span obs "x" (fun () -> 9));
  Alcotest.(check int) "with_pool_chunks passthrough" 8
    (Ctx.with_pool_chunks obs (fun () -> 8));
  Ctx.observe_phase obs "p" 1.0;
  Ctx.audit obs ~party:"a" ~phase:"p" ~label:"l" (Audit.Int 1);
  Alcotest.(check int) "no trace roots" 0 (List.length (Trace.roots (Ctx.trace obs)))

let test_ctx_pool_chunks () =
  let trace = Trace.create () in
  let m = Metrics.create () in
  let obs = Ctx.create ~trace ~metrics:m () in
  (* Each element does enough arithmetic for its chunk's busy time to
     register at the timer's microsecond resolution; instant chunks can
     measure 0.0s and make the utilization gauge flaky. *)
  let work x =
    let acc = ref 0 in
    for i = 1 to 50_000 do
      acc := !acc lxor (i * x)
    done;
    ignore (Sys.opaque_identity !acc);
    x * 2
  in
  let out =
    Ctx.with_span obs "stage" (fun () ->
        Ctx.with_pool_chunks obs ~label:"work" (fun () ->
            Util.Pool.map ~jobs:3 work (Array.init 9 succ)))
  in
  Alcotest.(check (array int)) "result unchanged"
    (Array.init 9 (fun i -> 2 * (i + 1))) out;
  (match Trace.roots trace with
   | [ stage ] ->
     Alcotest.(check (list string)) "chunk spans in worker order"
       [ "work[0,3)"; "work[3,6)"; "work[6,9)" ]
       (List.map (fun s -> s.Trace.name) stage.Trace.children)
   | _ -> Alcotest.fail "expected one root span");
  Alcotest.(check int) "chunk latencies recorded" 3
    (Metrics.hist_count (Metrics.histogram m "pool.work.chunk_seconds"));
  (match Metrics.gauge_value (Metrics.gauge m "pool.work.utilization") with
   | Some u -> Alcotest.(check bool) "utilization in (0, 1.5]" true (u > 0.0 && u <= 1.5)
   | None -> Alcotest.fail "utilization gauge unset")

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

let test_flight_ring () =
  let f = Flight.create ~capacity:3 () in
  Alcotest.(check int) "capacity" 3 (Flight.capacity f);
  for i = 1 to 5 do
    Flight.record f Flight.Mark ~name:(Printf.sprintf "e%d" i) ~i ()
  done;
  Alcotest.(check int) "total counts every record" 5 (Flight.total f);
  Alcotest.(check int) "dropped = total - capacity" 2 (Flight.dropped f);
  Alcotest.(check (list string)) "oldest first, survivors only" [ "e3"; "e4"; "e5" ]
    (List.map (fun e -> e.Flight.name) (Flight.events f));
  Alcotest.(check bool) "timestamps monotone" true
    (let ts = List.map (fun e -> e.Flight.ts) (Flight.events f) in
     List.sort compare ts = ts);
  Flight.clear f;
  Alcotest.(check int) "clear resets total" 0 (Flight.total f);
  Alcotest.(check int) "clear empties events" 0 (List.length (Flight.events f));
  Alcotest.(check bool) "capacity must be positive" true
    (try ignore (Flight.create ~capacity:0 ()); false with Invalid_argument _ -> true)

let test_flight_dump () =
  let f = Flight.create ~capacity:8 () in
  Flight.record f Flight.Phase_enter ~name:"compute-distances" ();
  Flight.record f Flight.Noise ~name:"masked \"dists\"" ~i:7 ~x:35.5 ();
  Flight.record f Flight.Send ~name:"party-A->party-B" ~i:4096 ();
  Flight.record f Flight.Phase_exit ~name:"compute-distances" ~x:0.25 ();
  with_temp_file (fun path ->
      let oc = open_out path in
      Flight.dump ~run:[ ("cmd", "test"); ("weird", "a\"b\\c") ] f oc;
      close_out oc;
      let lines =
        String.split_on_char '\n' (read_file path)
        |> List.filter (fun l -> String.trim l <> "")
      in
      Alcotest.(check int) "header + one line per event" 5 (List.length lines);
      List.iteri
        (fun i line -> assert_valid_json (Printf.sprintf "flight line %d" i) line)
        lines;
      Alcotest.(check bool) "header first" true
        (contains ~sub:"\"rec\":\"flight-header\"" (List.hd lines));
      Alcotest.(check bool) "run kvs in header" true
        (contains ~sub:"\"cmd\":\"test\"" (List.hd lines));
      Alcotest.(check bool) "events tagged" true
        (List.for_all (contains ~sub:"\"rec\":\"flight\"") (List.tl lines));
      Alcotest.(check bool) "kind names symbolic" true
        (contains ~sub:"\"kind\":\"phase-exit\"" (read_file path)))

(* The non-Chunk flight-event stream with timestamps (and phase
   durations) stripped: everything that must be bit-identical across
   job counts. *)
let flight_shape f =
  let buf = Buffer.create 1024 in
  List.iter
    (fun e ->
      if e.Flight.kind <> Flight.Chunk then begin
        let x =
          match e.Flight.kind with
          | Flight.Phase_enter | Flight.Phase_exit -> 0.0 (* wall time varies *)
          | _ -> e.Flight.x
        in
        Buffer.add_string buf
          (Printf.sprintf "%s name=%s i=%d j=%d x=%.9g\n"
             (Flight.kind_name e.Flight.kind) e.Flight.name e.Flight.i e.Flight.j x)
      end)
    (Flight.events f);
  Buffer.contents buf

let test_flight_stream_jobs_determinism () =
  let _, _, f1, _ = traced_run ~jobs:1 in
  let _, _, f2, _ = traced_run ~jobs:2 in
  let _, _, f4, _ = traced_run ~jobs:4 in
  let s1 = flight_shape f1 and s2 = flight_shape f2 and s4 = flight_shape f4 in
  Alcotest.(check string) "flight stream: jobs 1 = jobs 2" s1 s2;
  Alcotest.(check string) "flight stream: jobs 1 = jobs 4" s1 s4;
  Alcotest.(check bool) "stream is non-trivial" true (String.length s1 > 200);
  Alcotest.(check bool) "carries phase events" true
    (contains ~sub:"phase-exit name=compute-distances" s1);
  Alcotest.(check bool) "carries noise samples" true (contains ~sub:"noise name=" s1);
  Alcotest.(check bool) "carries transcript sends" true
    (contains ~sub:"send name=party-A->party-B" s1);
  (* Chunk events exist but are excluded from the invariant. *)
  let chunks f =
    List.length (List.filter (fun e -> e.Flight.kind = Flight.Chunk) (Flight.events f))
  in
  Alcotest.(check bool) "chunk events recorded" true (chunks f2 > 0)

(* ------------------------------------------------------------------ *)
(* Metrics edge cases + Prometheus exposition                          *)
(* ------------------------------------------------------------------ *)

let test_metrics_empty_histogram () =
  let m = Metrics.create () in
  let h = Metrics.histogram ~buckets:[| 1.0; 10.0 |] m "lat" in
  Alcotest.(check int) "count 0" 0 (Metrics.hist_count h);
  Alcotest.(check (float 0.0)) "sum 0" 0.0 (Metrics.hist_sum h);
  let rendered = Format.asprintf "%a" Metrics.pp m in
  Alcotest.(check bool) "pp survives empty histogram" true
    (contains ~sub:"count=0" rendered);
  let prom = Metrics.to_prometheus m in
  Alcotest.(check bool) "exposition has zero count" true
    (contains ~sub:"sknn_lat_count 0" prom);
  Alcotest.(check bool) "exposition has zero sum" true
    (contains ~sub:"sknn_lat_sum 0" prom);
  Alcotest.(check bool) "overflow bucket present" true
    (contains ~sub:"sknn_lat_bucket{le=\"+Inf\"} 0" prom)

let test_metrics_bucket_boundary_and_overflow () =
  let m = Metrics.create () in
  let h = Metrics.histogram ~buckets:[| 5.0 |] m "b" in
  Metrics.observe h 5.0; (* exactly on the boundary: counts as <= 5 *)
  Alcotest.(check (array int)) "boundary lands in its bucket" [| 1; 0 |]
    (Metrics.hist_counts h);
  Metrics.observe h 5.000001;
  Metrics.observe h 1e12;
  Alcotest.(check (array int)) "everything above goes to overflow" [| 1; 2 |]
    (Metrics.hist_counts h);
  Alcotest.(check int) "count includes overflow" 3 (Metrics.hist_count h)

let test_metrics_kind_mismatch () =
  let m = Metrics.create () in
  ignore (Metrics.gauge m "g");
  List.iter
    (fun (label, f) ->
      Alcotest.(check bool) label true
        (try f (); false with Invalid_argument _ -> true))
    [ ("gauge as counter", fun () -> ignore (Metrics.counter m "g"));
      ("gauge as histogram", fun () -> ignore (Metrics.histogram m "g"));
      ("counter as gauge",
       fun () ->
         ignore (Metrics.counter m "c");
         ignore (Metrics.gauge m "c")) ]

let golden_ledger () =
  let c = Counters.create () in
  Counters.record_op c Counters.Op_ct_mul ~level:5;
  Counters.record_op_n c Counters.Op_encrypt ~level:10 2;
  Counters.record_op c Counters.Op_slot_pack ~level:0;
  c

let test_metrics_prometheus_golden () =
  let build () =
    let m = Metrics.create () in
    Metrics.inc ~by:3 (Metrics.counter m "queries");
    Metrics.set (Metrics.gauge m "pool/work.utilization") 0.75;
    ignore (Metrics.gauge m "unset"); (* unset gauges are omitted *)
    let h = Metrics.histogram ~buckets:[| 1.0; 10.0 |] m "lat" in
    List.iter (Metrics.observe h) [ 0.5; 10.0; 99.0 ];
    Metrics.record_ledger m ~party:"party-a" (golden_ledger ());
    (* The virtual-network families the protocol exports under --net. *)
    Metrics.set (Metrics.gauge m "link.party-A-party-B.busy_seconds") 0.0025;
    Metrics.inc ~by:2 (Metrics.counter m "link.party-A-party-B.rounds");
    Metrics.set (Metrics.gauge m "net.end_to_end_seconds") 0.085;
    m
  in
  let expected =
    String.concat "\n"
      [ "# TYPE sknn_lat histogram";
        "sknn_lat_bucket{le=\"1\"} 1";
        "sknn_lat_bucket{le=\"10\"} 2";
        "sknn_lat_bucket{le=\"+Inf\"} 3";
        "sknn_lat_sum 109.5";
        "sknn_lat_count 3";
        "# TYPE sknn_ledger_party_a_ct_mul_l5_total counter";
        "sknn_ledger_party_a_ct_mul_l5_total 1";
        "# TYPE sknn_ledger_party_a_encrypt_l10_total counter";
        "sknn_ledger_party_a_encrypt_l10_total 2";
        "# TYPE sknn_ledger_party_a_slot_pack_l0_total counter";
        "sknn_ledger_party_a_slot_pack_l0_total 1";
        "# TYPE sknn_link_party_A_party_B_busy_seconds gauge";
        "sknn_link_party_A_party_B_busy_seconds 0.0025";
        "# TYPE sknn_link_party_A_party_B_rounds_total counter";
        "sknn_link_party_A_party_B_rounds_total 2";
        "# TYPE sknn_net_end_to_end_seconds gauge";
        "sknn_net_end_to_end_seconds 0.085";
        "# TYPE sknn_pool_work_utilization gauge";
        "sknn_pool_work_utilization 0.75";
        "# TYPE sknn_queries_total counter";
        "sknn_queries_total 3";
        "" ]
  in
  Alcotest.(check string) "golden exposition" expected
    (Metrics.to_prometheus (build ()));
  (* Deterministic: registration order does not matter, repeated export
     is stable. *)
  let m2 = Metrics.create () in
  let h2 = Metrics.histogram ~buckets:[| 1.0; 10.0 |] m2 "lat" in
  Metrics.set (Metrics.gauge m2 "net.end_to_end_seconds") 0.085;
  Metrics.record_ledger m2 ~party:"party-a" (golden_ledger ());
  Metrics.set (Metrics.gauge m2 "pool/work.utilization") 0.75;
  ignore (Metrics.gauge m2 "unset");
  Metrics.inc ~by:2 (Metrics.counter m2 "link.party-A-party-B.rounds");
  Metrics.inc ~by:3 (Metrics.counter m2 "queries");
  Metrics.set (Metrics.gauge m2 "link.party-A-party-B.busy_seconds") 0.0025;
  List.iter (Metrics.observe h2) [ 99.0; 0.5; 10.0 ];
  Alcotest.(check string) "order-independent" expected (Metrics.to_prometheus m2);
  Alcotest.(check string) "repeat export identical" (Metrics.to_prometheus m2)
    (Metrics.to_prometheus m2)

(* Every exposition line is `# TYPE <name> <kind>` or `<name>[{...}] <num>`
   with names in [a-zA-Z0-9_] — the subset of the Prometheus text format
   we emit. *)
let test_metrics_prometheus_grammar () =
  let m = Metrics.create () in
  Metrics.inc (Metrics.counter m "bgv.mul/total");
  Metrics.set (Metrics.gauge m "noise min headroom") 35.75;
  let h = Metrics.histogram m "phase.compute-distances.seconds" in
  Metrics.observe h 0.123;
  let name_ok name =
    name <> ""
    && String.for_all
         (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
         name
  in
  let check_line line =
    if line = "" then ()
    else if String.length line > 7 && String.sub line 0 7 = "# TYPE " then begin
      match String.split_on_char ' ' line with
      | [ "#"; "TYPE"; name; kind ] ->
        Alcotest.(check bool) ("type name ok: " ^ name) true (name_ok name);
        Alcotest.(check bool) ("kind ok: " ^ kind) true
          (List.mem kind [ "counter"; "gauge"; "histogram" ])
      | _ -> Alcotest.failf "bad TYPE line: %s" line
    end
    else
      match String.index_opt line ' ' with
      | None -> Alcotest.failf "sample line without value: %s" line
      | Some sp ->
        let name_part = String.sub line 0 sp in
        let value = String.sub line (sp + 1) (String.length line - sp - 1) in
        let bare =
          match String.index_opt name_part '{' with
          | Some b ->
            Alcotest.(check bool) ("labels closed: " ^ name_part) true
              (name_part.[String.length name_part - 1] = '}');
            String.sub name_part 0 b
          | None -> name_part
        in
        Alcotest.(check bool) ("metric name ok: " ^ bare) true (name_ok bare);
        Alcotest.(check bool) ("numeric value: " ^ value) true
          (match float_of_string_opt value with Some _ -> true | None -> false)
  in
  let prom = Metrics.to_prometheus m in
  List.iter check_line (String.split_on_char '\n' prom);
  Alcotest.(check bool) "sanitized counter name" true
    (contains ~sub:"sknn_bgv_mul_total_total 1" prom)

(* ------------------------------------------------------------------ *)
(* Trace indexed paths (--trace under --repeat)                        *)
(* ------------------------------------------------------------------ *)

let test_trace_indexed_path () =
  List.iter
    (fun (path, i, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "indexed_path %S %d" path i)
        expected
        (Trace.indexed_path path i))
    [ ("trace.json", 0, "trace.json");
      ("trace.json", 2, "trace.2.json");
      ("out/run.jsonl", 3, "out/run.3.jsonl");
      ("noext", 1, "noext.1");
      ("dir.d/noext", 1, "dir.d/noext.1");
      ("a.b.c", 4, "a.b.4.c") ]

(* ------------------------------------------------------------------ *)
(* Noise model                                                         *)
(* ------------------------------------------------------------------ *)

let test_noise_model_ops () =
  let nm = (Config.standard ()).Config.bgv.Params.noise in
  let fresh = NM.fresh nm in
  Alcotest.(check int) "fresh at top level" (NM.chain_length nm) fresh.NM.level;
  Alcotest.(check bool) "fresh headroom positive" true (NM.headroom nm fresh > 0.0);
  let sum = NM.add fresh fresh in
  Alcotest.(check bool) "add grows noise" true (sum.NM.bits > fresh.NM.bits);
  Alcotest.(check bool) "add is one bit at equal operands" true
    (abs_float (sum.NM.bits -. (fresh.NM.bits +. 1.0)) < 1e-9);
  let prod = NM.mul nm fresh fresh in
  Alcotest.(check bool) "mul grows fast" true (prod.NM.bits > sum.NM.bits);
  Alcotest.(check int) "mul raises degree" 2 prod.NM.degree;
  let ip = NM.mul_sum nm fresh fresh ~terms:8 in
  Alcotest.(check bool) "mul_sum ~ one product + log2 terms" true
    (abs_float (ip.NM.bits -. (prod.NM.bits +. 3.0)) < 1e-9);
  let tr = NM.truncate prod ~level:2 in
  Alcotest.(check int) "truncate drops level" 2 tr.NM.level;
  Alcotest.(check (float 1e-9)) "truncate keeps noise" prod.NM.bits tr.NM.bits;
  let rs = NM.rescale_to_floor nm prod in
  Alcotest.(check bool) "rescale reduces noise" true (rs.NM.bits < prod.NM.bits);
  Alcotest.(check bool) "percentile guard" true
    (try ignore (Report.percentile [||] 50.0); false with Invalid_argument _ -> true)

let test_forecast_default_is_quiet () =
  let db = Synthetic.uniform (Rng.of_int 5) ~n:8 ~d:3 ~max_value:50 in
  let audit = Audit.create () in
  let flight = Flight.create () in
  let obs = Ctx.create ~audit ~flight () in
  let dep = Protocol.deploy ~obs ~rng:(Rng.of_int 7) ~jobs:1 (Config.fast ()) ~db in
  let report =
    Entities.Party_a.forecast_noise ~path:(Sknn_obs.Cost_model.Packed 1)
      (Protocol.party_a dep)
  in
  Alcotest.(check bool) "steps recorded" true (List.length report.NM.steps > 5);
  Alcotest.(check bool) "default preset clears the margin" false
    report.NM.below_margin;
  Alcotest.(check bool) "positive minimum headroom" true
    (report.NM.min_headroom_bits > report.NM.margin_bits);
  Protocol.prepare_packed ~obs dep;
  (match
     Audit.value_of audit ~party:"party-a" ~label:"noise-min-headroom-bits"
   with
   | Some (Audit.Float v) ->
     Alcotest.(check (float 1e-6)) "audit records the forecast minimum"
       report.NM.min_headroom_bits v
   | _ -> Alcotest.fail "expected the noise-min-headroom-bits audit entry");
  Alcotest.(check bool) "no warning entry" true
    (Audit.value_of audit ~party:"party-a" ~label:"noise-low-headroom-warning" = None);
  Alcotest.(check bool) "no warning flight event" true
    (List.for_all (fun e -> e.Flight.kind <> Flight.Warning) (Flight.events flight));
  (* A live packed query agrees with the positive forecast. *)
  let r = Protocol.query_packed ~obs ~rng:(Rng.of_int 8) dep ~query:[| 1; 2; 3 |] ~k:2 in
  Alcotest.(check int) "query succeeds" 2 (Array.length r.Protocol.neighbours)

let test_forecast_shallow_chain_warns () =
  (* Three 30-bit primes cannot absorb the packed circuit: the
     forecaster must warn when prepare_packed runs instead of letting
     the query die mid-flight. *)
  let shallow =
    let bgv =
      Params.create ~name:"shallow-obs-test" ~n:64 ~plain_bits:50 ~prime_bits:30
        ~chain_len:3 ()
    in
    { (Config.fast ()) with Config.bgv; return_level = 2 }
  in
  (match Config.validate shallow ~d:3 with
   | Ok () -> ()
   | Error e -> Alcotest.failf "shallow config should be structurally valid: %s" e);
  let db = Synthetic.uniform (Rng.of_int 5) ~n:8 ~d:3 ~max_value:50 in
  let audit = Audit.create () in
  let flight = Flight.create () in
  let obs = Ctx.create ~audit ~flight () in
  let dep = Protocol.deploy ~obs ~rng:(Rng.of_int 7) ~jobs:1 shallow ~db in
  let report =
    Entities.Party_a.forecast_noise ~path:(Sknn_obs.Cost_model.Packed 1)
      (Protocol.party_a dep)
  in
  Alcotest.(check bool) "below margin" true report.NM.below_margin;
  Alcotest.(check bool) "headroom below margin" true
    (report.NM.min_headroom_bits < report.NM.margin_bits);
  let rendered = Format.asprintf "%a" NM.pp_report report in
  Alcotest.(check bool) "report renders the verdict" true
    (contains ~sub:"BELOW MARGIN" rendered);
  Protocol.prepare_packed ~obs dep;
  (match
     Audit.value_of audit ~party:"party-a" ~label:"noise-low-headroom-warning"
   with
   | Some (Audit.Str s) ->
     Alcotest.(check bool) "warning carries the forecast" true
       (contains ~sub:"min headroom" s)
   | _ -> Alcotest.fail "expected the noise-low-headroom-warning audit entry");
  Alcotest.(check bool) "warning flight event recorded" true
    (List.exists
       (fun e ->
         e.Flight.kind = Flight.Warning && e.Flight.name = "noise-low-headroom")
       (Flight.events flight))

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let test_report_percentiles () =
  let a = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (float 0.0)) "p50 of 4" 2.0 (Report.percentile a 50.0);
  Alcotest.(check (float 0.0)) "p95 of 4" 4.0 (Report.percentile a 95.0);
  Alcotest.(check (float 0.0)) "p25 of 4" 1.0 (Report.percentile a 25.0);
  let one = [| 7.5 |] in
  List.iter
    (fun p ->
      Alcotest.(check (float 0.0)) (Printf.sprintf "p%.0f of singleton" p) 7.5
        (Report.percentile one p))
    [ 50.0; 95.0; 99.0 ]

let test_report_degenerate_inputs () =
  (* Nearest-rank at the extremes of p: the rank clamp keeps every
     request inside the sample, including out-of-range p. *)
  let a = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (float 0.0)) "p0 clamps to min" 1.0 (Report.percentile a 0.0);
  Alcotest.(check (float 0.0)) "p100 is max" 4.0 (Report.percentile a 100.0);
  Alcotest.(check (float 0.0)) "p>100 clamps to max" 4.0 (Report.percentile a 150.0);
  Alcotest.(check (float 0.0)) "negative p clamps to min" 1.0
    (Report.percentile a (-5.0));
  (* An empty jsonl file: no rows anywhere, rendering still succeeds. *)
  let t = Report.create () in
  with_temp_file (fun path ->
      let oc = open_out path in
      close_out oc;
      Report.add_file t path);
  Alcotest.(check int) "no lines in empty file" 0 (Report.lines t);
  Alcotest.(check int) "nothing skipped" 0 (Report.skipped t);
  Alcotest.(check int) "no phase rows" 0 (List.length (Report.phases t));
  Alcotest.(check int) "no link rows" 0 (List.length (Report.links t));
  Alcotest.(check int) "no noise rows" 0 (List.length (Report.noise_margins t));
  Alcotest.(check bool) "empty report still renders" true
    (String.length (Format.asprintf "%a" Report.pp t) > 0);
  (* Garbage is counted and skipped, never fatal; blanks are ignored. *)
  Report.add_line t "";
  Report.add_line t "   ";
  Report.add_line t "not json at all";
  Report.add_line t "{\"weird\": true}";
  Alcotest.(check int) "blank lines not counted" 2 (Report.lines t);
  Alcotest.(check int) "garbage skipped" 2 (Report.skipped t);
  Alcotest.(check int) "still no phase rows" 0 (List.length (Report.phases t));
  (* A single sample: every percentile is that sample, and the row is
     still rendered (push never creates an empty list, so the
     percentile empty-sample guard is unreachable from the tables). *)
  Report.add_line t {|{"kind":"phase","name":"solo","dur_s":0.25}|};
  (match Report.phases t with
   | [ r ] ->
     Alcotest.(check string) "phase name" "solo" r.Report.phase;
     Alcotest.(check int) "one sample" 1 r.Report.samples;
     Alcotest.(check (float 0.0)) "p50 = sample" 0.25 r.Report.p50_s;
     Alcotest.(check (float 0.0)) "p95 = sample" 0.25 r.Report.p95_s;
     Alcotest.(check (float 0.0)) "p99 = sample" 0.25 r.Report.p99_s;
     Alcotest.(check (float 0.0)) "max = sample" 0.25 r.Report.max_s
   | rows -> Alcotest.failf "expected one phase row, got %d" (List.length rows))

let test_report_tables () =
  let trace, _, flight, _ = traced_run ~jobs:2 in
  let t = Report.create () in
  with_temp_file (fun path ->
      let oc = open_out path in
      Trace.write trace Trace.Jsonl oc;
      close_out oc;
      Report.add_file t path);
  with_temp_file (fun path ->
      let oc = open_out path in
      Flight.dump ~run:[ ("cmd", "test") ] flight oc;
      close_out oc;
      Report.add_file t path);
  Alcotest.(check bool) "lines read" true (Report.lines t > 10);
  Alcotest.(check int) "nothing skipped" 0 (Report.skipped t);
  let phases = Report.phases t in
  let phase r = r.Report.phase in
  Alcotest.(check bool) "compute-distances aggregated" true
    (List.exists (fun r -> phase r = "compute-distances") phases);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (phase r ^ ": percentiles ordered") true
        (r.Report.p50_s <= r.Report.p95_s
         && r.Report.p95_s <= r.Report.p99_s
         && r.Report.p99_s <= r.Report.max_s);
      (* jsonl trace + flight dump both carry the phase: 2+ samples *)
      Alcotest.(check bool) (phase r ^ ": both sources merged") true
        (r.Report.samples >= 2))
    phases;
  let links = Report.links t in
  (match List.find_opt (fun l -> l.Report.link = "party-A->party-B") links with
   | Some l ->
     Alcotest.(check bool) "A->B sends counted" true (l.Report.sends >= 1);
     Alcotest.(check bool) "A->B bytes positive" true (l.Report.bytes > 0)
   | None -> Alcotest.fail "expected a party-A->party-B link row");
  Alcotest.(check bool) "noise table populated" true
    (List.length (Report.noise_margins t) > 0);
  List.iter
    (fun r -> Alcotest.(check bool) "noise min <= mean" true
        (r.Report.min_bits <= r.Report.mean_bits +. 1e-9))
    (Report.noise_margins t);
  let rendered = Format.asprintf "%a" Report.pp t in
  List.iter
    (fun sub ->
      Alcotest.(check bool) ("report mentions " ^ sub) true (contains ~sub rendered))
    [ "phase"; "p50"; "p95"; "p99"; "compute-distances"; "party-A->party-B";
      "noise headroom" ];
  (* Garbage lines are counted, not fatal. *)
  Report.add_line t "not json at all {";
  Alcotest.(check int) "garbage skipped" 1 (Report.skipped t)

(* ------------------------------------------------------------------ *)
(* Cost_model: the analytic op-ledger replica + calibrated time        *)
(* ------------------------------------------------------------------ *)

module CM = Sknn_obs.Cost_model

(* Exact ledger equality against live queries is asserted per preset in
   test_core; here we pin the model's own structural contract. *)

let cm_predict ?include_prepare path =
  Attribution.predict ?include_prepare (Config.fast ()) ~n:16 ~d:3 ~k:2 path

let protocol_phase_order =
  [ "prepare-db"; "encrypt-query"; "compute-distances"; "find-neighbours";
    "return-knn"; "decrypt-result" ]

let test_cost_model_phase_structure () =
  List.iter
    (fun (label, path) ->
      let pred = cm_predict path in
      let names = List.map (fun ph -> ph.CM.phase) pred.CM.phases in
      List.iter
        (fun nm ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s is a protocol phase" label nm)
            true (List.mem nm protocol_phase_order))
        names;
      (* Phase order matches Protocol's: the phase list, deduplicated,
         is a subsequence of the canonical order. *)
      let dedup =
        List.fold_left (fun acc nm -> if List.mem nm acc then acc else nm :: acc)
          [] names
        |> List.rev
      in
      let rec subseq xs ys =
        match (xs, ys) with
        | [], _ -> true
        | _, [] -> false
        | x :: xs', y :: ys' -> if x = y then subseq xs' ys' else subseq xs ys'
      in
      Alcotest.(check bool) (label ^ ": phases in protocol order") true
        (subseq dedup protocol_phase_order);
      List.iter
        (fun ph ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s party tag" label ph.CM.phase)
            true
            (List.mem ph.CM.party [ "party-a"; "party-b"; "client" ]))
        pred.CM.phases;
      Alcotest.(check bool) (label ^ ": A<->B traffic predicted") true
        (pred.CM.ab_bytes > 0))
    [ ("plain", CM.Plain); ("packed", CM.Packed 1); ("batch", CM.Packed 3) ]

let test_cost_model_party_merge () =
  (* The merged per-party totals are exactly the fold of the per-phase
     ledgers — sknn cost compares the totals against live counters, the
     phase table against live phase times; they must be the same ops. *)
  List.iter
    (fun (label, path) ->
      let pred = cm_predict path in
      let fold party =
        List.fold_left
          (fun acc ph ->
            if ph.CM.party = party then Counters.merge acc ph.CM.counters else acc)
          (Counters.create ()) pred.CM.phases
      in
      Alcotest.(check bool) (label ^ ": party-a merge") true
        (Counters.equal_ledger (fold "party-a") pred.CM.party_a);
      Alcotest.(check bool) (label ^ ": party-b merge") true
        (Counters.equal_ledger (fold "party-b") pred.CM.party_b);
      Alcotest.(check bool) (label ^ ": client merge") true
        (Counters.equal_ledger (fold "client") pred.CM.client))
    [ ("plain", CM.Plain); ("packed", CM.Packed 1); ("batch", CM.Packed 2) ]

let test_cost_model_steady_state () =
  (* include_prepare:false models a steady-state packed query: the
     prepare-db phase disappears, and the A<->B traffic of the query
     round itself is unchanged. *)
  List.iter
    (fun (label, path) ->
      let first = cm_predict ~include_prepare:true path in
      let steady = cm_predict ~include_prepare:false path in
      Alcotest.(check bool) (label ^ ": first query prepares") true
        (List.exists (fun ph -> ph.CM.phase = "prepare-db") first.CM.phases);
      Alcotest.(check bool) (label ^ ": steady query does not") false
        (List.exists (fun ph -> ph.CM.phase = "prepare-db") steady.CM.phases);
      Alcotest.(check int) (label ^ ": traffic unchanged") first.CM.ab_bytes
        steady.CM.ab_bytes)
    [ ("packed", CM.Packed 1); ("batch", CM.Packed 3) ]

let test_predict_seconds_algebra () =
  (* predict_seconds is Σ count × unit_cost over every cell, the NTT
     census rows included (composite ops are priced net of their
     transforms), and missing cells read as zero. *)
  let c = Counters.create () in
  Counters.record_op_n c Counters.Op_ct_add ~level:2 10;
  Counters.record_op_n c Counters.Op_ct_mul ~level:3 4;
  Counters.record_op_n c Counters.Op_slot_pack ~level:0 5;
  Counters.record_op_n c Counters.Op_ntt_fwd ~level:2 1000;
  Counters.record_op_n c Counters.Op_ntt_inv ~level:2 1000;
  Counters.record_op_n c Counters.Op_decrypt ~level:4 7;
  let unit_costs =
    Array.make_matrix Counters.num_ops 8 0.0
  in
  unit_costs.(Counters.op_index Counters.Op_ct_add).(2) <- 1e-3;
  unit_costs.(Counters.op_index Counters.Op_ct_mul).(3) <- 1e-2;
  unit_costs.(Counters.op_index Counters.Op_slot_pack).(0) <- 1e-4;
  unit_costs.(Counters.op_index Counters.Op_ntt_fwd).(2) <- 1.0;
  unit_costs.(Counters.op_index Counters.Op_ntt_inv).(2) <- 1.0;
  (* Op_decrypt's cell stays 0.0: an uncalibrated cell contributes 0. *)
  let expected = (10.0 *. 1e-3) +. (4.0 *. 1e-2) +. (5.0 *. 1e-4) +. 2000.0 in
  Alcotest.(check (float 1e-9)) "sum prices the NTT census, skips zero cells"
    expected
    (CM.predict_seconds ~unit_costs c);
  Alcotest.(check (float 0.0)) "empty ledger is free" 0.0
    (CM.predict_seconds ~unit_costs (Counters.create ()))

(* A rescale chain that drops j = 3 primes runs one NTT round trip per
   component, so with net unit costs it prices as 3 divide-and-round
   steps plus that round trip, not as 3 single switches. *)
let test_rescale_chain_pricing () =
  let params = Params.toy () in
  let keys = Bgv.keygen (Util.Rng.of_int 5) params in
  let chain = Params.chain_length params in
  let pt = Plaintext.constant params 3L in
  let found = ref None in
  for level = 2 to chain do
    let x = Bgv.encrypt ~level (Util.Rng.of_int level) keys.Bgv.pk pt in
    List.iter
      (fun ct ->
        let c = Counters.create () in
        let out = Bgv.rescale_to_floor ~counters:c ct in
        if !found = None && level - Bgv.level out = 3 then found := Some (ct, c))
      [ Bgv.mul ~rescale:false x x; Bgv.mul ~rescale:false (Bgv.mul ~rescale:false x x) x ]
  done;
  match !found with
  | None -> Alcotest.fail "no ciphertext rescales by exactly 3 primes"
  | Some (ct, c) ->
    let comps = float_of_int (Bgv.degree ct + 1) in
    let unit_costs = Array.make_matrix Counters.num_ops (chain + 1) 0.0 in
    let set op v = Array.fill unit_costs.(Counters.op_index op) 0 (chain + 1) v in
    set Counters.Op_modswitch 10.0;
    set Counters.Op_ntt_fwd 1.0;
    set Counters.Op_ntt_inv 2.0;
    let chain_cost = CM.predict_seconds ~unit_costs c in
    Alcotest.(check (float 1e-9)) "3 steps plus one round trip"
      ((3.0 *. 10.0) +. (comps *. (2.0 +. 1.0)))
      chain_cost;
    Alcotest.(check bool) "cheaper than 3 single switches" true
      (chain_cost < 3.0 *. (10.0 +. (comps *. (2.0 +. 1.0))))

let test_report_cost_attribution () =
  (* sknn cost writes {"rec":"cost",...} lines; Report aggregates them
     into the attribution table, averaging repeated samples per phase. *)
  let t = Report.create () in
  Report.add_line t
    {|{"rec":"cost","path":"plain","ledger_exact":true,"phases":[{"phase":"compute-distances","predicted_s":0.5,"measured_s":1.0},{"phase":"return-knn","predicted_s":0.0,"measured_s":0.25}]}|};
  Report.add_line t
    {|{"rec":"cost","path":"plain","ledger_exact":true,"phases":[{"phase":"compute-distances","predicted_s":1.5,"measured_s":3.0}]}|};
  (match Report.attribution t with
   | [ cd; rk ] ->
     Alcotest.(check string) "phase sorted first" "compute-distances"
       cd.Report.cost_phase;
     Alcotest.(check int) "two samples merged" 2 cd.Report.cost_samples;
     Alcotest.(check (float 1e-12)) "predicted mean" 1.0 cd.Report.predicted_s;
     Alcotest.(check (float 1e-12)) "measured mean" 2.0 cd.Report.measured_s;
     Alcotest.(check string) "second phase" "return-knn" rk.Report.cost_phase;
     Alcotest.(check (float 1e-12)) "zero predicted preserved" 0.0
       rk.Report.predicted_s
   | rows -> Alcotest.failf "expected 2 attribution rows, got %d" (List.length rows));
  let rendered = Format.asprintf "%a" Report.pp t in
  List.iter
    (fun sub ->
      Alcotest.(check bool) ("attribution mentions " ^ sub) true
        (contains ~sub rendered))
    [ "cost attribution"; "compute-distances"; "return-knn" ];
  (* The zero-predicted row renders "-" for its ratio, never nan/inf. *)
  Alcotest.(check bool) "no nan ratio" false (contains ~sub:"nan" rendered);
  Alcotest.(check bool) "no inf ratio" false (contains ~sub:"inf" rendered)

let () =
  Alcotest.run "obs"
    [ ("trace",
       [ Alcotest.test_case "disabled passthrough" `Quick test_trace_disabled_passthrough;
         Alcotest.test_case "nesting" `Quick test_trace_nesting;
         Alcotest.test_case "counter deltas" `Quick test_trace_counter_deltas;
         Alcotest.test_case "span survives raise" `Quick test_trace_span_survives_raise ]);
      ("sinks",
       [ Alcotest.test_case "chrome JSON" `Quick test_sink_chrome;
         Alcotest.test_case "jsonl lines" `Quick test_sink_jsonl;
         Alcotest.test_case "pretty + formats" `Quick test_sink_pretty_and_format_names ]);
      ("determinism",
       [ Alcotest.test_case "span tree across jobs" `Quick test_span_tree_jobs_determinism;
         Alcotest.test_case "flight stream across jobs" `Quick
           test_flight_stream_jobs_determinism;
         Alcotest.test_case "chunk partition" `Quick test_chunk_spans_partition ]);
      ("flight",
       [ Alcotest.test_case "ring buffer" `Quick test_flight_ring;
         Alcotest.test_case "dump" `Quick test_flight_dump ]);
      ("metrics",
       [ Alcotest.test_case "counter + gauge" `Quick test_metrics_counter_gauge;
         Alcotest.test_case "histogram" `Quick test_metrics_histogram;
         Alcotest.test_case "empty histogram" `Quick test_metrics_empty_histogram;
         Alcotest.test_case "bucket boundary + overflow" `Quick
           test_metrics_bucket_boundary_and_overflow;
         Alcotest.test_case "kind mismatch" `Quick test_metrics_kind_mismatch;
         Alcotest.test_case "prometheus golden" `Quick test_metrics_prometheus_golden;
         Alcotest.test_case "prometheus grammar" `Quick test_metrics_prometheus_grammar;
         Alcotest.test_case "names sorted" `Quick test_metrics_names_sorted ]);
      ("noise model",
       [ Alcotest.test_case "operation algebra" `Quick test_noise_model_ops;
         Alcotest.test_case "default preset quiet" `Quick test_forecast_default_is_quiet;
         Alcotest.test_case "shallow chain warns" `Quick
           test_forecast_shallow_chain_warns ]);
      ("report",
       [ Alcotest.test_case "percentiles" `Quick test_report_percentiles;
         Alcotest.test_case "degenerate inputs" `Quick test_report_degenerate_inputs;
         Alcotest.test_case "tables" `Quick test_report_tables;
         Alcotest.test_case "cost attribution" `Quick test_report_cost_attribution ]);
      ("cost model",
       [ Alcotest.test_case "phase structure" `Quick test_cost_model_phase_structure;
         Alcotest.test_case "party merge" `Quick test_cost_model_party_merge;
         Alcotest.test_case "steady state" `Quick test_cost_model_steady_state;
         Alcotest.test_case "predict_seconds algebra" `Quick
           test_predict_seconds_algebra;
         Alcotest.test_case "rescale chain pricing" `Quick test_rescale_chain_pricing ]);
      ("audit", [ Alcotest.test_case "basics" `Quick test_audit_basics ]);
      ("ctx",
       [ Alcotest.test_case "disabled" `Quick test_ctx_disabled;
         Alcotest.test_case "pool chunks" `Quick test_ctx_pool_chunks;
         Alcotest.test_case "indexed trace paths" `Quick test_trace_indexed_path ]) ]
