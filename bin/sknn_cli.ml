(* sknn — command-line front end for the secure k-NN library.

   Subcommands:
     gen       generate a synthetic or UCI-shaped integer CSV dataset
     query     run the full secure protocol on a CSV database
     cost      attribute a query's time op by op against the analytic cost model
     plan      search the (ring, chain, prime) space for the cheapest safe params
     baseline  run the Yousef et al. Paillier baseline on a CSV database
     kmeans    secure k-means clustering (§7 extension)
     apriori   secure frequent-itemset mining (§7 extension)
     info      print the parameter presets and their security estimates *)

open Cmdliner

let read_db path = Csv_io.read ~has_header:false path

let parse_query s =
  String.split_on_char ',' s
  |> List.map (fun f ->
         match int_of_string_opt (String.trim f) with
         | Some v -> v
         | None -> invalid_arg (Printf.sprintf "query field %S is not an integer" f))
  |> Array.of_list

let config_of_layout = function
  | "per-coordinate" -> Config.standard ()
  | "dot-product" -> Config.fast ()
  | "secure" -> Config.secure ()
  | other -> invalid_arg (Printf.sprintf "unknown layout %S" other)

module CM = Sknn_obs.Cost_model

(* The --path names of sknn query, cost and plan; [queries] is the size
   of a packed round. *)
let path_of_string ~queries = function
  | "plain" -> CM.Plain
  | "packed" -> CM.Packed queries
  | other ->
    Format.eprintf "unknown path %S (plain | packed)@." other;
    exit 2

(* --query holds one query, or on the packed path ';'-separated
   queries that one round answers. *)
let parse_round ~path_s query_s =
  let queries = String.split_on_char ';' query_s |> List.map parse_query |> Array.of_list in
  let path = path_of_string ~queries:(Array.length queries) path_s in
  if path_s <> "packed" && Array.length queries > 1 then begin
    Format.eprintf "multiple ';'-separated queries need --path packed@.";
    exit 2
  end;
  (path, queries)

let write_flight fl path ~run =
  let oc = open_out path in
  Sknn_obs.Flight.dump ~run fl oc;
  close_out oc

(* Every protocol command ends the same two ways short of an answer.
   Bad input (the library's documented Invalid_argument: a dimension
   mismatch, k out of range, a coordinate out of range, an unsound
   plan) prints one "error: …" stderr line and exits 2.  Noise
   exhaustion prints one "decryption failure: …" line, dumps the flight
   recorder (when one is attached) to [flight_out] or
   sknn-flight-crash.jsonl, and exits 1. *)
let guarded ?flight ?flight_out f =
  try f () with
  | Invalid_argument msg ->
    Format.eprintf "error: %s@." msg;
    exit 2
  | Bgv.Decryption_failure msg ->
    Format.eprintf "decryption failure: %s@." msg;
    Option.iter
      (fun fl ->
        let path = Option.value flight_out ~default:"sknn-flight-crash.jsonl" in
        write_flight fl path ~run:[ ("reason", "decryption-failure"); ("error", msg) ];
        Format.eprintf "flight recorder dumped to %s@." path)
      flight;
    exit 1

(* The packed path needs affine (degree-1) masking and d <= N. *)
let check_path config ~d path_s =
  if path_s = "packed" && Result.is_error (Config.affine_supported config ~d ~what:path_s)
  then begin
    Format.eprintf
      "the packed path needs affine (degree-1) masking and d <= ring degree (try \
       --layout dot-product)@.";
    exit 2
  end

(* ------------------------------------------------------------------ *)
(* gen                                                                 *)
(* ------------------------------------------------------------------ *)

let gen dataset rows dims max_value seed out =
  let rng = Util.Rng.of_int seed in
  let db =
    match dataset with
    | "uniform" -> Synthetic.uniform rng ~n:rows ~d:dims ~max_value
    | "clustered" ->
      Synthetic.clustered rng ~n:rows ~d:dims ~clusters:5
        ~spread:(float_of_int max_value /. 20.0) ~max_value
    | "cervical" ->
      Preprocess.scale_to_max ~max_value (Uci_like.cervical_cancer ~n:rows rng)
    | "credit" -> Preprocess.scale_to_max ~max_value (Uci_like.credit_default ~n:rows rng)
    | other -> invalid_arg (Printf.sprintf "unknown dataset %S" other)
  in
  Csv_io.write out db;
  Format.printf "wrote %d x %d integers to %s@." (Array.length db)
    (Array.length db.(0)) out;
  0

let gen_cmd =
  let dataset =
    Arg.(value & opt string "uniform"
         & info [ "dataset" ] ~doc:"uniform | clustered | cervical | credit")
  in
  let rows = Arg.(value & opt int 500 & info [ "rows"; "n" ] ~doc:"Row count.") in
  let dims = Arg.(value & opt int 4 & info [ "dims"; "d" ] ~doc:"Dimensions (uniform/clustered).") in
  let max_value = Arg.(value & opt int 255 & info [ "max" ] ~doc:"Largest coordinate.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"RNG seed.") in
  let out = Arg.(required & pos 0 (some string) None & info [] ~docv:"OUT.csv") in
  Cmd.v (Cmd.info "gen" ~doc:"Generate an integer CSV dataset")
    Term.(const gen $ dataset $ rows $ dims $ max_value $ seed $ out)

(* ------------------------------------------------------------------ *)
(* query                                                               *)
(* ------------------------------------------------------------------ *)

(* The virtual-network timeline table: one row per link with the busy /
   idle split and the per-round latency envelope quantiles, then the
   critical-path end-to-end.  All virtual seconds — a pure function of
   (transcript, profile), identical across --jobs. *)
let print_timeline ppf (tl : Clock.timeline) =
  Format.fprintf ppf "virtual network (%s):@." (Profile.to_string tl.Clock.profile);
  Format.fprintf ppf "  %-24s %5s %10s %7s %12s %12s %10s %10s@." "link" "msgs"
    "bytes" "rounds" "busy" "idle" "round p50" "round p95";
  List.iter
    (fun (l : Clock.link) ->
      Format.fprintf ppf "  %-24s %5d %10d %7d %11.6fs %11.6fs %9.6fs %9.6fs@."
        (Clock.link_name l) l.Clock.link_messages l.Clock.link_bytes
        l.Clock.link_rounds l.Clock.busy_s l.Clock.idle_s
        (Clock.quantile l.Clock.round_latency_s 0.5)
        (Clock.quantile l.Clock.round_latency_s 0.95))
    tl.Clock.links;
  Format.fprintf ppf "  end-to-end: %.6f s (virtual)@." tl.Clock.end_to_end_s

(* JSONL records for sknn report: one "net" line for the run, one
   "net-link" line per link, appended after the flight dump so one file
   carries both streams. *)
let append_net_records path (tl : Clock.timeline) =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Util.Json.(
    output_line oc
      (Obj
         [ ("rec", Str "net");
           ("profile", Str (Profile.to_string tl.Clock.profile));
           ("end_to_end_s", Float tl.Clock.end_to_end_s) ]);
    List.iter
      (fun (l : Clock.link) ->
        output_line oc
          (Obj
             [ ("rec", Str "net-link");
               ("link", Str (Clock.link_name l));
               ("messages", Int l.Clock.link_messages);
               ("bytes", Int l.Clock.link_bytes);
               ("rounds", Int l.Clock.link_rounds);
               ("busy_s", Float l.Clock.busy_s);
               ("idle_s", Float l.Clock.idle_s);
               ("round_p50_s", Float (Clock.quantile l.Clock.round_latency_s 0.5));
               ("round_p95_s", Float (Clock.quantile l.Clock.round_latency_s 0.95)) ]))
      tl.Clock.links);
  close_out oc

let query_run data query_s k layout path_s seed jobs repeat net verbose trace
    trace_format audit metrics prom flight_out =
  (match jobs with
   | Some j when j < 1 ->
     Format.eprintf "--jobs must be at least 1 (got %d)@." j;
     exit 2
   | _ -> ());
  if repeat < 1 then begin
    Format.eprintf "--repeat must be at least 1 (got %d)@." repeat;
    exit 2
  end;
  let trace_fmt =
    match Sknn_obs.Trace.format_of_string trace_format with
    | Ok f -> f
    | Error msg ->
      Format.eprintf "%s@." msg;
      exit 2
  in
  (* --prom implies a registry even without --metrics (the flag controls
     the console print, the option the exposition file). *)
  let metrics_reg =
    if metrics || Option.is_some prom then Some (Sknn_obs.Metrics.create ()) else None
  in
  let audit_log = if audit then Some (Sknn_obs.Audit.create ()) else None in
  (* The flight recorder is always on (SKNN_FLIGHT=0 opts out): a fixed
     ring buffer cheap enough to carry through every run, dumped on
     demand or on decryption failure. *)
  let flight = Sknn_obs.Flight.default () in
  let make_ctx tr =
    Sknn_obs.Ctx.create ~trace:tr ?metrics:metrics_reg ?audit:audit_log ?flight ()
  in
  let new_trace () =
    if Option.is_some trace then Sknn_obs.Trace.create () else Sknn_obs.Trace.disabled
  in
  (* One trace file per run: run 0 keeps FILE (and includes setup), run
     i >= 1 goes to FILE with the index spliced before the extension —
     --repeat no longer clobbers a single output. *)
  let write_trace tr i =
    match trace with
    | None -> ()
    | Some path ->
      let path = Sknn_obs.Trace.indexed_path path i in
      let oc = open_out path in
      Sknn_obs.Trace.write tr trace_fmt oc;
      close_out oc;
      Format.printf "trace written to %s@." path
  in
  let guarded f = guarded ?flight ?flight_out f in
  let db = read_db data in
  let path, queries = guarded (fun () -> parse_round ~path_s query_s) in
  let m = Array.length queries in
  let config = guarded (fun () -> config_of_layout layout) in
  let d = Array.length queries.(0) in
  (match Config.validate config ~d with
   | Ok () -> ()
   | Error e ->
     Format.eprintf "configuration unsound for this data: %s@." e;
     exit 2);
  check_path config ~d path_s;
  let rng = Util.Rng.of_int seed in
  let trace0 = new_trace () in
  let obs0 = make_ctx trace0 in
  let dep, setup_s =
    Util.Timer.time (fun () -> guarded (fun () -> Protocol.deploy ~obs:obs0 ~rng ?jobs config ~db))
  in
  (* Every run of the round goes through the one driver; the packed
     path builds its query-independent state on the first. *)
  let run obs () = Protocol.query_gen ~path ~obs ?net dep ~queries ~k in
  let exacts rs = Array.map2 (fun q r -> Protocol.exact dep ~db ~query:q r) queries rs in
  let all = Array.for_all Fun.id in
  let results, round_s = Util.Timer.time (fun () -> guarded (run obs0)) in
  let r = results.(0) and ok = exacts results in
  write_trace trace0 0;
  let steady =
    List.init (repeat - 1) (fun i ->
        Gc.full_major ();
        let tr = new_trace () in
        let obs = make_ctx tr in
        let rs, t = Util.Timer.time (fun () -> guarded (run obs)) in
        write_trace tr (i + 1);
        (all (exacts rs), t))
  in
  if verbose then Format.printf "domains: %d@." (Protocol.jobs dep);
  Array.iteri
    (fun i (r : Protocol.result) ->
      if m = 1 then Format.printf "neighbours:@." else Format.printf "query %d neighbours:@." i;
      Array.iter (fun p -> Format.printf "  %a@." Point.pp p) r.Protocol.neighbours;
      Format.printf "%sexact: %b@." (if m = 1 then "" else "  ") ok.(i))
    results;
  if m = 1 then
    Format.printf "setup %a, query %a@." Util.Timer.pp_duration setup_s Util.Timer.pp_duration
      round_s
  else
    Format.printf "setup %a, batched round %a (%d queries, %a per query)@."
      Util.Timer.pp_duration setup_s Util.Timer.pp_duration round_s m Util.Timer.pp_duration
      (round_s /. float_of_int m);
  if repeat > 1 then begin
    let mean = List.fold_left (fun acc (_, t) -> acc +. t) 0.0 steady /. float_of_int (repeat - 1) in
    Format.printf "repeat %d (%s path): first %a, steady-state mean %a (%.1fx)@." repeat path_s
      Util.Timer.pp_duration round_s Util.Timer.pp_duration mean (round_s /. mean);
    List.iteri
      (fun i (ok, _) -> if not ok then Format.printf "run %d: exact: false@." (i + 2))
      steady
  end;
  if verbose then begin
    List.iter
      (fun (name, s) -> Format.printf "  %-20s %a@." name Util.Timer.pp_duration s)
      r.Protocol.phase_seconds;
    Format.printf "party A: %a@." Util.Counters.pp r.Protocol.counters_a;
    Format.printf "party B: %a@." Util.Counters.pp r.Protocol.counters_b;
    Format.printf "%a@." Transcript.pp r.Protocol.transcript
  end;
  let net_timeline = r.Protocol.net in
  (match net_timeline with
   | None -> ()
   | Some tl -> Format.printf "@.%a" print_timeline tl);
  (match audit_log with
   | None -> ()
   | Some a -> Format.printf "leakage audit:@.%a@." Sknn_obs.Audit.pp a);
  (match metrics_reg with
   | None -> ()
   | Some m -> if metrics then Format.printf "metrics:@.%a@." Sknn_obs.Metrics.pp m);
  (match prom, metrics_reg with
   | Some path, Some m ->
     let oc = open_out path in
     output_string oc (Sknn_obs.Metrics.to_prometheus m);
     close_out oc;
     Format.printf "prometheus exposition written to %s@." path
   | _ -> ());
  (match flight_out, flight with
   | None, _ -> ()
   | Some path, Some fl ->
     write_flight fl path
       ~run:
         [ ("cmd", "query"); ("data", data); ("k", string_of_int k);
           ("repeat", string_of_int repeat) ];
     Option.iter (append_net_records path) net_timeline;
     Format.printf "flight dump written to %s@." path
   | Some _, None -> Format.eprintf "--flight ignored: recorder disabled (SKNN_FLIGHT=0)@.");
  if all ok && List.for_all fst steady then 0
  else begin
    Format.eprintf "wrong answer: a neighbour set differs from plaintext k-NN@.";
    1
  end

let data_t = Arg.(required & opt (some file) None & info [ "data" ] ~doc:"Integer CSV database.")
let query_t =
  Arg.(required & opt (some string) None
       & info [ "query" ] ~doc:"Comma-separated query coordinates.")
let k_t = Arg.(value & opt int 5 & info [ "k" ] ~doc:"Number of neighbours.")
let seed_t = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"RNG seed.")

let profile_conv =
  Arg.conv
    ( (fun s ->
        match Profile.of_string s with Ok p -> Ok p | Error e -> Error (`Msg e)),
      fun ppf p -> Format.pp_print_string ppf (Profile.to_string p) )

let net_t =
  Arg.(value & opt (some profile_conv) None
       & info [ "net" ] ~docv:"PROFILE"
           ~doc:"Replay the communication under a virtual network profile: loopback \
                 | lan | wan | rtt_ms:bw_mbps (e.g. 40:100).  Timing derives only \
                 from the transcript's bytes and rounds — the already-audited \u{00a7}5 \
                 surface — so the timeline is identical for every --jobs count.")
let verbose_t = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print counters and transcript.")

let query_cmd =
  let layout =
    Arg.(value & opt string "per-coordinate"
         & info [ "layout" ] ~doc:"per-coordinate | dot-product | secure")
  in
  let jobs =
    Arg.(value & opt (some int) None
         & info [ "jobs" ]
             ~doc:"OCaml domains per parallel protocol phase (default: SKNN_DOMAINS or \
                   the recommended domain count).")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Write a hierarchical span trace of setup + query to $(docv).")
  in
  let trace_format =
    Arg.(value & opt string "chrome"
         & info [ "trace-format" ]
             ~doc:"Trace sink: chrome (Perfetto-loadable trace_event JSON), jsonl \
                   (one span per line) or pretty (indented tree).")
  in
  let audit =
    Arg.(value & flag
         & info [ "audit" ]
             ~doc:"Print the leakage-audit channel: exactly what each party's view \
                   exposed during the query.")
  in
  let metrics =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Print the metrics registry: phase latencies, BGV level / noise \
                   headroom samples, pool utilization, transcript bytes per link.")
  in
  let path =
    Arg.(value & opt string "plain"
         & info [ "path" ]
             ~doc:"Query pipeline: plain | packed.  plain runs the deployment's \
                   layout (on dot-product, the two-ciphertext inner-product query \
                   against the stored norms); packed uses the slot-packed (SIMD) \
                   layout, one ciphertext per $(b,N) points, and answers the \
                   ';'-separated --query list in one round under one permutation. \
                   packed needs affine masking and d <= ring degree (try \
                   --layout dot-product).")
  in
  let repeat =
    Arg.(value & opt int 1
         & info [ "repeat" ]
             ~doc:"Run the round $(docv) times and report first vs steady-state \
                   latency; the packed path builds its query-independent state \
                   on the first run.  Every run's answers are checked.  With \
                   --trace, run $(docv)'s spans go to FILE.$(docv).ext."
             ~docv:"N")
  in
  let prom =
    Arg.(value & opt (some string) None
         & info [ "prom" ] ~docv:"FILE"
             ~doc:"Write the metrics registry in Prometheus text exposition format to \
                   $(docv) (implies a registry even without --metrics).")
  in
  let flight_out =
    Arg.(value & opt (some string) None
         & info [ "flight" ] ~docv:"FILE"
             ~doc:"Dump the flight recorder (JSONL ring-buffer events) to $(docv) after \
                   the run.  On decryption failure the buffer is dumped to $(docv) — or \
                   sknn-flight-crash.jsonl if unset — automatically.")
  in
  Cmd.v (Cmd.info "query" ~doc:"Run a secure k-NN query over an encrypted CSV database")
    Term.(const query_run $ data_t $ query_t $ k_t $ layout $ path $ seed_t $ jobs $ repeat
          $ net_t $ verbose_t $ trace $ trace_format $ audit
          $ metrics $ prom $ flight_out)

(* ------------------------------------------------------------------ *)
(* report                                                              *)
(* ------------------------------------------------------------------ *)

let report_run files =
  let t = Sknn_obs.Report.create () in
  List.iter
    (fun f ->
      try Sknn_obs.Report.add_file t f
      with Sys_error e ->
        Format.eprintf "%s@." e;
        exit 2)
    files;
  Format.printf "%a@." Sknn_obs.Report.pp t;
  0

let report_cmd =
  let files =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"TRACE"
         ~doc:"jsonl trace files and/or flight dumps (any mix).")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Aggregate recorded traces into per-phase p50/p95/p99 latency, \
             bytes-per-link and noise-margin tables")
    Term.(const report_run $ files)

(* ------------------------------------------------------------------ *)
(* cost                                                                *)
(* ------------------------------------------------------------------ *)

(* Op-level cost attribution (DESIGN §5a): calibrate per-op unit costs
   on this machine, predict the query's ledger and phase times with the
   analytic replica, run the live query, and print both side by side.
   This subsumes the bench harness's Table 1 printout — the paper-style
   op-count rows land next to the calibrated microsecond attribution. *)

let calib_t =
  Arg.(value & opt (some string) None
       & info [ "calib" ] ~docv:"FILE"
           ~doc:"Calibration cache: JSON lines keyed by (parameter set, quick). A \
                 hit skips the measurement pass; an entry measured at another git \
                 revision or on another machine still hits but prints a staleness \
                 warning. Shared by sknn cost, sknn plan and the bench harness.")

let cost_run data query_s k layout path_s seed jobs net quick calib verbose json =
  let db = read_db data in
  let path, queries = guarded (fun () -> parse_round ~path_s query_s) in
  let config = guarded (fun () -> config_of_layout layout) in
  let d = Array.length queries.(0) in
  (match Config.validate config ~d with
   | Ok () -> ()
   | Error e ->
     Format.eprintf "configuration unsound for this data: %s@." e;
     exit 2);
  check_path config ~d path_s;
  let n = Array.length db in
  let rng = Util.Rng.of_int seed in
  Format.printf "calibrating per-op unit costs (%s pass%s)...@."
    (if quick then "quick" else "full")
    (match calib with Some f -> Printf.sprintf ", cache %s" f | None -> "");
  let unit_costs, calib_warnings =
    Kernel_bench.Calibration.measure_cached ~quick ?file:calib config.Config.bgv
  in
  List.iter (fun w -> Format.printf "warning: %s@." w) calib_warnings;
  if verbose then Format.printf "@.%a@." Kernel_bench.Calibration.pp unit_costs;
  let dep = guarded (fun () -> Protocol.deploy ~rng ?jobs config ~db) in
  let r = guarded (fun () -> (Protocol.query_gen ~path ?net dep ~queries ~k).(0)) in
  (* The one query above pays any prepare-db phase, so predict it too. *)
  let pred = Attribution.predict ~include_prepare:true config ~n ~d ~k path in
  let ledger_exact =
    Util.Counters.equal_ledger pred.CM.party_a r.Protocol.counters_a
    && Util.Counters.equal_ledger pred.CM.party_b r.Protocol.counters_b
    && Util.Counters.equal_ledger pred.CM.client r.Protocol.counters_client
  in
  let priced = CM.price ~unit_costs ?profile:net pred in
  let predicted = priced.CM.phase_s in
  Format.printf "@.instance: n=%d d=%d k=%d layout=%s path=%s@." n d k
    (Config.layout_name config.Config.layout)
    path_s;
  Format.printf "ledger: analytic replica %s the measured op ledger@."
    (if ledger_exact then "exactly matches" else "DIVERGES from");
  Format.printf "@.%-22s %12s %12s %8s@." "phase" "predicted" "measured" "ratio";
  let rows =
    List.map
      (fun (phase, measured_s) ->
        let predicted_s =
          match List.assoc_opt phase predicted with Some s -> s | None -> 0.0
        in
        (phase, predicted_s, measured_s))
      r.Protocol.phase_seconds
  in
  List.iter
    (fun (phase, p, ms) ->
      Format.printf "%-22s %11.6fs %11.6fs %7s@." phase p ms
        (if p > 0.0 then Printf.sprintf "%.2fx" (ms /. p) else "-"))
    rows;
  let tot f = List.fold_left (fun acc (_, p, ms) -> acc +. f p ms) 0.0 rows in
  let tot_p = tot (fun p _ -> p) and tot_m = tot (fun _ ms -> ms) in
  Format.printf "%-22s %11.6fs %11.6fs %7s@." "total" tot_p tot_m
    (if tot_p > 0.0 then Printf.sprintf "%.2fx" (tot_m /. tot_p) else "-");
  (* The paper's Table 1 rows for this path, predicted by the cost
     model vs measured. *)
  let t1p = Cost.predicted pred in
  let t1m = Cost.measured r in
  Format.printf "@.Table 1 (ours): predicted %a@.                measured  %a@." Cost.pp
    t1p Cost.pp t1m;
  (* Comms-aware end-to-end: the analytic compute critical path plus the
     virtual clock's replay of the predicted transcript, cross-checked
     against the replay of the transcript the live query just recorded.
     Rounds and bytes must agree exactly (the model emits the same
     messages the protocol sends); only the compute term is calibrated. *)
  let net_report =
    match net with
    | None -> None
    | Some profile ->
      let live = Clock.replay profile r.Protocol.transcript in
      let exact = Clock.same_traffic priced.CM.timeline live in
      Format.printf
        "@.network (%s): predicted end-to-end %.6fs = compute %.6fs + wire %.6fs@."
        (Profile.to_string profile) priced.CM.total_s priced.CM.compute_s
        priced.CM.wire_s;
      List.iter
        (fun (party, s) -> Format.printf "  compute %-12s %11.6fs@." party s)
        priced.CM.party_s;
      Format.printf "  live transcript replayed: wire %.6fs; rounds/bytes %s the \
                     prediction@."
        live.Clock.end_to_end_s
        (if exact then "exactly match" else "DIVERGE from");
      Format.printf "%a" print_timeline live;
      Some (profile, live, exact)
  in
  let transcript_exact =
    match net_report with None -> true | Some (_, _, exact) -> exact
  in
  (* Mirror the attribution into the flight recorder, so post-mortem
     dumps carry it next to the phase/noise stream. *)
  (match Sknn_obs.Flight.default () with
   | None -> ()
   | Some fl ->
     List.iter
       (fun (phase, p, ms) ->
         Sknn_obs.Flight.record fl Sknn_obs.Flight.Mark ~name:("cost:" ^ phase) ~x:p ();
         ignore ms)
       rows);
  (match json with
   | None -> ()
   | Some path ->
     let oc = open_out path in
     Util.Json.(
       output_line oc (Kernel_bench.Calibration.to_json unit_costs);
       output_line oc
         (Obj
            [ ("rec", Str "cost");
              ("path", Str path_s);
              ("n", Int n);
              ("d", Int d);
              ("k", Int k);
              ("ledger_exact", Bool ledger_exact);
              ( "phases",
                List
                  (List.map
                     (fun (phase, p, ms) ->
                       Obj
                         [ ("phase", Str phase);
                           ("predicted_s", Float p);
                           ("measured_s", Float ms) ])
                     rows) ) ]);
       match net_report with
       | None -> ()
       | Some (profile, live, exact) ->
         output_line oc
           (Obj
              [ ("rec", Str "cost-net");
                ("profile", Str (Profile.to_string profile));
                ("predicted_total_s", Float priced.CM.total_s);
                ("predicted_compute_s", Float priced.CM.compute_s);
                ("predicted_wire_s", Float priced.CM.wire_s);
                ("replayed_wire_s", Float live.Clock.end_to_end_s);
                ("transcript_exact", Bool exact) ]));
     close_out oc;
     Format.printf "@.cost report written to %s@." path);
  if not (ledger_exact && transcript_exact) then 1 else 0

let cost_cmd =
  let layout =
    Arg.(value & opt string "per-coordinate"
         & info [ "layout" ] ~doc:"per-coordinate | dot-product | secure")
  in
  let path =
    Arg.(value & opt string "plain"
         & info [ "path" ]
             ~doc:"Query pipeline to attribute: plain | packed (packed answers \
                   the ';'-separated --query list in one round).")
  in
  let jobs =
    Arg.(value & opt (some int) None & info [ "jobs" ] ~doc:"OCaml domains.")
  in
  let quick =
    Arg.(value & flag
         & info [ "quick" ] ~doc:"Shorter calibration windows (CI smoke).")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the calibration table and per-phase attribution as JSON \
                   lines to $(docv); feed it to sknn report to see the attribution \
                   next to recorded latencies.")
  in
  Cmd.v
    (Cmd.info "cost"
       ~doc:"Attribute a query's time op by op: calibrated analytic prediction vs \
             measured phases")
    Term.(const cost_run $ data_t $ query_t $ k_t $ layout $ path $ seed_t $ jobs
          $ net_t $ quick $ calib_t $ verbose_t $ json)

(* ------------------------------------------------------------------ *)
(* plan                                                                *)
(* ------------------------------------------------------------------ *)

(* Automatic parameter planning (DESIGN §6): describe the workload, let
   Planner.plan search the (ring degree, chain, plaintext prime) space
   for the cheapest parameter set that clears the noise margin and the
   security floor, and print the ranked survivors next to what the
   matching preset would cost at the same workload under the same
   calibrated unit model. *)

let plan_run points dims k coord_bits layout_s path_s batch_m mask_degree
    mask_coeff_bits min_security noise_margin net keep preset_s quick calib json_path
    apply seed jobs =
  let layout =
    match layout_s with
    | "per-coordinate" -> Config.Per_coordinate
    | "dot-product" -> Config.Dot_product
    | other ->
      Format.eprintf "unknown layout %S (per-coordinate | dot-product)@." other;
      exit 2
  in
  let path = path_of_string ~queries:batch_m path_s in
  let ref_params =
    match preset_s with
    | "toy" -> Params.toy ()
    | "bench-small" -> Params.bench_small ()
    | "bench" -> Params.bench ()
    | "secure" -> Params.secure ()
    | other ->
      Format.eprintf "unknown preset %S (toy | bench-small | bench | secure)@." other;
      exit 2
  in
  let w =
    Planner.workload ~layout ~path ~mask_degree ~mask_coeff_bits ~points ~dim:dims ~k
      ~coord_bits ()
  in
  Format.printf "calibrating per-op unit costs on %s (%s pass%s)...@."
    ref_params.Params.name
    (if quick then "quick" else "full")
    (match calib with Some f -> Printf.sprintf ", cache %s" f | None -> "");
  let costs, calib_warnings =
    Kernel_bench.Calibration.measure_cached ~quick ?file:calib ref_params
  in
  List.iter (fun w -> Format.printf "warning: %s@." w) calib_warnings;
  let unit_model = CM.fit_unit_model ~n:ref_params.Params.n costs in
  let limits =
    { Planner.min_security_bits = min_security; noise_margin_bits = noise_margin; net }
  in
  let outcome = guarded (fun () -> Planner.plan ~keep ~unit_model w limits) in
  Format.printf "@.%a@." Planner.pp_outcome outcome;
  (* What the matching preset costs at this workload under the same unit
     model — the number the planner's winner has to beat. *)
  let preset_config =
    let base =
      match layout with
      | Config.Per_coordinate -> Config.standard ()
      | Config.Dot_product -> Config.fast ()
    in
    if path = CM.Plain then base else Config.with_mask_degree 1 base
  in
  let comparison =
    match Config.validate preset_config ~d:dims with
    | Error e ->
      Format.printf "preset comparison skipped (%s)@." e;
      None
    | Ok () ->
      let bgv = preset_config.Config.bgv in
      let unit_costs =
        CM.unit_costs_for unit_model ~n:bgv.Params.n ~levels:(Params.chain_length bgv)
      in
      (* Priced as the planner prices its entries, under the same
         network term, or the comparison is apples to oranges. *)
      let pred =
        Attribution.predict ~include_prepare:false preset_config ~n:points ~d:dims ~k path
      in
      Some (bgv.Params.name, (CM.price ~unit_costs ?profile:net pred).CM.total_s)
  in
  (match comparison, Planner.best outcome with
   | Some (pname, preset_s), Some best ->
     Format.printf "@.vs preset %s at the same workload (same unit model):@." pname;
     Format.printf "  preset:  %.6fs@." preset_s;
     Format.printf "  planned: %.6fs  (speedup %.2fx)@." best.Planner.seconds
       (if best.Planner.seconds > 0.0 then preset_s /. best.Planner.seconds else 0.0)
   | _ -> ());
  (match json_path with
   | None -> ()
   | Some path ->
     let oc = open_out path in
     output_string oc (Planner.json_of_outcome outcome);
     output_char oc '\n';
     (match comparison, Planner.best outcome with
      | Some (pname, preset_s), Some best ->
        Util.Json.(
          output_line oc
            (Obj
               [ ("rec", Str "plan-compare");
                 ("preset", Str pname);
                 ("preset_s", Float preset_s);
                 ("planned_s", Float best.Planner.seconds) ]))
      | _ -> ());
     close_out oc;
     Format.printf "plan written to %s@." path);
  if not apply then
    if outcome.Planner.ranked = [] then 1 else 0
  else
    match Planner.best outcome with
    | None ->
      Format.eprintf "no feasible plan to apply@.";
      1
    | Some best ->
      let s = best.Planner.spec in
      Format.printf
        "@.applying plan n=%d chain=%dx%d-bit t_bits=%d: live query at the workload \
         shape@."
        s.Planner.sp_n s.Planner.sp_chain_len s.Planner.sp_prime_bits
        s.Planner.sp_plain_bits;
      let config = Planner.realize w best in
      let rng = Util.Rng.of_int seed in
      let max_value = (1 lsl coord_bits) - 1 in
      let db = Synthetic.uniform rng ~n:points ~d:dims ~max_value in
      let q = Synthetic.query_like rng db in
      let queries =
        match path with
        | CM.Packed m ->
          Array.init m (fun i -> if i = 0 then q else Synthetic.query_like rng db)
        | CM.Plain -> [| q |]
      in
      let dep = guarded (fun () -> Protocol.deploy ~rng ?jobs config ~db) in
      let r, secs =
        Util.Timer.time (fun () ->
            guarded (fun () -> (Protocol.query_gen ~path dep ~queries ~k).(0)))
      in
      let ok = Protocol.exact dep ~db ~query:q r in
      Format.printf "live query: %a, exact=%b@." Util.Timer.pp_duration secs ok;
      if ok then 0 else 1

let plan_cmd =
  let points =
    Arg.(value & opt int 858 & info [ "points"; "n" ] ~doc:"Database size n.")
  in
  let dims = Arg.(value & opt int 32 & info [ "dims"; "d" ] ~doc:"Dimension d.") in
  let coord_bits =
    Arg.(value & opt int 8
         & info [ "coord-bits" ] ~doc:"Coordinates fit in this many bits.")
  in
  let layout =
    Arg.(value & opt string "per-coordinate"
         & info [ "layout" ] ~doc:"per-coordinate | dot-product")
  in
  let path =
    Arg.(value & opt string "plain"
         & info [ "path" ]
             ~doc:"Query pipeline to plan for: plain | packed.")
  in
  let batch_m =
    Arg.(value & opt int 1
         & info [ "batch" ] ~docv:"M"
             ~doc:"Queries per round on --path packed (one round answers $(docv) \
                   queries under one permutation).")
  in
  let mask_degree =
    Arg.(value & opt int 1 & info [ "mask-degree" ] ~doc:"Masking-polynomial degree.")
  in
  let mask_coeff_bits =
    Arg.(value & opt int 8
         & info [ "mask-coeff-bits" ]
             ~doc:"Required sound mask-coefficient width in bits.")
  in
  let min_security =
    Arg.(value & opt float 0.0
         & info [ "min-security" ] ~docv:"BITS"
             ~doc:"RLWE security floor in bits (0 disables the prune).")
  in
  let noise_margin =
    Arg.(value & opt float 4.0
         & info [ "noise-margin" ] ~docv:"BITS"
             ~doc:"Forecast noise headroom every phase must keep.")
  in
  let keep =
    Arg.(value & opt int 10 & info [ "keep" ] ~doc:"Ranked candidates to report.")
  in
  let preset =
    Arg.(value & opt string "bench-small"
         & info [ "preset" ]
             ~doc:"Parameter set the unit model is calibrated on: toy | \
                   bench-small | bench | secure.")
  in
  let quick =
    Arg.(value & flag
         & info [ "quick" ] ~doc:"Shorter calibration windows (CI smoke).")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the ranked plan and the preset comparison as JSON lines \
                   to $(docv).")
  in
  let apply =
    Arg.(value & flag
         & info [ "apply" ]
             ~doc:"Realize the winning candidate (build its NTT/CRT tables) and \
                   run one live query on synthetic data of the workload shape; \
                   exit nonzero unless it returns the exact neighbours.")
  in
  let jobs =
    Arg.(value & opt (some int) None & info [ "jobs" ] ~doc:"OCaml domains.")
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:"Search the (ring degree, chain, plaintext prime) space for the \
             cheapest parameter set a workload can prove safe")
    Term.(const plan_run $ points $ dims $ k_t $ coord_bits $ layout $ path
          $ batch_m $ mask_degree $ mask_coeff_bits $ min_security $ noise_margin
          $ net_t $ keep $ preset $ quick $ calib_t $ json $ apply $ seed_t $ jobs)

(* ------------------------------------------------------------------ *)
(* baseline                                                            *)
(* ------------------------------------------------------------------ *)

let baseline_run data query_s k modulus_bits seed =
  let db = read_db data in
  let q = guarded (fun () -> parse_query query_s) in
  let rng = Util.Rng.of_int seed in
  let dep, setup_s =
    Util.Timer.time (fun () -> Sknn_m.deploy ~rng ~modulus_bits ~db ())
  in
  let r, qs = Util.Timer.time (fun () -> Sknn_m.query dep ~query:q ~k) in
  Format.printf "neighbours:@.";
  Array.iter (fun p -> Format.printf "  %a@." Point.pp p) r.Sknn_m.neighbours;
  let ok = Sknn_m.exact dep ~db ~query:q r in
  Format.printf "exact: %b@." ok;
  Format.printf "setup %a, query %a, C1<->C2 interactions %d@." Util.Timer.pp_duration setup_s
    Util.Timer.pp_duration qs r.Sknn_m.interactions;
  if ok then 0 else 1

let baseline_cmd =
  let modulus =
    Arg.(value & opt int 256 & info [ "modulus-bits" ] ~doc:"Paillier modulus size.")
  in
  Cmd.v
    (Cmd.info "baseline" ~doc:"Run the Yousef et al. Paillier baseline (slow by design)")
    Term.(const baseline_run $ data_t $ query_t $ k_t $ modulus $ seed_t)

(* ------------------------------------------------------------------ *)
(* kmeans                                                              *)
(* ------------------------------------------------------------------ *)

let kmeans_run data k max_iters seed =
  let db = read_db data in
  if k < 1 || k > Array.length db then begin
    Format.eprintf "error: k out of range@.";
    exit 2
  end;
  let rng = Util.Rng.of_int seed in
  let init = Array.init k (fun i -> db.(i * (Array.length db / k))) in
  let dep = guarded (fun () -> Kmeans.deploy ~rng (Config.fast ()) ~db) in
  let r = guarded (fun () -> Kmeans.run ~rng ~max_iters dep ~init) in
  Format.printf "converged=%b after %d iterations (%a)@." r.Kmeans.converged
    r.Kmeans.iterations Util.Timer.pp_duration r.Kmeans.seconds;
  Array.iteri
    (fun i c -> Format.printf "  cluster %d (%d points): %a@." (i + 1) r.Kmeans.sizes.(i)
        Point.pp c)
    r.Kmeans.centroids;
  let ok = Kmeans.matches_plaintext ~db ~init ~max_iters r in
  Format.printf "identical to plaintext Lloyd: %b@." ok;
  if ok then 0 else 1

let kmeans_cmd =
  let k = Arg.(value & opt int 3 & info [ "k" ] ~doc:"Cluster count.") in
  let iters = Arg.(value & opt int 25 & info [ "max-iters" ] ~doc:"Iteration cap.") in
  Cmd.v (Cmd.info "kmeans" ~doc:"Secure k-means clustering over an encrypted CSV database")
    Term.(const kmeans_run $ data_t $ k $ iters $ seed_t)

(* ------------------------------------------------------------------ *)
(* apriori                                                             *)
(* ------------------------------------------------------------------ *)

let apriori_run data minsup max_size seed =
  let tx = read_db data in
  let rng = Util.Rng.of_int seed in
  let dep = guarded (fun () -> Apriori.deploy ~rng (Config.standard ()) ~transactions:tx) in
  let r = guarded (fun () -> Apriori.mine ~rng ~max_size dep ~minsup) in
  Format.printf "%d frequent itemsets (support >= %d) in %a:@."
    (List.length r.Apriori.frequent) minsup Util.Timer.pp_duration r.Apriori.seconds;
  List.iter
    (fun s -> Format.printf "  {%s}@." (String.concat ", " (List.map string_of_int s)))
    r.Apriori.frequent;
  let ok = Apriori.matches_plaintext ~transactions:tx ~minsup ~max_size r in
  Format.printf "identical to plaintext Apriori: %b@." ok;
  if ok then 0 else 1

let apriori_cmd =
  let minsup = Arg.(value & opt int 10 & info [ "minsup" ] ~doc:"Support threshold.") in
  let max_size = Arg.(value & opt int 4 & info [ "max-size" ] ~doc:"Largest itemset.") in
  Cmd.v
    (Cmd.info "apriori" ~doc:"Secure frequent-itemset mining over encrypted 0/1 transactions")
    Term.(const apriori_run $ data_t $ minsup $ max_size $ seed_t)

(* ------------------------------------------------------------------ *)
(* info                                                                *)
(* ------------------------------------------------------------------ *)

let info_run () =
  List.iter
    (fun (name, c) ->
      Format.printf "--- %s ---@.%a@.@." name Config.pp c)
    [ ("per-coordinate (standard)", Config.standard ());
      ("dot-product (fast)", Config.fast ());
      ("secure (128-bit ring)", Config.secure ()) ];
  0

let info_cmd =
  Cmd.v (Cmd.info "info" ~doc:"Show parameter presets and security estimates")
    Term.(const info_run $ const ())

let () =
  let doc = "Secure k-nearest neighbours over encrypted data (EDBT 2018 reproduction)" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "sknn" ~doc)
          [ gen_cmd; query_cmd; cost_cmd; plan_cmd; baseline_cmd; kmeans_cmd;
            apriori_cmd; info_cmd; report_cmd ]))
