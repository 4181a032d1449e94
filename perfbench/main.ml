(* perfbench: the secure k-NN protocol under a closed loop with one
   client.  The client sends its next query (or slot batch) only after
   the previous round's answer is decrypted; every answer is checked
   against the benchmark's own brute-force k-NN.  Everything runs in one
   process on one domain.  See perfbench/README.md for the workloads,
   the metrics and the noise evidence behind these choices.

     main.exe --workload plain-k2 --seed 1 --seconds 25 --trace 0

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
   metrics are the end-to-end ones, with --trace 1 the per-layer ones
   from a traced run.  The line before it is a report with provenance,
   sample counts and the exact-count guard. *)

(* Set-ups per run; setup_s is their median. *)
let setups = 3

(* The first [fixed_rounds] rounds of every run are the same for a seed:
   their byte and ledger counts must repeat exactly, wire_bytes_per_query
   averages over them and peak_heap_mb is read after them.  The loop
   runs at least this many rounds, then until --seconds have passed. *)
let fixed_rounds = 12

let stream_length = 1024

type opts = {
  name : string;
  wl : Sut.workload;
  seed : int;
  seconds : float;
  trace : bool;
  state_dir : string;
}

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.0

(* ------------------------------------------------------------------ *)
(* Output                                                               *)
(* ------------------------------------------------------------------ *)

type json = Num of float | Int of int | Str of string | Bool of bool | Obj of (string * json) list

let rec to_json buf = function
  | Num f when Float.is_integer f && Float.abs f < 1e15 -> Printf.bprintf buf "%.1f" f
  | Num f when Float.is_finite f -> Printf.bprintf buf "%.17g" f
  | Num _ -> Buffer.add_string buf "null"
  | Int i -> Printf.bprintf buf "%d" i
  | Bool b -> Printf.bprintf buf "%b" b
  | Str s ->
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' | '\\' -> Printf.bprintf buf "\\%c" c
        | c when Char.code c < 0x20 -> Printf.bprintf buf "\\u%04x" (Char.code c)
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ", ";
        to_json buf (Str k);
        Buffer.add_string buf ": ";
        to_json buf v)
      kvs;
    Buffer.add_char buf '}'

let json_line v =
  let buf = Buffer.create 1024 in
  to_json buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Provenance and host noise                                            *)
(* ------------------------------------------------------------------ *)

let read_lines file =
  match open_in file with
  | exception Sys_error _ -> []
  | ic ->
    let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc in
    let lines = go [] in
    close_in ic;
    lines

let cpu_model () =
  match
    List.find_map
      (fun l ->
        match String.index_opt l ':' with
        | Some i when String.trim (String.sub l 0 i) = "model name" ->
          Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
        | _ -> None)
      (read_lines "/proc/cpuinfo")
  with
  | Some m -> m
  | None -> "unknown"

(* Host steal ticks (all CPUs), the eighth field of /proc/stat's cpu line. *)
let steal_ticks () =
  match read_lines "/proc/stat" with
  | l :: _ when String.length l > 4 && String.sub l 0 4 = "cpu " ->
    (match List.filter (( <> ) "") (String.split_on_char ' ' l) with
     | _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ -> int_of_string_opt steal
     | _ -> None)
  | _ -> None

let env name = Option.value ~default:"unknown" (Sys.getenv_opt name)

(* ------------------------------------------------------------------ *)
(* Inputs and the exact-count guard                                     *)
(* ------------------------------------------------------------------ *)

let digest_ints rows =
  let buf = Buffer.create 65536 in
  Array.iter
    (fun r ->
      Array.iter (fun x -> Printf.bprintf buf "%d," x) r;
      Buffer.add_char buf ';')
    rows;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let counts_digest (c : Sut.counts) =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "%d %d %d %d %d %d" c.Sut.a_to_b c.Sut.b_to_a c.Sut.client_bytes
    c.Sut.total_bytes c.Sut.messages c.Sut.ab_rounds;
  List.iter (fun (p, op, l, n) -> Printf.bprintf buf " %s.%s@%d=%d" p op l n) c.Sut.ledger;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let round_seed ~seed i = Hashtbl.hash (seed, "round", i)
let deploy_seed ~seed = Hashtbl.hash (seed, "deploy")

(* The counts of a seed's fixed rounds are written by the first run of
   that seed in a checkout and compared by every later run, traced or
   not.  The file is keyed by the source digest, so a code change starts
   a fresh record instead of tripping the guard. *)
let guard opts lines =
  let file =
    Filename.concat opts.state_dir
      (Printf.sprintf "counts-%s-%s-%d.txt" (env "PERFBENCH_SOURCE") opts.name opts.seed)
  in
  match read_lines file with
  | _ when Sys.getenv_opt "PERFBENCH_SOURCE" = None -> ("skipped: no source digest", true)
  | [] ->
    (try
       if not (Sys.file_exists opts.state_dir) then Sys.mkdir opts.state_dir 0o755;
       let oc = open_out file in
       List.iter (fun l -> output_string oc (l ^ "\n")) lines;
       close_out oc
     with Sys_error e -> prerr_endline ("perfbench: cannot record counts: " ^ e));
    ("recorded", true)
  | previous -> if previous = lines then ("matched", true) else ("MISMATCH " ^ file, false)

(* ------------------------------------------------------------------ *)
(* Rounds                                                               *)
(* ------------------------------------------------------------------ *)

type layer = {
  spans : Sut.span_totals;
  gc_minor_s : float;
  gc_major_slice_s : float;
  gc_minor_words : float;
  gc_major_words : float;
  gc_minor_collections : int;
  gc_major_collections : int;
  lan_s : float;
  wan_s : float;
}

type sample = {
  index : int;
  latency : float;  (* wall seconds of the Protocol call *)
  size : int;  (* queries in the round *)
  exact : int;  (* of them, answered exactly *)
  counts : Sut.counts option;  (* None when the round raised *)
  layer : layer option;  (* traced rounds only *)
}

let round_queries queries ~m i =
  Array.init m (fun j -> queries.(((i * m) + j) mod Array.length queries))

let check_round tally idx ~k qs outcome =
  Array.to_list qs
  |> List.mapi (fun j query ->
         let answer = Result.map (fun a -> a.(j)) outcome in
         Check.record tally idx ~query ~k answer)
  |> List.filter Fun.id |> List.length

let play ?gc opts dep tally idx queries ~traced i =
  let m = Sut.batch opts.wl and k = Sut.k opts.wl in
  let qs = round_queries queries ~m i in
  let rng_seed = round_seed ~seed:opts.seed i in
  let run () =
    if traced then
      let r, spans = Sut.run_round_traced dep ~queries:qs ~rng_seed in
      (r, Some spans)
    else (Sut.run_round dep ~queries:qs ~rng_seed, None)
  in
  let gc0 = Gc.quick_stat () in
  let t0 = now () in
  let outcome =
    match gc with
    | Some probe when traced ->
      (match Gcprobe.around probe run with
       | x, minor, slice -> Ok (x, Some (minor, slice))
       | exception e -> Error e)
    | _ -> ( match run () with x -> Ok (x, None) | exception e -> Error e)
  in
  let latency = now () -. t0 in
  let gc1 = Gc.quick_stat () in
  let answers = Result.map (fun ((r, _), _) -> Sut.answers r) outcome in
  let exact = check_round tally idx ~k qs answers in
  let counts, layer =
    match outcome with
    | Error e ->
      Printf.eprintf "perfbench: round %d raised %s\n%!" i (Printexc.to_string e);
      (None, None)
    | Ok ((r, spans), gc_s) ->
      let layer =
        Option.map
          (fun spans ->
            let minor, slice = Option.value ~default:(0.0, 0.0) gc_s in
            let lan_s, wan_s = Sut.wire_seconds r in
            { spans;
              gc_minor_s = minor;
              gc_major_slice_s = slice;
              gc_minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
              gc_major_words = gc1.Gc.major_words -. gc0.Gc.major_words;
              gc_minor_collections = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
              gc_major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
              lan_s;
              wan_s })
          spans
      in
      (Some (Sut.counts r), layer)
  in
  { index = i; latency; size = m; exact; counts; layer }

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)
(* ------------------------------------------------------------------ *)

let median_of f xs = Stats.median (Array.of_list (List.map f xs))
let assoc0 name l = Option.value ~default:0.0 (List.assoc_opt name l)

(* The per-layer metric names, fixed across workloads so every traced
   run prints the same set.  The unit-cost cells are the union of the
   (op, level) cells the three workloads' ledgers use. *)
let priced_ops =
  [ "encrypt"; "decrypt"; "ct_add"; "ct_mul"; "mul_plain"; "modswitch"; "level_drop";
    "key_switch"; "slot_pack"; "slot_unpack" ]

let unit_cells =
  [ ("encrypt", 6); ("encrypt", 10); ("decrypt", 4); ("decrypt", 5); ("decrypt", 6); ("decrypt", 7);
    ("ct_add", 4); ("ct_add", 5); ("ct_add", 6); ("ct_add", 7); ("ct_add", 10); ("ct_mul", 6);
    ("ct_mul", 7); ("ct_mul", 10); ("mul_plain", 6); ("mul_plain", 7); ("modswitch", 5);
    ("modswitch", 6); ("modswitch", 7); ("modswitch", 8); ("modswitch", 9); ("modswitch", 10);
    ("level_drop", 6); ("level_drop", 7); ("slot_pack", 0); ("slot_unpack", 0) ]

let end_to_end ~setup_times ~deployment_words ~peak_words ~loop_s samples tally =
  let timed = List.filter (fun s -> s.counts <> None) samples in
  let latencies =
    Array.of_list (List.concat_map (fun s -> List.init s.size (fun _ -> s.latency)) timed)
  in
  let tail_p, tail = Stats.tail latencies in
  let fixed = List.filter (fun s -> s.index < fixed_rounds && s.counts <> None) samples in
  let wire =
    List.fold_left
      (fun acc s ->
        let c = Option.get s.counts in
        acc +. (float_of_int c.Sut.total_bytes /. float_of_int s.size))
      0.0 fixed
    /. float_of_int (List.length fixed)
  in
  let exact_in_loop = List.fold_left (fun acc s -> acc + s.exact) 0 samples in
  let metrics =
    [ ("setup_s", Stats.median (Array.of_list setup_times), "s");
      ("query_p50_s", Stats.median latencies, "s");
      ("query_tail_s", tail, "s");
      ("queries_per_s", float_of_int exact_in_loop /. loop_s, "1/s");
      ("wire_bytes_per_query", wire, "B");
      ("peak_heap_mb", mb peak_words, "MB");
      ("deployment_mb", mb deployment_words, "MB");
      ("exact_query_share", float_of_int tally.Check.exact /. float_of_int tally.Check.sent, "share") ]
  in
  let samples_behind =
    [ ("setup_s", Int (List.length setup_times));
      ("query_p50_s", Int (Array.length latencies));
      ("query_tail_s", Int (Array.length latencies));
      ("query_tail_percentile", Int tail_p);
      ("queries_per_s", Int exact_in_loop);
      ("wire_bytes_per_query", Int (List.length fixed));
      ("peak_heap_mb", Int fixed_rounds);
      ("exact_query_share", Int tally.Check.sent) ]
  in
  (metrics, samples_behind)

let per_layer opts ~setup_spans ~owner_encryptions ~setup_bytes ~kernels ~unit_cost
    ~untraced_p50 samples =
  let traced = List.filter_map (fun s -> Option.map (fun l -> (s, l)) s.layer) samples in
  let fixed_counts =
    List.filter_map (fun (s, _) -> if s.index < fixed_rounds then s.counts else None) traced
  in
  let med f = median_of (fun (_, l) -> f l) traced in
  let med_counts f = median_of f fixed_counts in
  let med_setup f = median_of f setup_spans in
  let phase name l = assoc0 name l.spans.Sut.phases in
  let round_s l = l.spans.Sut.round_s in
  let ledger_sum pred (c : Sut.counts) =
    float_of_int
      (List.fold_left (fun acc (p, op, _, n) -> if pred p op then acc + n else acc) 0 c.Sut.ledger)
  in
  let party p = ledger_sum (fun p' _ -> p' = p) in
  let priced (s, _) =
    match s.counts with
    | Some c ->
      List.fold_left (fun acc (_, op, lvl, n) -> acc +. (float_of_int n *. unit_cost op lvl)) 0.0 c.Sut.ledger
    | None -> nan
  in
  let ntt_f, ntt_i, rq_mul = kernels in
  let s_ v = (v, "s") and c_ v = (v, "count") and b_ v = (v, "B") in
  List.map (fun (name, (v, unit)) -> (name, v, unit))
    ([ ("protocol.round_s", s_ (med round_s));
       ("protocol.self_s", s_ (med (fun l -> round_s l -. List.fold_left (fun a (_, d) -> a +. d) 0.0 l.spans.Sut.phases)));
       ("protocol.trace_overhead", (med round_s /. untraced_p50, "ratio"));
       ("client.encrypt_query_s", s_ (med (phase "encrypt-query")));
       ("client.decrypt_result_s", s_ (med (phase "decrypt-result")));
       ("client.ops", c_ (med_counts (party "client")));
       ("party_a.compute_distances_s", s_ (med (phase "compute-distances")));
       ("party_a.select_row_s", s_ (med (fun l -> assoc0 "select-row" l.spans.Sut.chunks)));
       ("party_a.slot_fill", (Sut.slot_fill opts.wl ~n:Sut.db_rows, "ratio"));
       ("party_a.ops", c_ (med_counts (party "party-a")));
       ( "party_a.prepare_s",
         s_ (med_setup (fun (x : Sut.setup_spans) -> x.Sut.setup_s -. x.Sut.keygen_s -. x.Sut.encrypt_db_s)) );
       ("party_b.find_neighbours_s", s_ (med (phase "find-neighbours")));
       ("party_b.topk_s", s_ (med (fun l -> assoc0 "select-top-k" l.spans.Sut.stages)));
       ("party_b.indicator_encrypt_s", s_ (med (fun l -> assoc0 "indicator-row" l.spans.Sut.chunks)));
       ("party_b.ops", c_ (med_counts (party "party-b")));
       ("data_owner.keygen_s", s_ (med_setup (fun (x : Sut.setup_spans) -> x.Sut.keygen_s)));
       ("data_owner.encrypt_db_s", s_ (med_setup (fun (x : Sut.setup_spans) -> x.Sut.encrypt_db_s)));
       ("data_owner.encryptions", c_ (float_of_int owner_encryptions)) ]
    @ List.map (fun op -> ("bgv.ops." ^ op, c_ (med_counts (ledger_sum (fun _ op' -> op' = op))))) priced_ops
    @ List.map
        (fun (op, lvl) -> (Printf.sprintf "bgv.unit_us.%s.L%d" op lvl, (unit_cost op lvl *. 1e6, "us")))
        unit_cells
    @ [ ("bgv.priced_s", s_ (median_of priced traced));
        ("bgv.unpriced_s", s_ (median_of (fun ((_, l) as x) -> round_s l -. priced x) traced));
        ("bgv.min_noise_budget_bits", (med (fun l -> l.spans.Sut.min_noise_bits), "bits"));
        ("ntt.forward_ns", (ntt_f, "ns"));
        ("ntt.inverse_ns", (ntt_i, "ns"));
        ("rq.mul_ns", (rq_mul, "ns"));
        ("ntt.passes", c_ (med_counts (ledger_sum (fun _ op -> op = "ntt_fwd" || op = "ntt_inv"))));
        ("netsim.a_to_b_bytes", b_ (med_counts (fun c -> float_of_int c.Sut.a_to_b)));
        ("netsim.b_to_a_bytes", b_ (med_counts (fun c -> float_of_int c.Sut.b_to_a)));
        ("netsim.client_bytes", b_ (med_counts (fun c -> float_of_int c.Sut.client_bytes)));
        ("netsim.messages", c_ (med_counts (fun c -> float_of_int c.Sut.messages)));
        ("netsim.ab_rounds", c_ (med_counts (fun c -> float_of_int c.Sut.ab_rounds)));
        ("netsim.setup_bytes", b_ (float_of_int setup_bytes));
        ("netsim.lan_s", (med (fun l -> l.lan_s), "virtual_s"));
        ("netsim.wan_s", (med (fun l -> l.wan_s), "virtual_s"));
        ("gc.minor_words", (med (fun l -> l.gc_minor_words), "words"));
        ("gc.major_words", (med (fun l -> l.gc_major_words), "words"));
        ("gc.minor_collections", c_ (med (fun l -> float_of_int l.gc_minor_collections)));
        ("gc.major_collections", c_ (med (fun l -> float_of_int l.gc_major_collections)));
        ("gc.minor_s", s_ (med (fun l -> l.gc_minor_s)));
        ("gc.major_slice_s", s_ (med (fun l -> l.gc_major_slice_s))) ])

(* Quartiles and extremes of the round latencies: how much the host
   moved within this run. *)
let round_spread samples =
  let l = Array.of_list (List.map (fun s -> s.latency) samples) in
  [ ("min", Stats.percentile l 0); ("p25", Stats.percentile l 25); ("p50", Stats.median l);
    ("p75", Stats.percentile l 75); ("max", Stats.percentile l 100) ]

(* ------------------------------------------------------------------ *)
(* The run                                                              *)
(* ------------------------------------------------------------------ *)

let run opts =
  let steal0 = steal_ticks () in
  let db, queries = Sut.make_inputs ~seed:opts.seed ~stream:stream_length in
  let idx = Check.index db in
  let inputs_digest = digest_ints (Array.append db queries) in
  let dseed = deploy_seed ~seed:opts.seed in
  (* Set-up, several times; the last deployment serves the queries. *)
  let dep = ref None and setup_times = ref [] and setup_spans = ref [] and setup_digests = ref [] in
  for _ = 1 to setups do
    dep := None;
    Gc.full_major ();
    let d =
      if opts.trace then begin
        let d, spans = Sut.setup_traced opts.wl ~db ~seed:dseed in
        setup_spans := spans :: !setup_spans;
        d
      end
      else begin
        let t0 = now () in
        let d = Sut.setup opts.wl ~db ~seed:dseed in
        setup_times := (now () -. t0) :: !setup_times;
        d
      end
    in
    setup_digests := counts_digest (Sut.setup_counts d) :: !setup_digests;
    dep := Some d
  done;
  let dep = Option.get !dep in
  Gc.full_major ();
  let deployment_words = (Gc.stat ()).Gc.live_words in
  let setup_counts = Sut.setup_counts dep in
  (* Per-layer context measured before the loop, outside every timing. *)
  let layer_ctx =
    if opts.trace then Some (Sut.calibrate opts.wl, Sut.kernel_ns (), Gcprobe.start ()) else None
  in
  let tally = Check.tally () in
  (* Warm-up: round 0, untraced; its counts must equal the timed round 0's. *)
  let warm = play opts dep tally idx queries ~traced:false 0 in
  let gc = Option.map (fun (_, _, g) -> g) layer_ctx in
  let samples = ref [] and peak_words = ref 0 in
  let t_start = now () in
  let rec loop i =
    if i < fixed_rounds || now () -. t_start < opts.seconds then begin
      (* The traced run alternates untraced and traced rounds, so the
         tracing overhead is measured under the same host load. *)
      let traced = opts.trace && i mod 2 = 1 in
      samples := play ?gc opts dep tally idx queries ~traced i :: !samples;
      if i + 1 = fixed_rounds then peak_words := (Gc.quick_stat ()).Gc.top_heap_words;
      loop (i + 1)
    end
  in
  loop 0;
  let loop_s = now () -. t_start in
  let samples = List.rev !samples in
  let steal1 = steal_ticks () in
  (* Exact counts: identical set-ups, warm-up = round 0, and the same
     fixed-round counts as every earlier run of this seed. *)
  let digest_of s = match s.counts with Some c -> counts_digest c | None -> "raised" in
  let fixed = List.filter (fun s -> s.index < fixed_rounds) samples in
  let setups_equal = List.for_all (( = ) (List.hd !setup_digests)) !setup_digests in
  let warm_equal = digest_of warm = digest_of (List.hd fixed) in
  let guard_state, guard_ok =
    guard opts
      (("inputs " ^ inputs_digest) :: ("setup " ^ List.hd !setup_digests)
      :: List.map (fun s -> Printf.sprintf "round %d %s" s.index (digest_of s)) fixed)
  in
  let counts_ok = setups_equal && warm_equal && guard_ok in
  let untraced = List.filter (fun s -> s.layer = None && s.counts <> None) samples in
  let untraced_p50 = median_of (fun s -> s.latency) untraced in
  let metrics, samples_behind =
    match layer_ctx with
    | None ->
      end_to_end ~setup_times:!setup_times ~deployment_words ~peak_words:!peak_words
        ~loop_s samples tally
    | Some (unit_cost, kernels, _) ->
      ( per_layer opts ~setup_spans:!setup_spans ~owner_encryptions:(Sut.owner_encryptions dep)
          ~setup_bytes:setup_counts.Sut.total_bytes ~kernels ~unit_cost ~untraced_p50 samples,
        [ ("traced_rounds", Int (List.length (List.filter (fun s -> s.layer <> None) samples)));
          ("untraced_rounds", Int (List.length untraced));
          ("setups", Int setups);
          ("gc_lost_events", Int (match gc with Some g -> Gcprobe.lost_events g | None -> 0)) ] )
  in
  let failed = Check.failed tally in
  let report =
    Obj
      [ ("workload", Str opts.name);
        ("seed", Int opts.seed);
        ("seconds", Num opts.seconds);
        ("trace", Bool opts.trace);
        ("git_rev", Str (env "PERFBENCH_REV"));
        ("source_digest", Str (env "PERFBENCH_SOURCE"));
        ("ocaml", Str Sys.ocaml_version);
        ("cpu", Str (cpu_model ()));
        ("nproc", Int (Domain.recommended_domain_count ()));
        ("jobs", Int 1);
        ("inputs_digest", Str inputs_digest);
        ("rounds", Int (List.length samples));
        ("loop_s", Num loop_s);
        ("queries_sent", Int tally.Check.sent);
        ("queries_exact", Int tally.Check.exact);
        ("queries_failed", Int failed);
        ("queries_wrong", Int tally.Check.wrong);
        ("failed_query_share", Num (float_of_int failed /. float_of_int tally.Check.sent));
        ( "steal_ticks",
          match (steal0, steal1) with Some a, Some b -> Int (b - a) | _ -> Str "unavailable" );
        ("exact_counts", Obj [ ("setups_equal", Bool setups_equal); ("warmup_equal", Bool warm_equal); ("across_runs", Str guard_state) ]);
        ("round_latency_s", Obj (List.map (fun (n, v) -> (n, Num v)) (round_spread samples)));
        ("samples", Obj samples_behind) ]
  in
  print_endline ("report: " ^ json_line report);
  print_endline
    (json_line
       (Obj
          [ ("correct", Bool (tally.Check.wrong = 0 && counts_ok));
            ("attempted", Int tally.Check.sent);
            ("failed", Int failed);
            ( "metrics",
              Obj (List.map (fun (n, v, u) -> (n, Obj [ ("value", Num v); ("unit", Str u) ])) metrics) ) ]))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let state_dir = ref ".perfbench_state" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " plain-k2 | packed-k20 | batch8-k2");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured duration of the query loop");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
      ("--state-dir", Arg.Set_string state_dir, " where the exact-count record lives") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W --seed N --seconds S --trace 0|1";
  match List.assoc_opt !workload Sut.workloads with
  | None ->
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  | Some wl when (!trace = 0 || !trace = 1) && !seconds > 0.0 ->
    run { name = !workload; wl; seed = !seed; seconds = !seconds; trace = !trace = 1; state_dir = !state_dir }
  | Some _ ->
    prerr_endline "perfbench: --trace must be 0 or 1 and --seconds positive";
    exit 2
