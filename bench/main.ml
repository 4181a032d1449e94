(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5).

   Usage:
     dune exec bench/main.exe                    -- all experiments, scaled
     dune exec bench/main.exe -- --full          -- paper-scale workloads
     dune exec bench/main.exe -- --only fig3,table1
     dune exec bench/main.exe -- --scale 0.25    -- override the default scale

   Each experiment prints the paper's reported numbers (where the text
   gives them) next to measured values.  Absolute times differ — the
   paper ran HElib/C++ on a 4-core Xeon; this is a from-scratch OCaml
   stack — the claim under reproduction is the *shape*: linearity in n,
   d and k, one communication round vs O(k), and the ours-vs-baseline
   gap. *)

module Rng = Util.Rng

let say fmt = Format.printf fmt

let hr title =
  say "@.==================================================================@.";
  say "%s@." title;
  say "==================================================================@."

(* ------------------------------------------------------------------ *)
(* Scaling                                                             *)
(* ------------------------------------------------------------------ *)

type opts = {
  full : bool;
  scale : float option;
  only : string list option; (* experiment ids *)
  seed : int;
  jobs : int option;         (* domains per parallel phase *)
  json : string option;      (* machine-readable results file *)
  trace : string option;     (* span-trace output file *)
  trace_format : string;     (* chrome | jsonl | pretty *)
  repeat : int;              (* steady-state queries in the amortized experiment *)
  batch : int;               (* queries per batch round in the amortized experiment *)
  prom : string option;      (* Prometheus text-exposition snapshot file *)
  calib : string option;     (* calibration cache file shared with sknn cost/plan *)
}

(* The observability context shared by every protocol run of the session;
   Ctx.disabled (the default) keeps the hot path unobserved. *)
let obs : Sknn_obs.Ctx.t ref = ref Sknn_obs.Ctx.disabled

(* Run one query under a root span so each benchmark query shows up as
   its own top-level tree in the trace. *)
let traced_query ?(path = Sknn_obs.Cost_model.Plain) ?rng ~experiment dep ~query ~k =
  Sknn_obs.Ctx.with_span !obs ~kind:Sknn_obs.Trace.Root
    ~args:[ ("experiment", experiment); ("k", string_of_int k) ]
    experiment
    (fun () -> (Protocol.query_gen ~path ~obs:!obs ?rng dep ~queries:[| query |] ~k).(0))

let effective_jobs opts =
  match opts.jobs with Some j -> j | None -> Util.Pool.default_jobs ()

let scaled opts ~default_scale n =
  if opts.full then n
  else begin
    let s = Option.value ~default:default_scale opts.scale in
    Stdlib.max 4 (int_of_float (float_of_int n *. s))
  end

let wants opts id = match opts.only with None -> true | Some l -> List.mem id l

let pp_paper ppf = function
  | None -> Format.fprintf ppf "%8s" "-"
  | Some s -> Format.fprintf ppf "%7.0fs" s

(* Linear interpolation of the paper's reported anchors, for the rows
   the text does not spell out. *)
let interp anchors x =
  let rec go = function
    | (x0, y0) :: ((x1, y1) :: _ as rest) ->
      if x <= x0 then Some y0
      else if x <= x1 then
        Some (y0 +. ((y1 -. y0) *. (float_of_int (x - x0) /. float_of_int (x1 - x0))))
      else go rest
    | [ (_, y) ] -> Some y
    | [] -> None
  in
  go anchors

(* ------------------------------------------------------------------ *)
(* Machine-readable results (--json)                                   *)
(* ------------------------------------------------------------------ *)

open Util.Json

let json_counters c =
  Obj
    [ ("encryptions", Int (Util.Counters.encryptions c));
      ("decryptions", Int (Util.Counters.decryptions c));
      ("hom_adds", Int (Util.Counters.hom_adds c));
      ("hom_muls", Int (Util.Counters.hom_muls c));
      ("hom_mul_plains", Int (Util.Counters.hom_mul_plains c));
      ("hom_modswitches", Int (Util.Counters.hom_modswitches c));
      ("hom_relins", Int (Util.Counters.hom_relins c));
      ("hom_total", Int (Util.Counters.hom_total c));
      ("rounds", Int (Util.Counters.rounds c));
      ("bytes_sent", Int (Util.Counters.bytes_sent c));
      ("ledger",
       List
         (List.map
            (fun (op, level, count) ->
              Obj
                [ ("op", Str (Util.Counters.op_name op));
                  ("level", Int level);
                  ("count", Int count) ])
            (Util.Counters.ledger_entries c))) ]

let json_transcript tr =
  Obj
    [ ("total_bytes", Int (Transcript.total_bytes tr));
      ("messages", Int (Transcript.messages tr));
      ("a_b_rounds", Int (Transcript.rounds tr Transcript.Party_a Transcript.Party_b));
      ("links",
       Obj
         (List.map
            (fun ((x, y), bytes) ->
              (Transcript.party_name x ^ "-" ^ Transcript.party_name y, Int bytes))
            (Transcript.links tr))) ]

let json_runs : t list ref = ref []

(* Extra top-level JSON blocks filled in by individual experiments. *)
let amortized_summary : t option ref = ref None
let kernel_results : t option ref = ref None

let record_run ?(extra = []) ~experiment ~n ~d ~k ~jobs ~seconds ~exact
    (r : Protocol.result) =
  json_runs :=
    Obj
      (extra
       @ [ ("experiment", Str experiment);
        ("n", Int n);
        ("d", Int d);
        ("k", Int k);
        ("jobs", Int jobs);
        ("seconds", Float seconds);
        ("exact", Bool exact);
        ("phases", Obj (List.map (fun (nm, s) -> (nm, Float s)) r.Protocol.phase_seconds));
        ("transcript", json_transcript r.Protocol.transcript);
        ("top_heap_words", Int (Gc.quick_stat ()).Gc.top_heap_words);
        ("counters",
         Obj
           [ ("party_a", json_counters r.Protocol.counters_a);
             ("party_b", json_counters r.Protocol.counters_b);
             ("client", json_counters r.Protocol.counters_client) ]) ])
    :: !json_runs

let write_json opts path =
  let gc = Gc.quick_stat () in
  let opt name v = match v with None -> [] | Some x -> [ (name, x) ] in
  let doc =
    Obj
      ([ ("schema_version", Int 3);
         ("generator", Str "sknn-bench");
         ("git_rev", Str (Kernel_bench.Calibration.git_rev ()));
         ("machine", Str (Kernel_bench.Calibration.machine ()));
         ("seed", Int opts.seed);
         ("jobs", Int (effective_jobs opts));
         ("full", Bool opts.full);
         ("gc",
          Obj
            [ ("top_heap_words", Int gc.Gc.top_heap_words);
              ("heap_words", Int gc.Gc.heap_words);
              ("minor_collections", Int gc.Gc.minor_collections);
              ("major_collections", Int gc.Gc.major_collections);
              ("minor_words", Float gc.Gc.minor_words);
              ("promoted_words", Float gc.Gc.promoted_words) ]);
         ("runs", List (List.rev !json_runs)) ]
       @ opt "amortized" !amortized_summary
       @ opt "kernels" !kernel_results)
  in
  let oc = open_out path in
  output_line oc doc;
  close_out oc;
  say "wrote %d runs to %s@." (List.length !json_runs) path

(* ------------------------------------------------------------------ *)
(* Figure runners                                                      *)
(* ------------------------------------------------------------------ *)

(* Per-op unit costs for the predicted-phase annotations, calibrated at
   most once per parameter set (quick pass: CI runs this). *)
let calibrations : (string, Kernel_bench.Calibration.t) Hashtbl.t = Hashtbl.create 4

let calibration_for ?cache (params : Params.t) =
  match Hashtbl.find_opt calibrations params.Params.name with
  | Some c -> c
  | None ->
    say "calibrating per-op unit costs for %s (quick pass%s)...@." params.Params.name
      (match cache with Some f -> ", cache " ^ f | None -> "");
    let c, warnings =
      Kernel_bench.Calibration.measure_cached ~quick:true ?file:cache params
    in
    List.iter (fun w -> say "warning: %s@." w) warnings;
    Hashtbl.add calibrations params.Params.name c;
    c

let run_query_series ?(packed = false) ?predict ~opts ~experiment ~config ~db ~queries_k
    ~rng () =
  let dep = Protocol.deploy ~obs:!obs ~rng ?jobs:opts.jobs config ~db in
  let base_extra = if packed then [ ("packed", Bool true) ] else [] in
  let path = if packed then Sknn_obs.Cost_model.Packed 1 else Sknn_obs.Cost_model.Plain in
  List.map
    (fun k ->
      let q = Synthetic.query_like rng db in
      let r, s =
        Util.Timer.time (fun () -> traced_query ~path ~experiment dep ~query:q ~k)
      in
      let ok = Protocol.exact dep ~db ~query:q r in
      let extra =
        base_extra
        @
        match predict with
        | None -> []
        | Some f ->
          let phases : (string * float) list = f ~k in
          [ ("predicted_phases", Obj (List.map (fun (nm, ps) -> (nm, Float ps)) phases)) ]
      in
      record_run ~extra ~experiment ~n:(Array.length db) ~d:(Array.length db.(0)) ~k
        ~jobs:(Protocol.jobs dep) ~seconds:s ~exact:ok r;
      (k, s, ok, r))
    queries_k

let check_linear ~name xs ys =
  (* Shape check: least-squares slope positive and fit roughly linear. *)
  let n = float_of_int (List.length xs) in
  let xs = List.map float_of_int xs in
  let mean l = List.fold_left ( +. ) 0.0 l /. n in
  let mx = mean xs and my = mean ys in
  let cov = List.fold_left2 (fun a x y -> a +. ((x -. mx) *. (y -. my))) 0.0 xs ys in
  let var = List.fold_left (fun a x -> a +. ((x -. mx) ** 2.0)) 0.0 xs in
  let slope = cov /. var in
  let r2 =
    let vy = List.fold_left (fun a y -> a +. ((y -. my) ** 2.0)) 0.0 ys in
    if vy = 0.0 then 1.0 else cov *. cov /. (var *. vy)
  in
  say "  shape: %s slope %+.4f s/unit, linear fit R^2 = %.3f %s@." name slope r2
    (if slope > 0.0 && r2 > 0.9 then "[linear: OK]" else "[check]")

let k_dependent_seconds (r : Protocol.result) =
  (* The phases whose work grows with k: Party B's indicator vectors and
     Party A's Return-kNN inner products (plus the result decryption). *)
  List.fold_left
    (fun acc (name, s) ->
      match name with
      | "find-neighbours" | "return-knn" | "decrypt-result" -> acc +. s
      | _ -> acc)
    0.0 r.Protocol.phase_seconds

let fig_k_sweep ?(packed = false) ?(attribute = false) ~id ~title ~dataset_name ~db
    ~config ~paper_anchors opts =
  hr (Printf.sprintf "%s — %s" id title);
  let n = Array.length db and d = Array.length db.(0) in
  say "dataset: %s, n=%d, d=%d, layout=%s%s%s@." dataset_name n d
    (Config.layout_name config.Config.layout)
    (if packed then " (slot-packed path)" else "")
    (if opts.full then "" else " (scaled; --full for paper scale)");
  let ks = [ 2; 4; 6; 8; 10; 12; 14; 16; 18; 20 ] in
  let rng = Rng.of_int opts.seed in
  (* Attribution annotations: price each run's analytic op-count replica
     with the calibrated unit costs, so the JSON carries a predicted
     figure next to every measured phase (check_regress gates the
     drift). *)
  let predict =
    if not attribute then None
    else begin
      let unit_costs = calibration_for ?cache:opts.calib config.Config.bgv in
      let path =
        if packed then Sknn_obs.Cost_model.Packed 1 else Sknn_obs.Cost_model.Plain
      in
      Some
        (fun ~k ->
          let pred = Attribution.predict config ~n ~d ~k path in
          (Sknn_obs.Cost_model.price ~unit_costs pred).Sknn_obs.Cost_model.phase_s)
    end
  in
  let rows =
    run_query_series ~packed ?predict ~opts ~experiment:id ~config ~db ~queries_k:ks
      ~rng ()
  in
  say "@.%6s %10s %10s %10s %7s@." "k" "paper" "measured" "k-dep" "exact";
  List.iter
    (fun (k, s, ok, r) ->
      say "%6d %a %9.2fs %9.2fs %7b@." k pp_paper (interp paper_anchors k) s
        (k_dependent_seconds r) ok)
    rows;
  if packed then
    say "  shape: Return kNN runs by blocks of N/d points, so no phase grows with k@."
  else begin
    check_linear ~name:"total time vs k" (List.map (fun (k, _, _, _) -> k) rows)
      (List.map (fun (_, s, _, _) -> s) rows);
    check_linear ~name:"k-dependent phases vs k" (List.map (fun (k, _, _, _) -> k) rows)
      (List.map (fun (_, _, _, r) -> k_dependent_seconds r) rows)
  end

let fig3 opts =
  let rng = Rng.of_int (opts.seed + 3) in
  let n = scaled opts ~default_scale:0.5 858 in
  let db =
    Preprocess.scale_to_max ~max_value:255 (Uci_like.cervical_cancer ~n rng)
  in
  fig_k_sweep ~attribute:true ~id:"fig3"
    ~title:"running time vs k, cervical-cancer data (858 x 32)"
    ~dataset_name:"cervical-cancer (UCI-shaped)" ~db ~config:(Config.standard ())
    ~paper_anchors:[ (2, 45.0); (8, 165.0); (16, 328.0); (20, 410.0) ]
    opts

(* The fig3 workload on the slot-packed path: same dataset and k sweep,
   affine mask (the packed requirement), ~n/N ciphertext ops in the
   Compute-Distances phase and ⌈n/⌊N/d⌋⌉ in Return kNN for every k.
   The paper anchors are fig3's — the gap between the measured columns
   is the packing win. *)
let fig3p opts =
  let rng = Rng.of_int (opts.seed + 3) in
  let n = scaled opts ~default_scale:0.5 858 in
  let db =
    Preprocess.scale_to_max ~max_value:255 (Uci_like.cervical_cancer ~n rng)
  in
  fig_k_sweep ~packed:true ~attribute:true ~id:"fig3p"
    ~title:"fig3 workload, slot-packed path (858 x 32, affine mask)"
    ~dataset_name:"cervical-cancer (UCI-shaped)" ~db
    ~config:(Config.with_mask_degree 1 (Config.standard ()))
    ~paper_anchors:[ (2, 45.0); (8, 165.0); (16, 328.0); (20, 410.0) ]
    opts

let fig4 opts =
  let rng = Rng.of_int (opts.seed + 4) in
  let n = scaled opts ~default_scale:0.1 30000 in
  let db = Preprocess.scale_to_max ~max_value:255 (Uci_like.credit_default ~n rng) in
  fig_k_sweep ~id:"fig4" ~title:"running time vs k, credit-card data (30000 x 23)"
    ~dataset_name:"credit-default (UCI-shaped)" ~db ~config:(Config.fast ())
    ~paper_anchors:[ (2, 115.0); (8, 373.0); (20, 860.0) ]
    opts

let fig5 opts =
  hr "fig5 — running time vs n (d = 2, k = 5)";
  let config = Config.fast () in
  let ns = List.map (fun n -> scaled opts ~default_scale:0.1 n)
      [ 20000; 40000; 60000; 80000; 100000; 120000; 140000; 160000; 180000; 200000 ] in
  say "layout=%s%s@." (Config.layout_name config.Config.layout)
    (if opts.full then "" else " (scaled)");
  let paper = [ (20000, 23.0); (200000, 180.0) ] in
  say "@.%8s %10s %10s %7s@." "n" "paper" "measured" "exact";
  let rows =
    List.map
      (fun n ->
        let rng = Rng.of_int (opts.seed + 5 + n) in
        let db = Synthetic.uniform rng ~n ~d:2 ~max_value:255 in
        let dep = Protocol.deploy ~obs:!obs ~rng ?jobs:opts.jobs config ~db in
        let q = Synthetic.query_like rng db in
        let r, s =
          Util.Timer.time (fun () -> traced_query ~experiment:"fig5" dep ~query:q ~k:5)
        in
        let ok = Protocol.exact dep ~db ~query:q r in
        record_run ~experiment:"fig5" ~n ~d:2 ~k:5 ~jobs:(Protocol.jobs dep) ~seconds:s
          ~exact:ok r;
        let paper_n = if opts.full then n else int_of_float (float_of_int n /. Option.value ~default:0.1 opts.scale) in
        say "%8d %a %9.2fs %7b@." n pp_paper (interp paper paper_n) s ok;
        (n, s))
      ns
  in
  check_linear ~name:"time vs n" (List.map fst rows) (List.map snd rows)

let fig6 opts =
  hr "fig6 — running time vs d (n = 200000, k = 2)";
  (* Per-coordinate layout: its distance phase does d homomorphic
     squarings per point, which is the linear-in-d behaviour the paper
     measures.  (The dot-product layout is d-independent here — see the
     ablation section.) *)
  (* Affine mask without intermediate rescaling so the d-proportional
     distance computation dominates the profile, as it does in the
     paper's implementation. *)
  let config =
    Config.with_rescale_distances false (Config.with_mask_degree 1 (Config.standard ()))
  in
  let n = scaled opts ~default_scale:0.04 200000 in
  say "n=%d, layout=%s%s@." n (Config.layout_name config.Config.layout)
    (if opts.full then "" else " (scaled)");
  let paper = [ (1, 137.0); (10, 530.0) ] in
  say "@.%6s %10s %10s %10s %7s@." "d" "paper" "measured" "dist-phase" "exact";
  let rows =
    List.map
      (fun d ->
        let rng = Rng.of_int (opts.seed + 6 + d) in
        let db = Synthetic.uniform rng ~n ~d ~max_value:255 in
        let dep = Protocol.deploy ~obs:!obs ~rng ?jobs:opts.jobs config ~db in
        let q = Synthetic.query_like rng db in
        let r, s =
          Util.Timer.time (fun () -> traced_query ~experiment:"fig6" dep ~query:q ~k:2)
        in
        let ok = Protocol.exact dep ~db ~query:q r in
        record_run ~experiment:"fig6" ~n ~d ~k:2 ~jobs:(Protocol.jobs dep) ~seconds:s
          ~exact:ok r;
        let dist_s = List.assoc "compute-distances" r.Protocol.phase_seconds in
        say "%6d %a %9.2fs %9.2fs %7b@." d pp_paper (interp paper d) s dist_s ok;
        (d, s, dist_s))
      [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
  in
  check_linear ~name:"total time vs d" (List.map (fun (d, s, _) -> ignore s; d) rows)
    (List.map (fun (_, s, _) -> s) rows);
  check_linear ~name:"distance phase vs d" (List.map (fun (d, _, _) -> d) rows)
    (List.map (fun (_, _, s) -> s) rows)

let fig7 opts =
  hr "fig7 — running time vs k (n = 200000, d = 2)";
  let config = Config.fast () in
  let n = scaled opts ~default_scale:0.05 200000 in
  say "n=%d, layout=%s%s@." n (Config.layout_name config.Config.layout)
    (if opts.full then "" else " (scaled)");
  let rng = Rng.of_int (opts.seed + 7) in
  let db = Synthetic.uniform rng ~n ~d:2 ~max_value:255 in
  let paper = [ (1, 115.0); (20, 480.0) ] in
  let ks = [ 1; 2; 4; 6; 8; 10; 12; 14; 16; 18; 20 ] in
  let rows =
    run_query_series ~opts ~experiment:"fig7" ~config ~db ~queries_k:ks ~rng ()
  in
  say "@.%6s %10s %10s %10s %7s@." "k" "paper" "measured" "k-dep" "exact";
  List.iter
    (fun (k, s, ok, r) ->
      say "%6d %a %9.2fs %9.2fs %7b@." k pp_paper (interp paper k) s
        (k_dependent_seconds r) ok)
    rows;
  check_linear ~name:"total time vs k" (List.map (fun (k, _, _, _) -> k) rows)
    (List.map (fun (_, s, _, _) -> s) rows);
  check_linear ~name:"k-dependent phases vs k" (List.map (fun (k, _, _, _) -> k) rows)
    (List.map (fun (_, _, _, r) -> k_dependent_seconds r) rows)

(* ------------------------------------------------------------------ *)
(* Table 1: computational overheads, predicted and measured            *)
(* ------------------------------------------------------------------ *)

let table1 opts =
  hr "Table 1 — computational overheads: ours vs Yousef et al.";
  let n = scaled opts ~default_scale:0.2 500 in
  let d = 6 and k = 5 in
  let rng = Rng.of_int (opts.seed + 1) in
  let db = Synthetic.uniform rng ~n ~d ~max_value:100 in
  let q = Synthetic.query_like rng db in
  (* Ours, measured. *)
  let config = Config.standard () in
  let dep = Protocol.deploy ~obs:!obs ~rng ?jobs:opts.jobs config ~db in
  let r, r_s = Util.Timer.time (fun () -> traced_query ~experiment:"table1" dep ~query:q ~k) in
  record_run ~experiment:"table1" ~n ~d ~k ~jobs:(Protocol.jobs dep) ~seconds:r_s
    ~exact:(Protocol.exact dep ~db ~query:q r) r;
  let ours_measured = Cost.measured r in
  let ours_predicted =
    let pred = Attribution.predict config ~n ~d ~k Sknn_obs.Cost_model.Plain in
    Cost.ours ~bytes:pred.Sknn_obs.Cost_model.ab_bytes ~n ~d ~k
      ~mask_degree:config.Config.mask_degree ~ring_degree:config.Config.bgv.Params.n ()
  in
  (* Baseline, measured on a further-scaled instance (it is the slow
     one). *)
  let nb = Stdlib.max 8 (n / 5) in
  let dbb = Array.sub db 0 nb in
  let dep_b = Sknn_m.deploy ~rng:(Rng.split rng) ~modulus_bits:128 ~db:dbb () in
  let rb = Sknn_m.query dep_b ~query:q ~k in
  let l = Sknn_m.bit_length dep_b in
  let yousef_predicted = Cost.yousef ~n:nb ~d ~k ~l in
  let hom c = Util.Counters.hom_total c in
  say "@.instance: n=%d (baseline run at n=%d), d=%d, k=%d, l=%d@." n nb d k l;
  say "@.%-28s %14s %14s | %14s %14s@." "" "ours(pred)" "ours(meas)" "yousef(pred)"
    "yousef(meas)";
  let row name op om yp ym = say "%-28s %14s %14s | %14s %14s@." name op om yp ym in
  row "homomorphic operations"
    (string_of_int ours_predicted.Cost.hom_ops)
    (string_of_int ours_measured.Cost.hom_ops)
    (string_of_int yousef_predicted.Cost.hom_ops)
    (string_of_int (hom rb.Sknn_m.counters_c1 + hom rb.Sknn_m.counters_c2));
  row "encryptions"
    (string_of_int ours_predicted.Cost.encryptions)
    (string_of_int ours_measured.Cost.encryptions)
    (string_of_int yousef_predicted.Cost.encryptions)
    (string_of_int
       (Util.Counters.encryptions rb.Sknn_m.counters_c1
        + Util.Counters.encryptions rb.Sknn_m.counters_c2));
  row "decryptions (key holder)"
    (string_of_int ours_predicted.Cost.decryptions)
    (string_of_int ours_measured.Cost.decryptions)
    (string_of_int yousef_predicted.Cost.decryptions)
    (string_of_int (Util.Counters.decryptions rb.Sknn_m.counters_c2));
  row "rounds (A<->B)" "1"
    (string_of_int ours_measured.Cost.rounds)
    (Printf.sprintf "O(k)=%d+" k)
    (string_of_int rb.Sknn_m.interactions);
  row "bytes A<->B"
    (string_of_int ours_predicted.Cost.bytes)
    (string_of_int ours_measured.Cost.bytes)
    "-"
    (string_of_int
       (Transcript.bytes_between rb.Sknn_m.transcript Transcript.Party_a Transcript.Party_b));
  say "@.paper's asymptotic rows: ours O(n(k+d+D)) hom, O(nk) enc, O(n) dec, 1 round;@.";
  say "                         yousef O(n(2kl+d)) hom, O(nkl) enc, O(n(kl+d)) dec, O(k) rounds@.";
  say "exactness: ours=%b baseline=%b@."
    (Protocol.exact dep ~db ~query:q r)
    (Sknn_m.exact dep_b ~db:dbb ~query:q rb)

(* ------------------------------------------------------------------ *)
(* §5.2 head-to-head                                                   *)
(* ------------------------------------------------------------------ *)

let headtohead opts =
  hr "§5.2 head-to-head — n=2000, d=6, k=25: ours vs Yousef et al.";
  let n = scaled opts ~default_scale:0.075 2000 in
  let k = if opts.full then 25 else 10 in
  let d = 6 in
  let rng = Rng.of_int (opts.seed + 8) in
  let db = Synthetic.uniform rng ~n ~d ~max_value:100 in
  let q = Synthetic.query_like rng db in
  say "instance: n=%d, d=%d, k=%d%s@." n d k
    (if opts.full then "" else " (scaled; --full for n=2000, k=25)");
  let dep = Protocol.deploy ~obs:!obs ~rng ?jobs:opts.jobs (Config.standard ()) ~db in
  let r, ours_s =
    Util.Timer.time (fun () -> traced_query ~experiment:"headtohead" dep ~query:q ~k)
  in
  record_run ~experiment:"headtohead" ~n ~d ~k ~jobs:(Protocol.jobs dep) ~seconds:ours_s
    ~exact:(Protocol.exact dep ~db ~query:q r) r;
  say "ours:           %a (paper: 1 min 37 s)  exact=%b@." Util.Timer.pp_duration ours_s
    (Protocol.exact dep ~db ~query:q r);
  let dep_b = Sknn_m.deploy ~rng:(Rng.split rng) ~modulus_bits:128 ~db () in
  let rb, base_s = Util.Timer.time (fun () -> Sknn_m.query dep_b ~query:q ~k) in
  say "yousef et al.:  %a (paper: 55 min 39 s)  exact=%b@." Util.Timer.pp_duration base_s
    (Sknn_m.exact dep_b ~db ~query:q rb);
  say "speedup: %.1fx (paper: %.1fx)@." (base_s /. ours_s) (3339.0 /. 97.0);
  say "rounds: ours=%d, baseline C1<->C2 interactions=%d@."
    (Transcript.rounds r.Protocol.transcript Transcript.Party_a Transcript.Party_b)
    rb.Sknn_m.interactions

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation opts =
  hr "ablations — design-choice sensitivity (DESIGN.md §4)";
  let rng = Rng.of_int (opts.seed + 9) in
  let n = scaled opts ~default_scale:0.5 400 in
  let db = Synthetic.uniform rng ~n ~d:4 ~max_value:255 in
  let q = Synthetic.query_like rng db in
  let run name config =
    match Config.validate config ~d:4 with
    | Error e -> say "%-34s skipped (%s)@." name e
    | Ok () ->
      let dep =
        Protocol.deploy ~obs:!obs ~rng:(Rng.of_int opts.seed) ?jobs:opts.jobs config ~db
      in
      let r, s =
        Util.Timer.time (fun () -> traced_query ~experiment:"ablation" dep ~query:q ~k:5)
      in
      let bytes =
        Transcript.bytes_between r.Protocol.transcript Transcript.Party_a Transcript.Party_b
      in
      say "%-34s %8.2fs  %9d B A<->B  exact=%b@." name s bytes
        (Protocol.exact dep ~db ~query:q r)
  in
  say "n=%d, d=4, k=5@.@." n;
  run "per-coordinate, mask deg 1" (Config.with_mask_degree 1 (Config.standard ()));
  run "per-coordinate, mask deg 2" (Config.standard ());
  run "per-coordinate, mask deg 3" (Config.with_mask_degree 3 (Config.standard ()));
  run "per-coordinate, deg 2 + relin" (Config.with_relin true (Config.standard ()));
  run "dot-product, affine mask" (Config.fast ());
  say "@.(relinearisation shrinks the A->B ciphertexts at extra compute; the@.";
  say " dot-product layout trades mask degree for one multiplication per point)@."

(* ------------------------------------------------------------------ *)
(* §7 extensions: secure k-means and secure Apriori                    *)
(* ------------------------------------------------------------------ *)

let extensions opts =
  hr "extensions — the paper's §7 future work: k-means and Apriori";
  let rng = Rng.of_int (opts.seed + 10) in
  (* k-means *)
  let n = scaled opts ~default_scale:0.5 1000 in
  let db = Synthetic.clustered rng ~n ~d:4 ~clusters:4 ~spread:10.0 ~max_value:250 in
  let init = Array.init 4 (fun i -> db.(i * (n / 4))) in
  let dep = Kmeans.deploy ~rng (Config.fast ()) ~db in
  let r = Kmeans.run ~rng dep ~init in
  let plain, plain_s = Util.Timer.time (fun () -> Kmeans_plain.lloyd ~init db) in
  say "k-means: n=%d d=4 k=4: secure %.2fs (%d iters) vs plaintext %.4fs; identical=%b@." n
    r.Kmeans.seconds r.Kmeans.iterations plain_s
    (plain.Kmeans_plain.centroids = r.Kmeans.centroids);
  (* Apriori *)
  let nt = scaled opts ~default_scale:0.5 2000 in
  let tx =
    Array.init nt (fun _ ->
        let row = Array.init 20 (fun _ -> if Rng.float rng < 0.1 then 1 else 0) in
        if Rng.float rng < 0.3 then begin
          row.(0) <- 1; row.(1) <- 1; row.(2) <- 1
        end;
        row)
  in
  let minsup = nt / 5 in
  let adep = Apriori.deploy ~rng (Config.standard ()) ~transactions:tx in
  let ar = Apriori.mine ~rng adep ~minsup in
  let _, ap_s =
    Util.Timer.time (fun () -> Apriori_plain.frequent_itemsets ~minsup tx)
  in
  say "apriori: %d transactions x 20 items, minsup=%d: secure %.2fs vs plaintext %.4fs;        identical=%b (%d itemsets, %d hom muls total)@."
    nt minsup ar.Apriori.seconds ap_s
    (Apriori.matches_plaintext ~transactions:tx ~minsup ar)
    (List.length ar.Apriori.frequent)
    (Util.Counters.hom_muls ar.Apriori.counters_a)

(* ------------------------------------------------------------------ *)
(* Domain scaling: same query at jobs=1 and jobs=N                     *)
(* ------------------------------------------------------------------ *)

let scaling opts =
  hr "scaling — multicore speedup at identical results";
  let jn = effective_jobs opts in
  let n = scaled opts ~default_scale:0.4 500 in
  let d = 6 and k = 5 in
  let data_rng = Rng.of_int (opts.seed + 11) in
  let db = Synthetic.uniform data_rng ~n ~d ~max_value:255 in
  let q = Synthetic.query_like data_rng db in
  say "n=%d, d=%d, k=%d, layout=%s  (SKNN_DOMAINS or --jobs picks N; N=%d here)@." n d k
    (Config.layout_name (Config.standard ()).Config.layout)
    jn;
  let run jobs =
    (* Fresh deployments from identical seeds: any divergence between
       job counts would show up as different neighbours or counters. *)
    let dep =
      Protocol.deploy ~obs:!obs ~rng:(Rng.of_int (opts.seed + 12)) ~jobs
        (Config.standard ()) ~db
    in
    let r, s =
      Util.Timer.time (fun () ->
          traced_query ~rng:(Rng.of_int (opts.seed + 13)) ~experiment:"scaling" dep
            ~query:q ~k)
    in
    let ok = Protocol.exact dep ~db ~query:q r in
    record_run ~experiment:"scaling" ~n ~d ~k ~jobs ~seconds:s ~exact:ok r;
    (r, s, ok)
  in
  let r1, s1, ok1 = run 1 in
  let rn, sn, okn = run jn in
  let dist r = List.assoc "compute-distances" r.Protocol.phase_seconds in
  say "@.%6s %10s %14s %7s@." "jobs" "total" "compute-dist" "exact";
  say "%6d %9.2fs %13.2fs %7b@." 1 s1 (dist r1) ok1;
  say "%6d %9.2fs %13.2fs %7b@." jn sn (dist rn) okn;
  if jn > 1 then
    say "@.speedup at %d domains: total %.2fx, compute-distances %.2fx@." jn (s1 /. sn)
      (dist r1 /. dist rn);
  let counters_eq a b =
    Format.asprintf "%a" Util.Counters.pp a = Format.asprintf "%a" Util.Counters.pp b
  in
  say "identical neighbours across job counts: %b@."
    (r1.Protocol.neighbours = rn.Protocol.neighbours);
  say "identical counters across job counts:   %b@."
    (counters_eq r1.Protocol.counters_a rn.Protocol.counters_a
     && counters_eq r1.Protocol.counters_b rn.Protocol.counters_b
     && counters_eq r1.Protocol.counters_client rn.Protocol.counters_client)

(* ------------------------------------------------------------------ *)
(* Amortized multi-query: a deployed database's steady state          *)
(* ------------------------------------------------------------------ *)

let amortized opts =
  hr "amortized — deployed database, repeated queries (--repeat)";
  let rng = Rng.of_int (opts.seed + 14) in
  let n = scaled opts ~default_scale:0.5 858 in
  let db = Preprocess.scale_to_max ~max_value:255 (Uci_like.cervical_cancer ~n rng) in
  let d = Array.length db.(0) and k = 2 in
  (* The inner-product circuit needs affine masking (the trick leaves
     cross terms only a degree-1 mask keeps sound); the packed path
     shares the requirement. *)
  let config = Config.with_mask_degree 1 (Config.standard ()) in
  let dep = Protocol.deploy ~obs:!obs ~rng ?jobs:opts.jobs config ~db in
  (* The same chain and mask on the dot-product layout, whose data owner
     ships the norms the inner-product circuit reads. *)
  let dep_dot =
    Protocol.deploy ~obs:!obs ~rng:(Rng.of_int (opts.seed + 15)) ?jobs:opts.jobs
      (Config.with_layout Config.Dot_product config) ~db
  in
  let reps = Stdlib.max 1 opts.repeat in
  say "n=%d, d=%d, k=%d, 1 first + %d steady-state queries%s@." n d k reps
    (if opts.full then "" else " (scaled)");
  (* One pass per computation plan: plain on the dot-product deployment
     (one ciphertext product per point), then the slot-packed path on
     the per-coordinate one. *)
  let pass ~packed name =
    let path, dep =
      if packed then (Sknn_obs.Cost_model.Packed 1, dep)
      else (Sknn_obs.Cost_model.Plain, dep_dot)
    in
    say "@.%s:@." name;
    say "%8s %10s %7s@." "query" "total" "exact";
    Array.init (reps + 1) (fun i ->
        let q = Synthetic.query_like rng db in
        (* Collect the previous query's floating garbage outside the
           timed region so each measurement pays only for its own
           allocation, not GC debt inherited from earlier queries. *)
        Gc.full_major ();
        let r, s =
          Util.Timer.time (fun () ->
              traced_query ~path ~experiment:"amortized" dep ~query:q ~k)
        in
        let ok = Protocol.exact dep ~db ~query:q r in
        record_run
          ~extra:
            [ ("query_index", Int i);
              ("packed", Bool packed);
              ("steady_state", Bool (i > 0)) ]
          ~experiment:"amortized" ~n ~d ~k ~jobs:(Protocol.jobs dep) ~seconds:s
          ~exact:ok r;
        let cd_s =
          match List.assoc_opt "compute-distances" r.Protocol.phase_seconds with
          | Some t -> t
          | None -> 0.0
        in
        say "%8s %9.2fs %7b@." (if i = 0 then "first" else Printf.sprintf "#%d" i) s ok;
        (s, cd_s))
  in
  let steady times =
    Array.fold_left ( +. ) 0.0 (Array.sub times 1 reps) /. float_of_int reps
  in
  let times = pass ~packed:false "plain path on the dot-product layout (one ct-mul per point)" in
  let times_p = pass ~packed:true "slot-packed path (d plain products per batch)" in
  let first = fst times.(0) and steady_plain = steady (Array.map fst times) in
  let first_p = fst times_p.(0) and steady_packed = steady (Array.map fst times_p) in
  (* The acceptance gate is on the phase the packing accelerates:
     compute-distances, steady state (the unchanged return-knn phase
     would otherwise dominate the ratio). *)
  let steady_cd_plain = steady (Array.map snd times) in
  let steady_cd_packed = steady (Array.map snd times_p) in
  (* Multi-query batching (--batch M): M packed queries in one protocol
     round under one Π, amortizing even the per-round fixed costs. *)
  let batch_fields =
    if opts.batch < 2 then []
    else begin
      let m = opts.batch in
      let queries = Array.init m (fun _ -> Synthetic.query_like rng db) in
      Gc.full_major ();
      let results, s =
        Util.Timer.time (fun () -> Protocol.query_batch ~obs:!obs dep ~queries ~k)
      in
      let ok = ref true in
      Array.iteri
        (fun i r -> ok := !ok && Protocol.exact dep ~db ~query:queries.(i) r)
        results;
      record_run
        ~extra:[ ("packed", Bool true); ("batch", Int m) ]
        ~experiment:"amortized" ~n ~d ~k ~jobs:(Protocol.jobs dep) ~seconds:s
        ~exact:!ok results.(0);
      say "@.batched round (--batch %d): %.2fs total, %.3fs per query, exact=%b@." m s
        (s /. float_of_int m)
        !ok;
      [ ("batch_m", Int m); ("batch_round_s", Float s);
        ("batch_per_query_s", Float (s /. float_of_int m)) ]
    end
  in
  amortized_summary :=
    Some
      (Obj
         ([ ("n", Int n); ("d", Int d); ("k", Int k); ("repeats", Int reps);
            ("first_query_s", Float first);
            ("steady_state_mean_s", Float steady_plain);
            ("packed_first_query_s", Float first_p);
            ("packed_steady_state_mean_s", Float steady_packed);
            ("packed_vs_plain_speedup", Float (steady_plain /. steady_packed));
            ("steady_state_compute_distances_s", Float steady_cd_plain);
            ("packed_steady_state_compute_distances_s", Float steady_cd_packed);
            ( "packed_compute_distances_speedup",
              Float (steady_cd_plain /. steady_cd_packed) ) ]
          @ batch_fields));
  say "@.plain:  first %.2fs, steady-state mean %.2fs@." first steady_plain;
  say "packed: first %.2fs, steady-state mean %.2fs — %.1fx vs plain steady state@."
    first_p steady_packed (steady_plain /. steady_packed);
  say "packed compute-distances phase: %.3fs vs %.3fs plain — %.1fx@." steady_cd_packed
    steady_cd_plain
    (steady_cd_plain /. steady_cd_packed)

(* ------------------------------------------------------------------ *)
(* Planned: Params.plan winner vs preset at the fig3p workload         *)
(* ------------------------------------------------------------------ *)

(* The planner's acceptance experiment: the fig3p workload (cervical
   858 x 32, slot-packed path, affine mask), run twice over the same
   data and queries — once on the preset parameter set, once on the
   parameter set [Planner.plan] picks under the preset's own security
   as the floor — so the measured steady-state gap is exactly the
   planner's win.  check_regress gates planned <= preset. *)
let planned opts =
  hr "planned — Params.plan winner vs preset (fig3p workload, packed path)";
  let rng = Rng.of_int (opts.seed + 3) in
  let n = scaled opts ~default_scale:0.5 858 in
  let db =
    Preprocess.scale_to_max ~max_value:255 (Uci_like.cervical_cancer ~n rng)
  in
  let d = Array.length db.(0) and k = 2 in
  let preset = Config.with_mask_degree 1 (Config.standard ()) in
  let costs = calibration_for ?cache:opts.calib preset.Config.bgv in
  let unit_model =
    Sknn_obs.Cost_model.fit_unit_model ~n:preset.Config.bgv.Params.n costs
  in
  let w =
    Planner.workload ~layout:preset.Config.layout ~path:(Sknn_obs.Cost_model.Packed 1)
      ~mask_degree:preset.Config.mask_degree
      ~mask_coeff_bits:preset.Config.mask_coeff_bits ~points:n ~dim:d ~k
      ~coord_bits:preset.Config.max_coord_bits ()
  in
  let limits =
    { Planner.default_constraints with
      Planner.min_security_bits = Params.security_bits preset.Config.bgv }
  in
  let outcome = Planner.plan ~unit_model w limits in
  say "planner: %d candidates considered, %d ranked, %d noise-pruned@."
    outcome.Planner.considered
    (List.length outcome.Planner.ranked)
    outcome.Planner.pruned_noise;
  match Planner.best outcome with
  | None -> say "no feasible candidate at this workload; skipping@."
  | Some best ->
    let s = best.Planner.spec in
    say "planned params: n=%d chain=%dx%d-bit t_bits=%d rl=%d (%.1f bits headroom, \
         %.1f bits security)@."
      s.Planner.sp_n s.Planner.sp_chain_len s.Planner.sp_prime_bits
      s.Planner.sp_plain_bits s.Planner.sp_return_level
      best.Planner.min_headroom_bits best.Planner.security_bits;
    let planned_config = Planner.realize w best in
    let preset_steady_pred =
      let bgv = preset.Config.bgv in
      let unit_costs =
        Sknn_obs.Cost_model.unit_costs_for unit_model ~n:bgv.Params.n
          ~levels:(Params.chain_length bgv)
      in
      let pred = Attribution.predict preset ~n ~d ~k (Sknn_obs.Cost_model.Packed 1) in
      (Sknn_obs.Cost_model.price ~unit_costs pred).Sknn_obs.Cost_model.total_s
    in
    let reps = Stdlib.max 1 opts.repeat in
    say "n=%d, d=%d, k=%d, 1 first + %d steady-state queries per variant%s@." n d k reps
      (if opts.full then "" else " (scaled)");
    (* Identical query streams per variant: any timing gap is the
       parameters, not the data. *)
    let pass variant config predicted_steady =
      say "@.%s:@." variant;
      say "%8s %10s %7s@." "query" "total" "exact";
      let dep =
        Protocol.deploy ~obs:!obs ~rng:(Rng.of_int (opts.seed + 31)) ?jobs:opts.jobs
          config ~db
      in
      let qrng = Rng.of_int (opts.seed + 32) in
      Array.init (reps + 1) (fun i ->
          let q = Synthetic.query_like qrng db in
          Gc.full_major ();
          let r, secs =
            Util.Timer.time (fun () ->
                traced_query ~path:(Sknn_obs.Cost_model.Packed 1) ~experiment:"planned" dep
                  ~query:q ~k)
          in
          let ok = Protocol.exact dep ~db ~query:q r in
          record_run
            ~extra:
              [ ("variant", Str variant);
                ("packed", Bool true);
                ("steady_state", Bool (i > 0));
                ("predicted_steady_s", Float predicted_steady) ]
            ~experiment:"planned" ~n ~d ~k ~jobs:(Protocol.jobs dep) ~seconds:secs
            ~exact:ok r;
          say "%8s %9.3fs %7b@."
            (if i = 0 then "first" else Printf.sprintf "#%d" i)
            secs ok;
          secs)
    in
    let times_preset = pass "preset" preset preset_steady_pred in
    let times_planned = pass "planned" planned_config best.Planner.seconds in
    let steady times =
      Array.fold_left ( +. ) 0.0 (Array.sub times 1 reps) /. float_of_int reps
    in
    let sp = steady times_preset and spl = steady times_planned in
    say "@.steady-state mean: preset %.3fs (predicted %.3fs), planned %.3fs \
         (predicted %.3fs)@."
      sp preset_steady_pred spl best.Planner.seconds;
    say "measured planner win: %.2fx@." (sp /. spl)

(* ------------------------------------------------------------------ *)
(* Network: virtual-clock end-to-end, predicted vs replayed            *)
(* ------------------------------------------------------------------ *)

(* The comms-aware acceptance experiment: the fig3 (plain), fig3p
   (slot-packed) and batch-8 shapes, each run live under the lan and wan
   profiles.  The virtual wire time is a pure function of (transcript,
   profile), so the predicted transcript's replay and the live
   transcript's replay must agree to the last bit on rounds, bytes and
   wire seconds — only the compute term depends on the calibration.
   check_regress gates the within-run agreement and, against the
   committed baseline, the machine-independent wire numbers. *)
let network opts =
  hr "network — virtual clock: predicted vs replayed end-to-end (lan/wan)";
  let rng = Rng.of_int (opts.seed + 3) in
  let n = scaled opts ~default_scale:0.5 858 in
  let db =
    Preprocess.scale_to_max ~max_value:255 (Uci_like.cervical_cancer ~n rng)
  in
  let d = Array.length db.(0) and k = 2 in
  let m = 8 in
  let plain_config = Config.standard () in
  let packed_config = Config.with_mask_degree 1 (Config.standard ()) in
  let unit_costs = calibration_for ?cache:opts.calib plain_config.Config.bgv in
  let profiles = [ Profile.lan; Profile.wan ] in
  say "n=%d, d=%d, k=%d, batch m=%d@." n d k m;
  say "@.%-7s %-9s %7s %10s %13s %12s %12s %12s %6s@." "shape" "profile" "rounds"
    "bytes" "pred compute" "pred wire" "pred e2e" "replayed" "match";
  let all_exact = ref true in
  let shape ~id ~config path =
    let dep =
      Protocol.deploy ~obs:!obs ~rng:(Rng.of_int (opts.seed + 91)) ?jobs:opts.jobs
        config ~db
    in
    let round =
      match path with Sknn_obs.Cost_model.Packed m -> m | Sknn_obs.Cost_model.Plain -> 1
    in
    let qrng = Rng.of_int (opts.seed + 92) in
    let queries = Array.init round (fun _ -> Synthetic.query_like qrng db) in
    List.iter
      (fun profile ->
        let r, s =
          Util.Timer.time (fun () ->
              (Protocol.query_gen ~path ~obs:!obs ~net:profile dep ~queries ~k).(0))
        in
        let ok = Protocol.exact dep ~db ~query:queries.(0) r in
        let tl =
          match r.Protocol.net with
          | Some tl -> tl
          | None -> failwith "network run returned no timeline"
        in
        let e2e =
          Sknn_obs.Cost_model.price ~unit_costs ~profile
            (Attribution.predict config ~n ~d ~k path)
        in
        let exact_tr = Clock.same_traffic e2e.Sknn_obs.Cost_model.timeline tl in
        all_exact := !all_exact && exact_tr;
        let tr = r.Protocol.transcript in
        record_run
          ~extra:
            [ ("shape", Str id);
              ("profile", Str (Profile.to_string profile));
              ("predicted_compute_s", Float e2e.Sknn_obs.Cost_model.compute_s);
              ("predicted_wire_s", Float e2e.Sknn_obs.Cost_model.wire_s);
              ("predicted_total_s", Float e2e.Sknn_obs.Cost_model.total_s);
              ("replayed_wire_s", Float tl.Clock.end_to_end_s);
              ("transcript_exact", Bool exact_tr) ]
          ~experiment:"network" ~n ~d ~k ~jobs:(Protocol.jobs dep) ~seconds:s
          ~exact:ok r;
        say "%-7s %-9s %7d %10d %12.6fs %11.6fs %11.6fs %11.6fs %6b@." id
          (Profile.to_string profile)
          (Transcript.rounds tr Transcript.Party_a Transcript.Party_b)
          (Transcript.total_bytes tr) e2e.Sknn_obs.Cost_model.compute_s
          e2e.Sknn_obs.Cost_model.wire_s e2e.Sknn_obs.Cost_model.total_s
          tl.Clock.end_to_end_s exact_tr)
      profiles
  in
  shape ~id:"fig3" ~config:plain_config Sknn_obs.Cost_model.Plain;
  shape ~id:"fig3p" ~config:packed_config (Sknn_obs.Cost_model.Packed 1);
  shape ~id:"batch8" ~config:packed_config (Sknn_obs.Cost_model.Packed m);
  say "@.predicted transcripts %s the live replays on every shape x profile@."
    (if !all_exact then "exactly match" else "DIVERGE from")

(* ------------------------------------------------------------------ *)
(* Ring-kernel microbenchmarks (bench/kernels library)                 *)
(* ------------------------------------------------------------------ *)

let kernels opts =
  hr "kernels — NTT / pointwise / mul_sum ring kernels";
  let results = Kernel_bench.run ~quick:(not opts.full) () in
  Format.printf "%a" Kernel_bench.pp_results results;
  kernel_results := Some (List (List.map Kernel_bench.result_json results))

(* ------------------------------------------------------------------ *)
(* Primitive micro-benchmarks (bechamel)                               *)
(* ------------------------------------------------------------------ *)

let micro _opts =
  hr "micro — primitive operation costs (bechamel OLS estimates)";
  let open Bechamel in
  let p = Config.standard () in
  let bgv = p.Config.bgv in
  let rng = Rng.of_int 5150 in
  let keys = Bgv.keygen rng bgv in
  let pt = Plaintext.constant bgv 123L in
  let ct = Bgv.encrypt rng keys.Bgv.pk pt in
  let sk_p, pk_p = Paillier.keygen ~modulus_bits:512 rng in
  let pct = Paillier.encrypt_int rng pk_p 12345 in
  let tests =
    [ Test.make ~name:"bgv.encrypt" (Staged.stage (fun () -> Bgv.encrypt rng keys.Bgv.pk pt));
      Test.make ~name:"bgv.add" (Staged.stage (fun () -> Bgv.add ct ct));
      Test.make ~name:"bgv.mul_no_relin" (Staged.stage (fun () -> Bgv.mul ~rescale:false ct ct));
      Test.make ~name:"bgv.mul_relin_rescale"
        (Staged.stage (fun () -> Bgv.mul ~rlk:keys.Bgv.rlk ct ct));
      Test.make ~name:"bgv.decrypt" (Staged.stage (fun () -> Bgv.decrypt keys.Bgv.sk ct));
      Test.make ~name:"bgv.decrypt_coeff0"
        (Staged.stage (fun () -> Bgv.decrypt_coeff0 keys.Bgv.sk ct));
      Test.make ~name:"paillier.encrypt_512"
        (Staged.stage (fun () -> Paillier.encrypt_int rng pk_p 7));
      Test.make ~name:"paillier.decrypt_512"
        (Staged.stage (fun () -> Paillier.decrypt_int sk_p pct));
      Test.make ~name:"paillier.mul_plain_512"
        (Staged.stage (fun () -> Paillier.mul_plain pk_p pct (Zint.of_int 123456789))) ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) () in
  let instance = Toolkit.Instance.monotonic_clock in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analysed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name est ->
          match Analyze.OLS.estimates est with
          | Some [ ns ] -> say "%-28s %12.1f ns/op (%8.3f ms)@." name ns (ns /. 1e6)
          | _ -> say "%-28s (no estimate)@." name)
        analysed)
    tests

(* ------------------------------------------------------------------ *)
(* CLI                                                                 *)
(* ------------------------------------------------------------------ *)

let experiments =
  [ ("table1", table1); ("fig3", fig3); ("fig3p", fig3p); ("fig4", fig4);
    ("fig5", fig5); ("fig6", fig6); ("fig7", fig7); ("headtohead", headtohead);
    ("ablation", ablation); ("scaling", scaling); ("amortized", amortized);
    ("planned", planned); ("network", network); ("kernels", kernels);
    ("extensions", extensions); ("micro", micro) ]

let run opts =
  say "secure k-NN benchmark harness (seed %d, jobs %d, %s)@." opts.seed
    (effective_jobs opts)
    (if opts.full then "FULL paper scale" else "scaled-down default");
  let trace_fmt =
    match Sknn_obs.Trace.format_of_string opts.trace_format with
    | Ok f -> f
    | Error msg ->
      Format.eprintf "%s@." msg;
      exit 2
  in
  let trace_sink =
    if Option.is_some opts.trace then Sknn_obs.Trace.create ()
    else Sknn_obs.Trace.disabled
  in
  let metrics_reg =
    if Option.is_some opts.prom then Some (Sknn_obs.Metrics.create ()) else None
  in
  obs := Sknn_obs.Ctx.create ~trace:trace_sink ?metrics:metrics_reg ();
  List.iter (fun (id, f) -> if wants opts id then f opts) experiments;
  Option.iter (write_json opts) opts.json;
  (match opts.prom, metrics_reg with
   | Some path, Some m ->
     let oc = open_out path in
     output_string oc (Sknn_obs.Metrics.to_prometheus m);
     close_out oc;
     say "wrote Prometheus snapshot to %s@." path
   | _ -> ());
  (match opts.trace with
   | None -> ()
   | Some path ->
     let oc = open_out path in
     Sknn_obs.Trace.write trace_sink trace_fmt oc;
     close_out oc;
     say "wrote %s trace to %s@." opts.trace_format path);
  say "@.done.@."

open Cmdliner

let full_t =
  Arg.(value & flag & info [ "full" ] ~doc:"Run at the paper's full workload sizes.")

let scale_t =
  Arg.(value & opt (some float) None
       & info [ "scale" ] ~doc:"Override the default scale factor.")

let only_t =
  Arg.(value & opt (some string) None
       & info [ "only" ]
           ~doc:"Comma-separated experiment ids (table1, fig3, fig3p, fig4..fig7, headtohead, ablation, scaling, amortized, planned, network, kernels, extensions, micro).")

let seed_t = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Deterministic RNG seed.")

let jobs_t =
  Arg.(value & opt (some int) None
       & info [ "jobs" ]
           ~doc:"OCaml domains per parallel protocol phase (default: SKNN_DOMAINS or the \
                 recommended domain count).")

let json_t =
  Arg.(value & opt (some string) None
       & info [ "json" ] ~doc:"Write per-run timings and counters to this JSON file.")

let trace_t =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a hierarchical span trace of every protocol run to $(docv).")

let repeat_t =
  Arg.(value & opt int 5
       & info [ "repeat" ] ~docv:"N"
           ~doc:"Steady-state queries after the first in the amortized experiment.")

let batch_t =
  Arg.(value & opt int 1
       & info [ "batch" ] ~docv:"M"
           ~doc:"Also run M queries through one batch round in the amortized \
                 experiment (1 disables).")

let trace_format_t =
  Arg.(value & opt string "chrome"
       & info [ "trace-format" ]
           ~doc:"Trace sink: chrome (Perfetto-loadable trace_event JSON), jsonl (one \
                 span per line) or pretty (indented tree).")

let prom_t =
  Arg.(value & opt (some string) None
       & info [ "prom" ] ~docv:"FILE"
           ~doc:"Write the metrics registry as Prometheus text exposition to $(docv) \
                 after all experiments.")

let calib_t =
  Arg.(value & opt (some string) None
       & info [ "calib" ] ~docv:"FILE"
           ~doc:"Calibration cache (JSON lines keyed by parameter set) shared with \
                 sknn cost and sknn plan; hits skip the per-op measurement pass, \
                 stale entries warn.")

let main full scale only seed jobs json trace trace_format repeat batch prom calib =
  (match jobs with
   | Some j when j < 1 ->
     Format.eprintf "--jobs must be at least 1 (got %d)@." j;
     exit 2
   | _ -> ());
  if repeat < 1 then begin
    Format.eprintf "--repeat must be at least 1 (got %d)@." repeat;
    exit 2
  end;
  if batch < 1 then begin
    Format.eprintf "--batch must be at least 1 (got %d)@." batch;
    exit 2
  end;
  let only = Option.map (String.split_on_char ',') only in
  run
    { full; scale; only; seed; jobs; json; trace; trace_format; repeat; batch; prom;
      calib }

let cmd =
  Cmd.v
    (Cmd.info "sknn-bench" ~doc:"Regenerate the paper's tables and figures")
    Term.(const main $ full_t $ scale_t $ only_t $ seed_t $ jobs_t $ json_t $ trace_t
          $ trace_format_t $ repeat_t $ batch_t $ prom_t $ calib_t)

let () = exit (Cmd.eval cmd)
