(* Compare a fresh bench JSON against the committed baseline:

     check_regress.exe BASELINE.json CURRENT.json [MAX_REGRESS_PCT]

   Two kinds of gate, and only the exact kind is unconditional.

   Exact gates run on every pair of files: each network run's predicted
   transcript matches the live one, its predicted wire seconds equal
   the replayed ones, and the replayed wire seconds equal the
   baseline's for the same (shape, profile, n) row; within the current
   file, the planner's pick is no slower than the preset.  These
   compare pure functions of the transcript, or two runs on one
   machine, so no host can move them.

   Timing gates compare wall times across the two files: the fig3
   compute-distances mean and the amortized steady-state means must not
   regress more than the allowed percentage, and each phase's
   measured/predicted ratio (runs carrying [predicted_phases]) must
   stay within twice that of the baseline's.  They run only when both
   files carry the same [machine] stamp (OS, word size, domain count
   and CPU model); otherwise each prints a skip note.  Timings from
   another CPU say nothing about this change: on a shared 2-vCPU VM two
   runs of the same code already disagree by more than the budget.
   perfbench (BENCHMARK.json) owns timing claims: interleaved
   parent/change pairs on one host. *)

open Util.Json

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let num name v = Option.bind (member name v) number

let doc_of path =
  match of_string (read_file path) with
  | Error msg -> failwith (path ^ ": " ^ msg)
  | Ok doc -> doc

let runs_of path =
  match member "runs" (doc_of path) with
  | Some (List l) -> l
  | _ -> failwith (path ^ ": no runs array")

(* The bench's [machine] stamp; files written before it existed have
   none. *)
let machine_of path = match member "machine" (doc_of path) with Some (Str s) -> Some s | _ -> None

let phase_seconds name run = Option.bind (member "phases" run) (num name)

(* Mean of the fig3 runs' compute-distances phase, in seconds. *)
let mean_compute_distances path =
  let samples =
    List.filter_map
      (fun run ->
        match member "experiment" run with
        | Some (Str "fig3") -> phase_seconds "compute-distances" run
        | _ -> None)
      (runs_of path)
  in
  match samples with
  | [] -> failwith (path ^ ": no fig3 compute-distances samples")
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* Mean compute-distances over the amortized experiment's steady-state
   queries on one computation plan: plain on a dot-product deployment
   ([packed = false]; runs written before the packed field existed
   count here too) or the slot-packed one ([packed = true]).  [None]
   when the file carries no such samples (e.g. a bench run with --only
   fig3, or a pre-packing baseline asked for packed samples). *)
let mean_steady_compute_distances ~packed path =
  let samples =
    List.filter_map
      (fun run ->
        let is_packed = member "packed" run = Some (Bool true) in
        match (member "experiment" run, member "steady_state" run) with
        | Some (Str "amortized"), Some (Bool true) when is_packed = packed ->
          phase_seconds "compute-distances" run
        | _ -> None)
      (runs_of path)
  in
  match samples with
  | [] -> None
  | l -> Some (List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l))

(* Mean total seconds of the planned experiment's steady-state queries
   on one variant ("preset" or "planned"); [None] when the file has no
   such samples (pre-planner baselines, or a bench run without the
   planned experiment). *)
let mean_planned_steady ~variant path =
  let samples =
    List.filter_map
      (fun run ->
        match
          ( member "experiment" run,
            member "variant" run,
            member "steady_state" run )
        with
        | Some (Str "planned"), Some (Str v), Some (Bool true) when v = variant ->
          num "seconds" run
        | _ -> None)
      (runs_of path)
  in
  match samples with
  | [] -> None
  | l -> Some (List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l))

(* Mean measured/predicted seconds per phase over an experiment's runs
   that carry [predicted_phases].  Phases whose measured time is below
   [floor_s] in a given run are folded only into the "total" row: a
   sub-millisecond encrypt-query ratio is all scheduler noise, while the
   total keeps every phase accountable. *)
let floor_s = 0.005

let attribution_ratios ~experiment path =
  let acc : (string, (float * int) ref) Hashtbl.t = Hashtbl.create 8 in
  let add phase ratio =
    match Hashtbl.find_opt acc phase with
    | Some r -> r := (fst !r +. ratio, snd !r + 1)
    | None -> Hashtbl.add acc phase (ref (ratio, 1))
  in
  List.iter
    (fun run ->
      if member "experiment" run = Some (Str experiment) then
        match (member "predicted_phases" run, member "phases" run) with
        | Some (Obj predicted), Some (Obj measured) ->
          let tot_p = ref 0.0 and tot_m = ref 0.0 in
          List.iter
            (fun (phase, pv) ->
              match (number pv, Option.bind (List.assoc_opt phase measured) number) with
              | Some p, Some m when p > 0.0 ->
                tot_p := !tot_p +. p;
                tot_m := !tot_m +. m;
                if m >= floor_s then add phase (m /. p)
              | _ -> ())
            predicted;
          if !tot_p > 0.0 then add "total" (!tot_m /. !tot_p)
        | _ -> ())
    (runs_of path);
  Hashtbl.fold (fun phase r rows -> (phase, fst !r /. float_of_int (snd !r)) :: rows)
    acc []
  |> List.sort compare

(* The network experiment's runs: (shape, profile, n, predicted wire,
   replayed wire, transcript_exact).  Wire seconds are pure functions of
   (transcript, profile) — machine-independent — so they are gated on
   equality, not a drift budget. *)
let network_runs path =
  List.filter_map
    (fun run ->
      if member "experiment" run = Some (Str "network") then
        match
          ( member "shape" run,
            member "profile" run,
            num "n" run,
            num "predicted_wire_s" run,
            num "replayed_wire_s" run,
            member "transcript_exact" run )
        with
        | Some (Str shape), Some (Str profile), Some n, Some pw, Some rw, Some (Bool exact)
          ->
          Some (shape, profile, n, pw, rw, exact)
        | _ -> None
      else None)
    (runs_of path)

let same_wire a b =
  (* Exact up to the %.9g rounding that older bench files carry. *)
  Float.abs (a -. b) <= 1e-8 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let check_drift ~label ~max_pct ~baseline ~current =
  let drift_pct = (current -. baseline) /. baseline *. 100.0 in
  Printf.printf "%s measured/predicted: baseline %.2fx, current %.2fx (%+.1f%%)\n" label
    baseline current drift_pct;
  if Float.abs drift_pct > max_pct then begin
    Printf.printf "FAIL: %s attribution drift exceeds %.0f%% budget\n" label max_pct;
    false
  end
  else begin
    Printf.printf "OK: within %.0f%% drift budget\n" max_pct;
    true
  end

let check ~label ~max_pct ~baseline ~current =
  let delta_pct = (current -. baseline) /. baseline *. 100.0 in
  Printf.printf "%s mean: baseline %.3fs, current %.3fs (%+.1f%%)\n" label baseline
    current delta_pct;
  if delta_pct > max_pct then begin
    Printf.printf "FAIL: %s regression exceeds %.0f%% budget\n" label max_pct;
    false
  end
  else begin
    Printf.printf "OK: within %.0f%% budget\n" max_pct;
    true
  end

let () =
  let baseline_path, current_path, max_pct =
    match Array.to_list Sys.argv with
    | [ _; b; c ] -> (b, c, 25.0)
    | [ _; b; c; pct ] -> (b, c, float_of_string pct)
    | _ ->
      prerr_endline "usage: check_regress BASELINE.json CURRENT.json [MAX_REGRESS_PCT]";
      exit 2
  in
  let same_machine =
    match (machine_of baseline_path, machine_of current_path) with
    | Some b, Some c when String.equal b c ->
      Printf.printf "machine: %s (both files); timing gates run\n" c;
      true
    | b, c ->
      let show = Option.value ~default:"none" in
      Printf.printf "machine: baseline %s, current %s; timing gates skip\n" (show b) (show c);
      false
  in
  (* A timing gate runs only between like machines. *)
  let timing_gate label gate =
    if same_machine then gate ()
    else begin
      Printf.printf "note: %s is a timing gate and the machine stamps differ; skipping it\n" label;
      true
    end
  in
  let ok_fig3 =
    timing_gate "compute-distances" (fun () ->
        check ~label:"compute-distances" ~max_pct
          ~baseline:(mean_compute_distances baseline_path)
          ~current:(mean_compute_distances current_path))
  in
  let steady_gate ~packed ~label =
    timing_gate label (fun () ->
        match
          ( mean_steady_compute_distances ~packed baseline_path,
            mean_steady_compute_distances ~packed current_path )
        with
        | Some baseline, Some current -> check ~label ~max_pct ~baseline ~current
        | _ ->
          Printf.printf "note: no %s samples in both files; skipping that gate\n" label;
          true)
  in
  let ok_steady =
    steady_gate ~packed:false ~label:"steady-state compute-distances"
  in
  let ok_packed =
    steady_gate ~packed:true ~label:"packed steady-state compute-distances"
  in
  (* Attribution drift: wider budget than the raw-time gates (2x) —
     the ratio divides out machine speed, but small phases still jitter. *)
  let attr_pct = 2.0 *. max_pct in
  let attribution_gate experiment =
    timing_gate (experiment ^ " attribution drift") @@ fun () ->
    match
      ( attribution_ratios ~experiment baseline_path,
        attribution_ratios ~experiment current_path )
    with
    | [], _ | _, [] ->
      Printf.printf
        "note: no %s predicted_phases samples in both files; skipping attribution gate\n"
        experiment;
      true
    | base, cur ->
      List.fold_left
        (fun ok (phase, rc) ->
          match List.assoc_opt phase base with
          | None -> ok (* phase new since the baseline: nothing to drift from *)
          | Some rb ->
            check_drift ~label:(experiment ^ " " ^ phase) ~max_pct:attr_pct ~baseline:rb
              ~current:rc
            && ok)
        true cur
  in
  let ok_attr3 = attribution_gate "fig3" in
  let ok_attr3p = attribution_gate "fig3p" in
  (* Planner gate: within the current file, the planner's pick must not
     be slower than the preset at the same workload (the planned
     experiment runs both over identical queries).  Skips gracefully
     when the file predates the experiment. *)
  let ok_planned =
    match
      ( mean_planned_steady ~variant:"planned" current_path,
        mean_planned_steady ~variant:"preset" current_path )
    with
    | Some planned, Some preset ->
      Printf.printf
        "planned-vs-preset steady mean: planned %.3fs, preset %.3fs (%.2fx)\n" planned
        preset (preset /. planned);
      if planned <= preset then begin
        Printf.printf "OK: planner pick is no slower than the preset\n";
        true
      end
      else begin
        Printf.printf "FAIL: planner pick is slower than the preset\n";
        false
      end
    | _ ->
      Printf.printf "note: no planned-experiment samples; skipping planner gate\n";
      true
  in
  (* Network gate: every network run of the current file must carry an
     exactly-matching predicted transcript and identical predicted vs
     replayed wire time (both come from the same pure replay); against a
     baseline that has the same (shape, profile, n) rows, the replayed
     wire seconds must be equal — there is no machine to blame a
     difference on.  Skips when the current file carries no network runs
     (e.g. --only fig3). *)
  let ok_network =
    match network_runs current_path with
    | [] ->
      Printf.printf "note: no network-experiment samples; skipping network gate\n";
      true
    | cur ->
      let base = network_runs baseline_path in
      List.fold_left
        (fun ok (shape, profile, n, pw, rw, exact) ->
          let label = Printf.sprintf "network %s/%s" shape profile in
          let ok_run =
            if not exact then begin
              Printf.printf "FAIL: %s predicted transcript diverges from the live one\n"
                label;
              false
            end
            else if not (same_wire pw rw) then begin
              Printf.printf "FAIL: %s predicted wire %.9gs <> replayed wire %.9gs\n"
                label pw rw;
              false
            end
            else
              match
                List.find_opt
                  (fun (s, p, n', _, _, _) -> s = shape && p = profile && n' = n)
                  base
              with
              | Some (_, _, _, _, rw_base, _) when not (same_wire rw rw_base) ->
                Printf.printf
                  "FAIL: %s replayed wire %.9gs <> baseline %.9gs (same n=%g)\n" label
                  rw rw_base n;
                false
              | Some (_, _, _, _, rw_base, _) ->
                Printf.printf "OK: %s wire %.9gs (exact: prediction, replay%s)\n" label
                  rw
                  (if rw_base = rw then ", baseline" else ", baseline to 9 digits");
                true
              | None ->
                Printf.printf "OK: %s wire %.9gs (exact: prediction, replay; no \
                               baseline row)\n"
                  label rw;
                true
          in
          ok_run && ok)
        true cur
  in
  if not
       (ok_fig3 && ok_steady && ok_packed && ok_attr3 && ok_attr3p && ok_planned
        && ok_network)
  then exit 1
