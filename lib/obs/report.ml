(* Offline aggregation of recorded observability output: jsonl traces
   (Trace.write Jsonl) and flight-recorder dumps (Flight.dump) go in,
   per-phase latency percentiles, bytes-per-link and noise-margin tables
   come out. *)

module Json = Util.Json

let str_member name j = match Json.member name j with Some (Json.Str s) -> Some s | _ -> None
let num_member name j = Option.bind (Json.member name j) Json.number

(* ------------------------------------------------------------------ *)
(* Accumulator                                                         *)
(* ------------------------------------------------------------------ *)

(* One parsed {"rec":"net-link"} record: the virtual-clock per-link
   numbers of one replayed run. *)
type net_sample = {
  ns_messages : int;
  ns_bytes : int;
  ns_rounds : int;
  ns_busy_s : float;
  ns_idle_s : float;
  ns_p50_s : float;
  ns_p95_s : float;
}

type t = {
  phase_durs : (string, float list ref) Hashtbl.t;
  link_bytes : (string, int ref * int ref) Hashtbl.t; (* sends, bytes *)
  noise : (string, float list ref) Hashtbl.t; (* label -> headroom samples *)
  cost : (string, (float * float) list ref) Hashtbl.t;
      (* phase -> (predicted_s, measured_s) samples from sknn-cost lines *)
  net_e2e : (string, float list ref) Hashtbl.t;
      (* profile -> end-to-end samples from net lines *)
  net_links : (string * string, net_sample list ref) Hashtbl.t;
      (* (profile, link) -> per-run virtual-clock link rows *)
  mutable cur_profile : string;
      (* net-link lines don't repeat the profile; the preceding net line
         of the same stream sets it *)
  mutable lines : int;
  mutable skipped : int;
}

let create () =
  { phase_durs = Hashtbl.create 16;
    link_bytes = Hashtbl.create 16;
    noise = Hashtbl.create 16;
    cost = Hashtbl.create 16;
    net_e2e = Hashtbl.create 4;
    net_links = Hashtbl.create 8;
    cur_profile = "";
    lines = 0;
    skipped = 0 }

let push tbl key v =
  match Hashtbl.find_opt tbl key with
  | Some r -> r := v :: !r
  | None -> Hashtbl.add tbl key (ref [ v ])

let add_line t line =
  let line = String.trim line in
  if line = "" then ()
  else begin
    t.lines <- t.lines + 1;
    match Json.of_string line with
    | Error _ -> t.skipped <- t.skipped + 1
    | Ok j -> (
      match str_member "rec" j with
      | Some "flight" -> (
        let name = Option.value ~default:"" (str_member "name" j) in
        match str_member "kind" j with
        | Some "phase-exit" ->
          Option.iter (fun x -> push t.phase_durs name x) (num_member "x" j)
        | Some "send" ->
          Option.iter
            (fun bytes ->
              let sends, total =
                match Hashtbl.find_opt t.link_bytes name with
                | Some p -> p
                | None ->
                  let p = (ref 0, ref 0) in
                  Hashtbl.add t.link_bytes name p;
                  p
              in
              incr sends;
              total := !total + int_of_float bytes)
            (num_member "i" j)
        | Some "noise" ->
          Option.iter (fun x -> push t.noise name x) (num_member "x" j)
        | _ -> () (* header, chunk, marks: nothing to aggregate *))
      | Some "flight-header" -> ()
      | Some "calibration" -> () (* unit-cost table: context, nothing to aggregate *)
      | Some "net" -> (
        match (str_member "profile" j, num_member "end_to_end_s" j) with
        | Some profile, Some e2e ->
          t.cur_profile <- profile;
          push t.net_e2e profile e2e
        | _ -> t.skipped <- t.skipped + 1)
      | Some "net-link" -> (
        let num name = num_member name j in
        match
          (str_member "link" j, num "messages", num "bytes", num "rounds",
           num "busy_s", num "idle_s", num "round_p50_s", num "round_p95_s")
        with
        | Some link, Some msgs, Some bytes, Some rounds, Some busy, Some idle,
          Some p50, Some p95 ->
          push t.net_links (t.cur_profile, link)
            { ns_messages = int_of_float msgs;
              ns_bytes = int_of_float bytes;
              ns_rounds = int_of_float rounds;
              ns_busy_s = busy;
              ns_idle_s = idle;
              ns_p50_s = p50;
              ns_p95_s = p95 }
        | _ -> t.skipped <- t.skipped + 1)
      | Some "cost" -> (
        (* sknn-cost attribution line: predicted vs measured seconds per
           protocol phase, one sample each. *)
        match Json.member "phases" j with
        | Some (Json.List entries) ->
          List.iter
            (fun e ->
              match
                (str_member "phase" e, num_member "predicted_s" e, num_member "measured_s" e)
              with
              | Some phase, Some p, Some m -> push t.cost phase (p, m)
              | _ -> ())
            entries
        | _ -> ())
      | Some "cost-net" -> () (* one-line summary; the net records carry the data *)
      | _ -> (
        (* jsonl trace line: every phase-kind span contributes. *)
        match str_member "kind" j, str_member "name" j, num_member "dur_s" j with
        | Some "phase", Some name, Some dur -> push t.phase_durs name dur
        | Some _, _, _ -> ()
        | None, _, _ -> t.skipped <- t.skipped + 1))
  end

let add_channel t ic =
  try
    while true do
      add_line t (input_line ic)
    done
  with End_of_file -> ()

let add_file t path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> add_channel t ic)

let lines t = t.lines
let skipped t = t.skipped

(* Nearest-rank percentile over a sorted sample array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Report.percentile: empty sample";
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  sorted.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))

type phase_row = {
  phase : string;
  samples : int;
  p50_s : float;
  p95_s : float;
  p99_s : float;
  max_s : float;
}

type link_row = { link : string; sends : int; bytes : int }

type cost_row = {
  cost_phase : string;
  cost_samples : int;
  predicted_s : float; (* mean *)
  measured_s : float; (* mean *)
}
type noise_row = { noise_label : string; noise_samples : int; min_bits : float; mean_bits : float }

type net_link_row = {
  net_profile : string;
  net_link : string;
  net_runs : int;
  net_messages : int; (* per run; constant across runs of one shape *)
  net_bytes : int;
  net_rounds : int;
  net_busy_s : float; (* means over runs *)
  net_idle_s : float;
  net_round_p50_s : float;
  net_round_p95_s : float;
}

type net_e2e_row = {
  e2e_profile : string;
  e2e_samples : int;
  e2e_p50_s : float;
  e2e_p95_s : float;
}

let sorted_rows tbl f =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map f

let phases t =
  sorted_rows t.phase_durs (fun (phase, durs) ->
      let a = Array.of_list !durs in
      Array.sort compare a;
      { phase;
        samples = Array.length a;
        p50_s = percentile a 50.0;
        p95_s = percentile a 95.0;
        p99_s = percentile a 99.0;
        max_s = a.(Array.length a - 1) })

let links t =
  sorted_rows t.link_bytes (fun (link, (sends, bytes)) ->
      { link; sends = !sends; bytes = !bytes })

let attribution t =
  sorted_rows t.cost (fun (cost_phase, samples) ->
      let l = !samples in
      let n = List.length l in
      let mean f = List.fold_left (fun a x -> a +. f x) 0.0 l /. float_of_int n in
      { cost_phase;
        cost_samples = n;
        predicted_s = mean fst;
        measured_s = mean snd })

let net_timeline t =
  sorted_rows t.net_links (fun ((net_profile, net_link), samples) ->
      let l = !samples in
      let n = List.length l in
      let mean f = List.fold_left (fun a x -> a +. f x) 0.0 l /. float_of_int n in
      let last = List.hd l in
      { net_profile;
        net_link;
        net_runs = n;
        net_messages = last.ns_messages;
        net_bytes = last.ns_bytes;
        net_rounds = last.ns_rounds;
        net_busy_s = mean (fun x -> x.ns_busy_s);
        net_idle_s = mean (fun x -> x.ns_idle_s);
        net_round_p50_s = mean (fun x -> x.ns_p50_s);
        net_round_p95_s = mean (fun x -> x.ns_p95_s) })

let net_end_to_end t =
  sorted_rows t.net_e2e (fun (e2e_profile, samples) ->
      let a = Array.of_list !samples in
      Array.sort compare a;
      { e2e_profile;
        e2e_samples = Array.length a;
        e2e_p50_s = percentile a 50.0;
        e2e_p95_s = percentile a 95.0 })

let noise_margins t =
  sorted_rows t.noise (fun (noise_label, samples) ->
      let l = !samples in
      let n = List.length l in
      { noise_label;
        noise_samples = n;
        min_bits = List.fold_left Float.min infinity l;
        mean_bits = List.fold_left ( +. ) 0.0 l /. float_of_int n })

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "parsed %d lines (%d skipped)@," t.lines t.skipped;
  (match phases t with
   | [] -> Format.fprintf ppf "no phase samples@,"
   | rows ->
     Format.fprintf ppf "@,%-22s %8s %12s %12s %12s %12s@," "phase" "samples" "p50" "p95"
       "p99" "max";
     List.iter
       (fun r ->
         Format.fprintf ppf "%-22s %8d %11.6fs %11.6fs %11.6fs %11.6fs@," r.phase
           r.samples r.p50_s r.p95_s r.p99_s r.max_s)
       rows);
  (match links t with
   | [] -> ()
   | rows ->
     Format.fprintf ppf "@,%-28s %8s %14s@," "link" "sends" "bytes";
     List.iter
       (fun r -> Format.fprintf ppf "%-28s %8d %14d@," r.link r.sends r.bytes)
       rows);
  (match attribution t with
   | [] -> ()
   | rows ->
     Format.fprintf ppf "@,%-22s %8s %12s %12s %8s@," "cost attribution" "samples"
       "predicted" "measured" "ratio";
     List.iter
       (fun r ->
         Format.fprintf ppf "%-22s %8d %11.6fs %11.6fs " r.cost_phase r.cost_samples
           r.predicted_s r.measured_s;
         if r.predicted_s > 0.0 then
           Format.fprintf ppf "%7.2fx@," (r.measured_s /. r.predicted_s)
         else Format.fprintf ppf "%8s@," "-")
       rows);
  (match net_timeline t with
   | [] -> ()
   | rows ->
     Format.fprintf ppf "@,%-10s %-24s %5s %5s %10s %7s %12s %12s %11s %11s@,"
       "network" "link" "runs" "msgs" "bytes" "rounds" "busy" "idle" "round p50"
       "round p95";
     List.iter
       (fun r ->
         Format.fprintf ppf
           "%-10s %-24s %5d %5d %10d %7d %11.6fs %11.6fs %10.6fs %10.6fs@,"
           r.net_profile r.net_link r.net_runs r.net_messages r.net_bytes
           r.net_rounds r.net_busy_s r.net_idle_s r.net_round_p50_s
           r.net_round_p95_s)
       rows;
     List.iter
       (fun r ->
         Format.fprintf ppf "%-10s end-to-end: %d run%s, p50 %.6fs, p95 %.6fs@,"
           r.e2e_profile r.e2e_samples
           (if r.e2e_samples = 1 then "" else "s")
           r.e2e_p50_s r.e2e_p95_s)
       (net_end_to_end t));
  (match noise_margins t with
   | [] -> ()
   | rows ->
     Format.fprintf ppf "@,%-28s %8s %10s %10s@," "noise headroom" "samples" "min" "mean";
     List.iter
       (fun r ->
         Format.fprintf ppf "%-28s %8d %9.1fb %9.1fb@," r.noise_label r.noise_samples
           r.min_bits r.mean_bits)
       rows);
  Format.fprintf ppf "@]"
