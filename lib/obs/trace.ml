module Counters = Util.Counters
module Timer = Util.Timer
module Json = Util.Json

type kind = Root | Phase | Stage | Chunk

let kind_name = function
  | Root -> "root"
  | Phase -> "phase"
  | Stage -> "stage"
  | Chunk -> "chunk"

type span = {
  name : string;
  kind : kind;
  start_s : float;
  dur_s : float;
  deltas : (string * Counters.t) list;
  args : (string * string) list;
  children : span list;
}

type frame = {
  f_name : string;
  f_kind : kind;
  f_start : float;
  f_args : (string * string) list;
  f_snaps : (string * Counters.t * Counters.t) list; (* owner, live, snapshot *)
  mutable f_children : span list; (* reversed *)
}

(* A wire event: one transcript message on the virtual-time axis, as
   replayed by Netsim.Clock.  Start/duration are virtual seconds, not
   wall time — the chrome sink renders them on their own process so the
   two axes are never mistaken for one. *)
type wire = {
  w_link : string;
  w_label : string;
  w_start_s : float;
  w_dur_s : float;
  w_args : (string * string) list;
}

type t = {
  enabled : bool;
  epoch : float;
  mutable stack : frame list;
  mutable rev_roots : span list;
  mutable rev_wire : wire list;
}

let disabled =
  { enabled = false; epoch = 0.0; stack = []; rev_roots = []; rev_wire = [] }

let create () =
  { enabled = true; epoch = Timer.counter (); stack = []; rev_roots = [];
    rev_wire = [] }

let is_enabled t = t.enabled

let attach t span =
  match t.stack with
  | f :: _ -> f.f_children <- span :: f.f_children
  | [] -> t.rev_roots <- span :: t.rev_roots

let with_span t ?(kind = Stage) ?(counters = []) ?(args = []) name f =
  if not t.enabled then f ()
  else begin
    let frame =
      { f_name = name; f_kind = kind; f_start = Timer.counter (); f_args = args;
        f_snaps = List.map (fun (owner, c) -> (owner, c, Counters.copy c)) counters;
        f_children = [] }
    in
    t.stack <- frame :: t.stack;
    Fun.protect
      ~finally:(fun () ->
        match t.stack with
        | top :: rest when top == frame ->
          t.stack <- rest;
          let deltas =
            List.filter_map
              (fun (owner, live, snap) ->
                let d = Counters.diff live snap in
                if Counters.is_zero d then None else Some (owner, d))
              frame.f_snaps
          in
          attach t
            { name = frame.f_name; kind = frame.f_kind;
              start_s = frame.f_start -. t.epoch;
              dur_s = Timer.counter () -. frame.f_start;
              deltas; args = frame.f_args;
              children = List.rev frame.f_children }
        | _ -> () (* unbalanced close: drop the span rather than corrupt the tree *))
      f
  end

let add_complete t ?(kind = Chunk) ?(args = []) ~name ~start ~dur () =
  if t.enabled then
    attach t
      { name; kind; start_s = start -. t.epoch; dur_s = dur; deltas = []; args;
        children = [] }

let roots t = List.rev t.rev_roots

let add_wire t ~link ~label ?(args = []) ~start ~dur () =
  if t.enabled then
    t.rev_wire <-
      { w_link = link; w_label = label; w_start_s = start; w_dur_s = dur;
        w_args = args }
      :: t.rev_wire

let wire t = List.rev t.rev_wire

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

type format = Pretty | Jsonl | Chrome

let format_of_string = function
  | "pretty" | "tree" -> Ok Pretty
  | "jsonl" -> Ok Jsonl
  | "chrome" | "trace_event" | "perfetto" -> Ok Chrome
  | other -> Error (Printf.sprintf "unknown trace format %S (pretty | jsonl | chrome)" other)

let json_args args = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) args)

let json_counters deltas =
  Json.Obj
    (List.map
       (fun (owner, d) ->
         ( owner,
           Json.Obj
             (List.filter_map
                (fun (k, v) -> if v = 0 then None else Some (k, Json.Int v))
                (Counters.to_list d)) ))
       deltas)

(* One JSON object per span per line, pre-order, nesting encoded by
   [depth]: greppable and parseable line by line. *)
let write_jsonl t oc =
  let rec line depth s =
    Json.output_line oc
      (Json.Obj
         [ ("depth", Json.Int depth);
           ("name", Json.Str s.name);
           ("kind", Json.Str (kind_name s.kind));
           ("start_s", Json.Float s.start_s);
           ("dur_s", Json.Float s.dur_s);
           ("args", json_args s.args);
           ("counters", json_counters s.deltas) ]);
    List.iter (line (depth + 1)) s.children
  in
  List.iter (line 0) (roots t)

(* Chrome trace_event JSON (complete "X" events), loadable in Perfetto
   and chrome://tracing.  Timestamps are microseconds from the trace
   epoch.  Spans with a ["party"] arg (the protocol phases) get their own
   thread lane, children inherit their parent's lane, and everything else
   runs on the orchestrator lane — so the timeline reads as client /
   A-compute / B-compute tracks.  Wire events recorded via [add_wire]
   render as a separate "virtual network" process (their time axis is the
   Clock's virtual seconds, not wall time). *)
let orchestrator_lane = "orchestrator"

let span_lanes t =
  let rev_lanes = ref [ orchestrator_lane ] in
  let rec collect inherited s =
    let lane =
      match List.assoc_opt "party" s.args with Some p -> p | None -> inherited
    in
    if not (List.mem lane !rev_lanes) then rev_lanes := lane :: !rev_lanes;
    List.iter (collect lane) s.children
  in
  List.iter (collect orchestrator_lane) (roots t);
  List.rev !rev_lanes

(* A lane's thread id: its 1-based position in [lanes]. *)
let tid_in lanes lane =
  let rec go i = function
    | [] -> 1
    | l :: _ when String.equal l lane -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 1 lanes

let write_chrome t oc =
  let rev_events = ref [] in
  let emit fields = rev_events := Json.Obj fields :: !rev_events in
  let meta ~pid ~tid ~event ~name =
    emit
      [ ("name", Json.Str event);
        ("ph", Json.Str "M");
        ("pid", Json.Int pid);
        ("tid", Json.Int tid);
        ("args", json_args [ ("name", name) ]) ]
  in
  let slice ~name ~cat ~start_s ~dur_s ~pid ~tid ~args =
    emit
      [ ("name", Json.Str name);
        ("cat", Json.Str cat);
        ("ph", Json.Str "X");
        ("ts", Json.Float (start_s *. 1e6));
        ("dur", Json.Float (dur_s *. 1e6));
        ("pid", Json.Int pid);
        ("tid", Json.Int tid);
        ("args", json_args args) ]
  in
  let lanes = span_lanes t in
  meta ~pid:1 ~tid:0 ~event:"process_name" ~name:"sknn";
  List.iteri
    (fun i lane -> meta ~pid:1 ~tid:(i + 1) ~event:"thread_name" ~name:lane)
    lanes;
  let rec event inherited s =
    let lane =
      match List.assoc_opt "party" s.args with Some p -> p | None -> inherited
    in
    let args =
      s.args
      @ List.concat_map
          (fun (owner, d) ->
            List.filter_map
              (fun (k, v) ->
                if v = 0 then None else Some (owner ^ "." ^ k, string_of_int v))
              (Counters.to_list d))
          s.deltas
    in
    slice ~name:s.name ~cat:(kind_name s.kind) ~start_s:s.start_s ~dur_s:s.dur_s
      ~pid:1 ~tid:(tid_in lanes lane) ~args;
    List.iter (event lane) s.children
  in
  List.iter (event orchestrator_lane) (roots t);
  (match wire t with
   | [] -> ()
   | ws ->
     let rev_links = ref [] in
     List.iter
       (fun w -> if not (List.mem w.w_link !rev_links) then rev_links := w.w_link :: !rev_links)
       ws;
     let links = List.rev !rev_links in
     meta ~pid:2 ~tid:0 ~event:"process_name" ~name:"virtual network";
     List.iteri
       (fun i link ->
         meta ~pid:2 ~tid:(i + 1) ~event:"thread_name" ~name:("wire " ^ link))
       links;
     List.iter
       (fun w ->
         slice ~name:w.w_label ~cat:"wire" ~start_s:w.w_start_s ~dur_s:w.w_dur_s ~pid:2
           ~tid:(tid_in links w.w_link) ~args:w.w_args)
       ws);
  Json.output_line oc
    (Json.Obj
       [ ("displayTimeUnit", Json.Str "ms"); ("traceEvents", Json.List (List.rev !rev_events)) ])

let pp_span_counters ppf deltas =
  List.iter
    (fun (owner, d) ->
      let nonzero = List.filter (fun (_, v) -> v <> 0) (Counters.to_list d) in
      Format.fprintf ppf "  [%s:%s]" owner
        (String.concat ""
           (List.map (fun (k, v) -> Printf.sprintf " %s=%d" k v) nonzero)))
    deltas

let pp_tree ppf t =
  let rec pp depth s =
    Format.fprintf ppf "%s%s %a%a%s@,"
      (String.make (2 * depth) ' ')
      s.name Timer.pp_duration s.dur_s pp_span_counters s.deltas
      (match s.args with
       | [] -> ""
       | args ->
         " {" ^ String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) args) ^ "}");
    List.iter (pp (depth + 1)) s.children
  in
  Format.fprintf ppf "@[<v>";
  List.iter (pp 0) (roots t);
  Format.fprintf ppf "@]"

(* "trace.json" → "trace.3.json" (the index lands before the extension
   when the basename has one, after the path otherwise).  Repeated runs
   write one file each instead of clobbering the first. *)
let indexed_path path i =
  if i = 0 then path
  else
    let ext_dot =
      match String.rindex_opt path '.' with
      | None -> None
      | Some d -> (
        match String.rindex_opt path '/' with
        | Some s when s > d -> None
        | _ -> Some d)
    in
    match ext_dot with
    | Some d ->
      Printf.sprintf "%s.%d%s" (String.sub path 0 d) i
        (String.sub path d (String.length path - d))
    | None -> Printf.sprintf "%s.%d" path i

let write t format oc =
  match format with
  | Jsonl -> write_jsonl t oc
  | Chrome -> write_chrome t oc
  | Pretty ->
    let ppf = Format.formatter_of_out_channel oc in
    Format.fprintf ppf "%a@." pp_tree t
