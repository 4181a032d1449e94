module Timer = Util.Timer
module Json = Util.Json

type kind = Phase_enter | Phase_exit | Noise | Send | Chunk | Warning | Mark

let kind_code = function
  | Phase_enter -> 0
  | Phase_exit -> 1
  | Noise -> 2
  | Send -> 3
  | Chunk -> 4
  | Warning -> 5
  | Mark -> 6

let kind_of_code = function
  | 0 -> Phase_enter
  | 1 -> Phase_exit
  | 2 -> Noise
  | 3 -> Send
  | 4 -> Chunk
  | 5 -> Warning
  | _ -> Mark

let kind_name = function
  | Phase_enter -> "phase-enter"
  | Phase_exit -> "phase-exit"
  | Noise -> "noise"
  | Send -> "send"
  | Chunk -> "chunk"
  | Warning -> "warning"
  | Mark -> "mark"

type event = { ts : float; kind : kind; name : string; i : int; j : int; x : float }

(* Struct-of-arrays ring buffer: recording one event touches six flat
   array slots and bumps a counter — no allocation besides the name
   string the caller already holds, no locks (events are recorded only
   from the orchestrating domain, like trace spans). *)
type t = {
  cap : int;
  epoch : float;
  e_ts : float array;
  e_kind : int array;
  e_name : string array;
  e_i : int array;
  e_j : int array;
  e_x : float array;
  mutable next : int; (* total events ever recorded *)
}

let default_capacity = 8192

let create ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Flight.create: capacity must be positive";
  { cap = capacity;
    epoch = Timer.counter ();
    e_ts = Array.make capacity 0.0;
    e_kind = Array.make capacity 0;
    e_name = Array.make capacity "";
    e_i = Array.make capacity 0;
    e_j = Array.make capacity 0;
    e_x = Array.make capacity 0.0;
    next = 0 }

let capacity t = t.cap
let total t = t.next
let dropped t = Stdlib.max 0 (t.next - t.cap)

let record t kind ?(name = "") ?(i = 0) ?(j = 0) ?(x = 0.0) () =
  let s = t.next mod t.cap in
  t.e_ts.(s) <- Timer.counter () -. t.epoch;
  t.e_kind.(s) <- kind_code kind;
  t.e_name.(s) <- name;
  t.e_i.(s) <- i;
  t.e_j.(s) <- j;
  t.e_x.(s) <- x;
  t.next <- t.next + 1

let clear t =
  t.next <- 0;
  Array.fill t.e_name 0 t.cap ""

let events t =
  let live = Stdlib.min t.next t.cap in
  let first = t.next - live in
  List.init live (fun k ->
      let s = (first + k) mod t.cap in
      { ts = t.e_ts.(s);
        kind = kind_of_code t.e_kind.(s);
        name = t.e_name.(s);
        i = t.e_i.(s);
        j = t.e_j.(s);
        x = t.e_x.(s) })

(* ------------------------------------------------------------------ *)
(* Global default instance                                             *)
(* ------------------------------------------------------------------ *)

let env_capacity () =
  match Sys.getenv_opt "SKNN_FLIGHT_CAP" with
  | None -> default_capacity
  | Some s -> ( match int_of_string_opt s with Some c when c > 0 -> c | _ -> default_capacity)

let env_enabled () =
  match Sys.getenv_opt "SKNN_FLIGHT" with
  | Some ("0" | "off" | "false" | "no") -> false
  | _ -> true

let default_instance = lazy (create ~capacity:(env_capacity ()) ())
let default () = if env_enabled () then Some (Lazy.force default_instance) else None

(* ------------------------------------------------------------------ *)
(* Dump                                                                *)
(* ------------------------------------------------------------------ *)

(* JSONL: one header line describing the buffer, then one line per live
   event oldest-first, each tagged with a "rec" discriminator so flight
   dumps and jsonl traces can share a file or a parser. *)
let dump ?(run = []) t oc =
  let line fields = Json.output_line oc (Json.Obj fields) in
  line
    ([ ("rec", Json.Str "flight-header");
       ("capacity", Json.Int t.cap);
       ("total", Json.Int (total t));
       ("dropped", Json.Int (dropped t)) ]
     @ List.map (fun (k, v) -> (k, Json.Str v)) run);
  List.iter
    (fun e ->
      line
        [ ("rec", Json.Str "flight");
          ("ts", Json.Float e.ts);
          ("kind", Json.Str (kind_name e.kind));
          ("name", Json.Str e.name);
          ("i", Json.Int e.i);
          ("j", Json.Int e.j);
          ("x", Json.Float e.x) ])
    (events t)

let pp ppf t =
  Format.fprintf ppf "@[<v>flight: %d/%d events (%d dropped)@," (Stdlib.min t.next t.cap)
    t.cap (dropped t);
  List.iter
    (fun e ->
      Format.fprintf ppf "%12.6f %-12s %-28s i=%d j=%d x=%g@," e.ts (kind_name e.kind)
        e.name e.i e.j e.x)
    (events t);
  Format.fprintf ppf "@]"
