(* GC time from the OCaml runtime's own event ring (runtime_events),
   used by the traced run only.  Collection is paused outside the spans
   being measured; [take] drains the ring and returns the seconds spent
   in minor collections and in major slices since the previous call. *)

type t = {
  cursor : Runtime_events.cursor;
  callbacks : Runtime_events.Callbacks.t;
  open_minor : int64 option ref;
  open_slice : int64 option ref;
  minor_ns : int64 ref;
  slice_ns : int64 ref;
  lost : int ref;
}

let start () =
  Runtime_events.start ();
  Runtime_events.pause ();
  let open_minor = ref None and open_slice = ref None in
  let minor_ns = ref 0L and slice_ns = ref 0L and lost = ref 0 in
  let cell = function
    | Runtime_events.EV_MINOR -> Some (open_minor, minor_ns)
    | Runtime_events.EV_MAJOR_SLICE -> Some (open_slice, slice_ns)
    | _ -> None
  in
  let ts t = Runtime_events.Timestamp.to_int64 t in
  let runtime_begin _ t phase =
    Option.iter (fun (o, _) -> o := Some (ts t)) (cell phase)
  in
  let runtime_end _ t phase =
    match cell phase with
    | Some (({ contents = Some t0 } as o), acc) ->
      acc := Int64.add !acc (Int64.sub (ts t) t0);
      o := None
    | _ -> ()
  in
  let callbacks =
    Runtime_events.Callbacks.create ~runtime_begin ~runtime_end
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()
  in
  { cursor = Runtime_events.create_cursor None; callbacks; open_minor; open_slice;
    minor_ns; slice_ns; lost }

let drain t = ignore (Runtime_events.read_poll t.cursor t.callbacks None)

(* Run [f] with collection on, then return its GC seconds. *)
let around t f =
  drain t;
  t.open_minor := None;
  t.open_slice := None;
  t.minor_ns := 0L;
  t.slice_ns := 0L;
  Runtime_events.resume ();
  let x = Fun.protect ~finally:Runtime_events.pause f in
  drain t;
  let s r = Int64.to_float !r *. 1e-9 in
  (x, s t.minor_ns, s t.slice_ns)

let lost_events t = !(t.lost)
