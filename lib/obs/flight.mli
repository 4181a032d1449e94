(** Flight recorder: a fixed-size ring buffer of timestamped events,
    cheap enough to leave on for every run.

    Recording an event writes six flat array slots and bumps a counter —
    no allocation, no locks.  Like trace spans, events are recorded only
    from the {e orchestrating} domain (pool chunk stats arrive replayed
    post-join in worker order), so the stream restricted to non-[Chunk]
    events is bit-identical across [--jobs] values.

    When the buffer wraps, the oldest events are overwritten; [total]
    and [dropped] keep the bookkeeping honest.  Dump the buffer on
    demand ([sknn query --flight FILE]), on [Bgv.Decryption_failure], or
    whenever a run ends surprisingly — it answers "what was the protocol
    doing just before this?" without re-running with tracing on. *)

type kind =
  | Phase_enter  (** protocol phase opened; [name] = phase *)
  | Phase_exit   (** phase closed; [name] = phase, [x] = duration (s) *)
  | Noise        (** BGV headroom sample; [name] = batch label, [i] = level, [x] = noise-budget bits *)
  | Send
      (** transcript send; [name] = "sender->receiver", [i] = bytes.
          When a network profile is attached, [j] = transcript seq and
          [x] = virtual arrival time (seconds) from the clock replay —
          deterministic, so the wall-stripped stream stays bit-identical
          across job counts. *)
  | Chunk        (** pool chunk replayed post-join; [name] = label, [i]=[lo], [j]=[hi], [x] = seconds *)
  | Warning      (** structured warning, e.g. the noise forecaster; [name] = label, [x] = value *)
  | Mark         (** free-form marker *)

val kind_name : kind -> string

type event = { ts : float; kind : kind; name : string; i : int; j : int; x : float }

type t

val default_capacity : int

val create : ?capacity:int -> unit -> t
(** Fresh recorder; the epoch is the creation instant.
    @raise Invalid_argument if [capacity < 1]. *)

val default : unit -> t option
(** The process-wide recorder the CLI attaches by default.  [None] when
    disabled via [SKNN_FLIGHT=0]; capacity from [SKNN_FLIGHT_CAP]
    (default {!default_capacity}). *)

val record : t -> kind -> ?name:string -> ?i:int -> ?j:int -> ?x:float -> unit -> unit
val capacity : t -> int

val total : t -> int
(** Events ever recorded (monotonic; exceeds [capacity] after a wrap). *)

val dropped : t -> int
(** Events lost to wrapping: [max 0 (total - capacity)]. *)

val clear : t -> unit

val events : t -> event list
(** Live events, oldest first (at most [capacity]). *)

val dump : ?run:(string * string) list -> t -> out_channel -> unit
(** JSONL: one [{"rec":"flight-header",...}] line carrying
    capacity/total/dropped plus the [run] key/values, then one
    [{"rec":"flight",...}] line per live event.  The ["rec"]
    discriminator lets flight dumps share a parser (and a file) with
    jsonl traces. *)

val pp : Format.formatter -> t -> unit
