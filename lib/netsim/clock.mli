(** Virtual network clock: a pure replay of a {!Transcript.t} under a
    {!Profile.t}.

    No wall clock is ever read — every timestamp is a deterministic
    function of the transcript's message order and the profile's two
    constants, so the replayed timeline is byte-identical across worker
    counts, like the span tree.  Per message: departure waits for the
    sender's inbound causality and the directed channel's FIFO tail,
    serialization occupies the channel for bytes/bandwidth, and arrival
    adds RTT/2 propagation. *)

type cursor
(** Incremental form of the replay, for stamping virtual times onto
    messages as a live protocol run records them. *)

val cursor : Profile.t -> cursor

val step :
  cursor ->
  sender:Transcript.party ->
  receiver:Transcript.party ->
  bytes:int ->
  float * float
(** Advance the clock past one message; returns (departure, arrival) in
    virtual seconds.  Feeding a transcript's entries through [step] in
    seq order reproduces {!replay} exactly. *)

val elapsed_s : cursor -> float
(** Latest arrival seen so far — the running end-to-end wall-clock. *)

type message = {
  entry : Transcript.entry;
  departure_s : float;
  arrival_s : float;
}

type link = {
  link_a : Transcript.party;
  link_b : Transcript.party;  (** canonical unordered pair, as {!Transcript.links} *)
  link_messages : int;
  link_bytes : int;
  link_rounds : int;  (** {!Transcript.rounds} for the pair *)
  busy_s : float;  (** serialization time carried, either direction *)
  idle_s : float;  (** active span minus busy time *)
  first_departure_s : float;
  last_arrival_s : float;
  round_latency_s : float array;
      (** per round (run-pair rule of {!Transcript.rounds}): last arrival
          − first departure within the round *)
}

type timeline = {
  profile : Profile.t;
  messages : message list;  (** in transcript order *)
  links : link list;  (** canonical link order *)
  end_to_end_s : float;  (** latest arrival; 0 for an empty transcript *)
}

val replay : Profile.t -> Transcript.t -> timeline
(** Pure: same transcript and profile give a structurally identical
    timeline, whatever recorded it. *)

val quantile : float array -> float -> float
(** Nearest-rank quantile ([p] in [0,1]); 0 on an empty array.  Used for
    the per-round p50/p95 columns. *)

val link_name : link -> string
(** ["party-A<->party-B"]-style display key. *)

val pp : Format.formatter -> timeline -> unit
