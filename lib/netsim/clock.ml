(* Pure replay of a transcript into virtual network time.

   The clock never reads a wall clock: every timestamp is derived from
   the transcript's message order and the profile's two constants, in a
   single deterministic fold.  Model per message:

     departure = max(receiver-side causality of the sender, channel free)
     serialization = bytes / bandwidth        (occupies the directed channel)
     arrival = departure + serialization + RTT/2

   A party cannot send before it has received every message addressed to
   it earlier in the transcript (the protocol is a sequential exchange),
   and each directed channel is FIFO: a message cannot start serializing
   before the previous one in the same direction finished. *)

let idx = function
  | Transcript.Data_owner -> 0
  | Transcript.Party_a -> 1
  | Transcript.Party_b -> 2
  | Transcript.Client -> 3

type cursor = {
  prof : Profile.t;
  avail : float array;  (* per party: time all earlier inbound traffic arrived *)
  chan : float array;  (* per directed pair: time the channel frees up *)
  mutable elapsed : float;
}

let cursor prof = { prof; avail = Array.make 4 0.0; chan = Array.make 16 0.0; elapsed = 0.0 }

let step c ~sender ~receiver ~bytes =
  let i = idx sender and j = idx receiver in
  let departure = Float.max c.avail.(i) c.chan.((i * 4) + j) in
  let ser = Profile.serialize_s c.prof bytes in
  c.chan.((i * 4) + j) <- departure +. ser;
  let arrival = departure +. ser +. Profile.one_way_s c.prof in
  c.avail.(j) <- Float.max c.avail.(j) arrival;
  c.elapsed <- Float.max c.elapsed arrival;
  (departure, arrival)

let elapsed_s c = c.elapsed

type message = {
  entry : Transcript.entry;
  departure_s : float;
  arrival_s : float;
}

type link = {
  link_a : Transcript.party;
  link_b : Transcript.party;
  link_messages : int;
  link_bytes : int;
  link_rounds : int;
  busy_s : float;
  idle_s : float;
  first_departure_s : float;
  last_arrival_s : float;
  round_latency_s : float array;
}

type timeline = {
  profile : Profile.t;
  messages : message list;
  links : link list;
  end_to_end_s : float;
}

let on_link a b (e : Transcript.entry) =
  (e.Transcript.sender = a && e.Transcript.receiver = b)
  || (e.Transcript.sender = b && e.Transcript.receiver = a)

(* Group a link's messages into rounds with the same run-pair rule
   [Transcript.rounds] counts, keeping each round's time envelope. *)
let round_latencies msgs =
  let runs = ref 0 and run_sender = ref None in
  let groups = ref [] in
  List.iter
    (fun m ->
      let s = m.entry.Transcript.sender in
      (match !run_sender with
      | Some p when p = s -> ()
      | _ ->
        incr runs;
        run_sender := Some s);
      let round = (!runs - 1) / 2 in
      match !groups with
      | (r, d, a) :: rest when r = round ->
        groups := (r, Float.min d m.departure_s, Float.max a m.arrival_s) :: rest
      | _ -> groups := (round, m.departure_s, m.arrival_s) :: !groups)
    msgs;
  List.rev_map (fun (_, d, a) -> a -. d) !groups |> Array.of_list

let replay prof t =
  let c = cursor prof in
  let messages =
    List.map
      (fun (e : Transcript.entry) ->
        let departure_s, arrival_s =
          step c ~sender:e.Transcript.sender ~receiver:e.Transcript.receiver
            ~bytes:e.Transcript.bytes
        in
        { entry = e; departure_s; arrival_s })
      (Transcript.entries t)
  in
  let links =
    List.map
      (fun ((a, b), link_bytes) ->
        let ms = List.filter (fun m -> on_link a b m.entry) messages in
        let busy_s =
          List.fold_left
            (fun acc m -> acc +. Profile.serialize_s prof m.entry.Transcript.bytes)
            0.0 ms
        in
        let first_departure_s =
          List.fold_left (fun acc m -> Float.min acc m.departure_s) infinity ms
        in
        let last_arrival_s =
          List.fold_left (fun acc m -> Float.max acc m.arrival_s) 0.0 ms
        in
        let idle_s = Float.max 0.0 (last_arrival_s -. first_departure_s -. busy_s) in
        { link_a = a;
          link_b = b;
          link_messages = List.length ms;
          link_bytes;
          link_rounds = Transcript.rounds t a b;
          busy_s;
          idle_s;
          first_departure_s;
          last_arrival_s;
          round_latency_s = round_latencies ms })
      (Transcript.links t)
  in
  let end_to_end_s =
    List.fold_left (fun acc m -> Float.max acc m.arrival_s) 0.0 messages
  in
  { profile = prof; messages; links; end_to_end_s }

(* Nearest-rank quantile over a copy; 0 on an empty array. *)
let quantile xs p =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let sorted = Array.copy xs in
    Array.sort compare sorted;
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    sorted.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))
  end

let link_name l =
  Transcript.party_name l.link_a ^ "<->" ^ Transcript.party_name l.link_b

let pp ppf tl =
  Format.fprintf ppf "@[<v>profile: %a@ " Profile.pp tl.profile;
  List.iter
    (fun l ->
      Format.fprintf ppf
        "%s: %d msgs, %d B, %d rounds, busy %.6f s, idle %.6f s@ " (link_name l)
        l.link_messages l.link_bytes l.link_rounds l.busy_s l.idle_s)
    tl.links;
  Format.fprintf ppf "end-to-end: %.6f s@]" tl.end_to_end_s
