(* Tests for the communication transcript. *)

open Transcript

let test_basic_accounting () =
  let t = create () in
  send t ~sender:Party_a ~receiver:Party_b ~label:"distances" ~bytes:1000;
  send t ~sender:Party_b ~receiver:Party_a ~label:"indicators" ~bytes:2000;
  send t ~sender:Party_a ~receiver:Client ~label:"result" ~bytes:300;
  Alcotest.(check int) "messages" 3 (messages t);
  Alcotest.(check int) "total bytes" 3300 (total_bytes t);
  Alcotest.(check int) "A<->B bytes" 3000 (bytes_between t Party_a Party_b);
  Alcotest.(check int) "A<->client bytes" 300 (bytes_between t Party_a Client);
  Alcotest.(check int) "B<->client bytes" 0 (bytes_between t Party_b Client)

let test_entries_order () =
  let t = create () in
  send t ~sender:Data_owner ~receiver:Party_a ~label:"db" ~bytes:10;
  send t ~sender:Data_owner ~receiver:Party_b ~label:"keys" ~bytes:20;
  let es = entries t in
  Alcotest.(check int) "count" 2 (List.length es);
  (match es with
   | [ e1; e2 ] ->
     Alcotest.(check int) "seq 0" 0 e1.seq;
     Alcotest.(check int) "seq 1" 1 e2.seq;
     Alcotest.(check string) "label" "db" e1.label;
     Alcotest.(check string) "receiver" "party-B" (party_name e2.receiver)
   | _ -> Alcotest.fail "expected two entries")

let test_rounds_single () =
  let t = create () in
  send t ~sender:Party_a ~receiver:Party_b ~label:"x" ~bytes:1;
  send t ~sender:Party_b ~receiver:Party_a ~label:"y" ~bytes:1;
  Alcotest.(check int) "one round" 1 (rounds t Party_a Party_b)

let test_rounds_batched_run () =
  (* Several messages in the same direction are still part of one run:
     one reply, not one round per message. *)
  let t = create () in
  send t ~sender:Party_a ~receiver:Party_b ~label:"dist" ~bytes:1;
  for _ = 1 to 5 do
    send t ~sender:Party_b ~receiver:Party_a ~label:"B^j" ~bytes:1
  done;
  Alcotest.(check int) "still one round" 1 (rounds t Party_a Party_b)

let test_rounds_multi () =
  let t = create () in
  for _ = 1 to 3 do
    send t ~sender:Party_a ~receiver:Party_b ~label:"ping" ~bytes:1;
    send t ~sender:Party_b ~receiver:Party_a ~label:"pong" ~bytes:1
  done;
  Alcotest.(check int) "three rounds" 3 (rounds t Party_a Party_b);
  (* Unrelated links do not interfere. *)
  send t ~sender:Client ~receiver:Party_a ~label:"q" ~bytes:1;
  Alcotest.(check int) "unchanged" 3 (rounds t Party_a Party_b)

let test_rounds_empty_and_oneway () =
  let t = create () in
  Alcotest.(check int) "no traffic" 0 (rounds t Party_a Party_b);
  send t ~sender:Party_a ~receiver:Party_b ~label:"only" ~bytes:1;
  Alcotest.(check int) "unanswered counts as a round" 1 (rounds t Party_a Party_b)

let test_rounds_trailing_run () =
  (* A->B, B->A closes round one; the trailing unmatched A->B run still
     counts as a round of its own. *)
  let t = create () in
  send t ~sender:Party_a ~receiver:Party_b ~label:"ping" ~bytes:1;
  send t ~sender:Party_b ~receiver:Party_a ~label:"pong" ~bytes:1;
  send t ~sender:Party_a ~receiver:Party_b ~label:"follow-up" ~bytes:1;
  Alcotest.(check int) "trailing run counts" 2 (rounds t Party_a Party_b);
  send t ~sender:Party_a ~receiver:Party_b ~label:"same run" ~bytes:1;
  Alcotest.(check int) "same-direction message extends the run" 2
    (rounds t Party_a Party_b);
  send t ~sender:Party_b ~receiver:Party_a ~label:"reply" ~bytes:1;
  Alcotest.(check int) "reply closes it" 2 (rounds t Party_a Party_b)

let test_links () =
  let t = create () in
  Alcotest.(check int) "no links" 0 (List.length (links t));
  send t ~sender:Party_a ~receiver:Party_b ~label:"x" ~bytes:100;
  send t ~sender:Party_b ~receiver:Party_a ~label:"y" ~bytes:50;
  send t ~sender:Data_owner ~receiver:Client ~label:"keys" ~bytes:7;
  (* Both directions fold into one undirected link, keyed in declaration
     order and sorted canonically. *)
  Alcotest.(check (list (pair (pair string string) int)))
    "aggregated undirected links"
    [ (("data-owner", "client"), 7); (("party-A", "party-B"), 150) ]
    (List.map (fun ((x, y), b) -> ((party_name x, party_name y), b)) (links t))

let test_rounds_interleaved_third_party () =
  (* Third-party traffic interleaved inside an A<->B exchange must not
     split or extend the A<->B runs: round counting is per-link. *)
  let t = create () in
  send t ~sender:Party_a ~receiver:Party_b ~label:"ping" ~bytes:1;
  send t ~sender:Client ~receiver:Party_a ~label:"noise" ~bytes:1;
  send t ~sender:Party_a ~receiver:Party_b ~label:"same run" ~bytes:1;
  send t ~sender:Data_owner ~receiver:Client ~label:"noise" ~bytes:1;
  send t ~sender:Party_b ~receiver:Party_a ~label:"pong" ~bytes:1;
  Alcotest.(check int) "one A<->B round" 1 (rounds t Party_a Party_b);
  Alcotest.(check int) "client link unaffected" 1 (rounds t Client Party_a);
  Alcotest.(check int) "absent link is zero" 0 (rounds t Data_owner Party_a)

let all_parties = [ Data_owner; Party_a; Party_b; Client ]

let prop_rounds_symmetric =
  (* rounds is a property of the unordered link: the argument order the
     caller happens to use must never matter. *)
  let party = QCheck.Gen.oneofl all_parties in
  let arb =
    QCheck.make
      ~print:(fun ms ->
        String.concat ";"
          (List.map
             (fun (s, r) -> party_name s ^ ">" ^ party_name r)
             ms))
      QCheck.Gen.(list_size (int_bound 30) (pair party party))
  in
  QCheck.Test.make ~count:200 ~name:"rounds a b = rounds b a" arb (fun ms ->
      let t = create () in
      List.iter
        (fun (s, r) ->
          if s <> r then send t ~sender:s ~receiver:r ~label:"m" ~bytes:1)
        ms;
      List.for_all
        (fun a ->
          List.for_all (fun b -> rounds t a b = rounds t b a) all_parties)
        all_parties)

let test_pp_golden () =
  let t = create () in
  send t ~sender:Client ~receiver:Party_a ~label:"encrypted query" ~bytes:12345;
  send t ~sender:Party_a ~receiver:Party_b ~label:"masked permuted distances"
    ~bytes:678;
  send t ~sender:Party_b ~receiver:Party_a ~label:"indicator blocks" ~bytes:9;
  send t ~sender:Party_a ~receiver:Client ~label:"encrypted k-NN result" ~bytes:4;
  let expected =
    String.concat "\n"
      [ "seq from       to      bytes    label";
        "  0 client  -> party-A 12345 B  encrypted query";
        "  1 party-A -> party-B   678 B  masked permuted distances";
        "  2 party-B -> party-A     9 B  indicator blocks";
        "  3 party-A -> client      4 B  encrypted k-NN result";
        "link party-A <-> party-B: 687 bytes, 1 rounds";
        "link party-A <-> client: 12349 bytes, 1 rounds";
        "total: 4 messages, 13036 bytes" ]
  in
  Alcotest.(check string) "aligned transcript table" expected
    (Format.asprintf "%a" pp t)

(* --- Profile --- *)

let feq = Alcotest.float 1e-12

let test_profile_presets () =
  List.iter
    (fun p ->
      match Profile.of_string (Profile.to_string p) with
      | Ok p' -> Alcotest.(check string) "roundtrip" p.Profile.name p'.Profile.name
      | Error e -> Alcotest.fail e)
    Profile.presets;
  Alcotest.check feq "loopback serialization is free" 0.0
    (Profile.serialize_s Profile.loopback 1_000_000_000);
  Alcotest.check feq "lan one-way = rtt/2" 0.125e-3
    (Profile.one_way_s Profile.lan);
  (* 1 Gbit/s moves 125 MB in one second. *)
  Alcotest.check feq "lan serialization" 1.0
    (Profile.serialize_s Profile.lan 125_000_000);
  Alcotest.check feq "wan rtt" 40e-3 Profile.wan.Profile.rtt_s

let test_profile_custom () =
  match Profile.of_string " 40:100 " with
  | Error e -> Alcotest.fail e
  | Ok p ->
    Alcotest.(check string) "name keeps the pair form" "40:100" p.Profile.name;
    Alcotest.check feq "rtt 40 ms" 0.040 p.Profile.rtt_s;
    Alcotest.check feq "100 Mbit/s" 12_500_000.0 p.Profile.bytes_per_s;
    Alcotest.check feq "12.5 MB takes a second" 1.0
      (Profile.serialize_s p 12_500_000)

let test_profile_rejects () =
  let rejected s =
    match Profile.of_string s with Ok _ -> false | Error _ -> true
  in
  List.iter
    (fun s -> Alcotest.(check bool) (Printf.sprintf "%S rejected" s) true (rejected s))
    [ "nope"; "40"; "40:"; ":100"; "40:0"; "40:-1"; "-1:100"; "nan:100";
      "inf:100"; "40:100:9" ]

(* --- Clock --- *)

(* A deliberately coarse profile so every expected timestamp below is a
   small exact float: RTT 2 s (one-way 1 s), 100 B/s. *)
let coarse = { Profile.name = "coarse"; rtt_s = 2.0; bytes_per_s = 100.0 }

let test_clock_hand_computed () =
  let t = create () in
  send t ~sender:Party_a ~receiver:Party_b ~label:"d" ~bytes:100;
  send t ~sender:Party_b ~receiver:Party_a ~label:"r" ~bytes:50;
  send t ~sender:Party_a ~receiver:Party_b ~label:"f" ~bytes:100;
  let tl = Clock.replay coarse t in
  (* msg0: departs 0, serializes 1 s, + 1 s propagation -> arrives 2.
     msg1: B may answer only at 2, + 0.5 s ser + 1 s -> arrives 3.5.
     msg2: A resumes at 3.5 (channel freed at 1), 1 + 1 -> arrives 5.5. *)
  (match tl.Clock.messages with
   | [ m0; m1; m2 ] ->
     Alcotest.check feq "m0 departure" 0.0 m0.Clock.departure_s;
     Alcotest.check feq "m0 arrival" 2.0 m0.Clock.arrival_s;
     Alcotest.check feq "m1 departure" 2.0 m1.Clock.departure_s;
     Alcotest.check feq "m1 arrival" 3.5 m1.Clock.arrival_s;
     Alcotest.check feq "m2 departure" 3.5 m2.Clock.departure_s;
     Alcotest.check feq "m2 arrival" 5.5 m2.Clock.arrival_s
   | ms -> Alcotest.failf "expected 3 messages, got %d" (List.length ms));
  Alcotest.check feq "end-to-end" 5.5 tl.Clock.end_to_end_s;
  match tl.Clock.links with
  | [ l ] ->
    Alcotest.(check int) "messages" 3 l.Clock.link_messages;
    Alcotest.(check int) "bytes" 250 l.Clock.link_bytes;
    Alcotest.(check int) "rounds = Transcript.rounds" 2 l.Clock.link_rounds;
    Alcotest.check feq "busy = total serialization" 2.5 l.Clock.busy_s;
    Alcotest.check feq "idle = span - busy" 3.0 l.Clock.idle_s;
    Alcotest.(check int) "one latency per round" 2
      (Array.length l.Clock.round_latency_s);
    Alcotest.check feq "round 0 envelope" 3.5 l.Clock.round_latency_s.(0);
    Alcotest.check feq "round 1 envelope" 2.0 l.Clock.round_latency_s.(1)
  | ls -> Alcotest.failf "expected 1 link, got %d" (List.length ls)

let test_clock_fifo () =
  (* Two same-direction messages share the directed channel: the second
     cannot start serializing before the first is on the wire. *)
  let t = create () in
  send t ~sender:Party_a ~receiver:Party_b ~label:"x" ~bytes:100;
  send t ~sender:Party_a ~receiver:Party_b ~label:"y" ~bytes:100;
  let tl = Clock.replay coarse t in
  match tl.Clock.messages with
  | [ m0; m1 ] ->
    Alcotest.check feq "m0 departs immediately" 0.0 m0.Clock.departure_s;
    Alcotest.check feq "m1 queues behind m0" 1.0 m1.Clock.departure_s;
    Alcotest.check feq "m1 arrival" 3.0 m1.Clock.arrival_s
  | ms -> Alcotest.failf "expected 2 messages, got %d" (List.length ms)

let test_clock_causality () =
  (* A party cannot forward before its inbound message arrived, even
     across different links. *)
  let t = create () in
  send t ~sender:Data_owner ~receiver:Party_a ~label:"in" ~bytes:0;
  send t ~sender:Party_a ~receiver:Party_b ~label:"out" ~bytes:0;
  let tl = Clock.replay coarse t in
  match tl.Clock.messages with
  | [ m0; m1 ] ->
    Alcotest.check feq "inbound arrives" 1.0 m0.Clock.arrival_s;
    Alcotest.check feq "forward waits for it" 1.0 m1.Clock.departure_s;
    Alcotest.check feq "end-to-end chains" 2.0 tl.Clock.end_to_end_s
  | ms -> Alcotest.failf "expected 2 messages, got %d" (List.length ms)

let test_clock_loopback_zero () =
  let t = create () in
  send t ~sender:Client ~receiver:Party_a ~label:"q" ~bytes:123_456;
  send t ~sender:Party_a ~receiver:Client ~label:"r" ~bytes:654_321;
  let tl = Clock.replay Profile.loopback t in
  Alcotest.check feq "loopback is instantaneous" 0.0 tl.Clock.end_to_end_s

let test_clock_empty () =
  let tl = Clock.replay Profile.wan (create ()) in
  Alcotest.check feq "empty transcript" 0.0 tl.Clock.end_to_end_s;
  Alcotest.(check int) "no links" 0 (List.length tl.Clock.links)

let test_clock_pure () =
  (* Same transcript, same profile -> structurally identical timeline
     (the determinism the cross-jobs CI check relies on). *)
  let t = create () in
  send t ~sender:Client ~receiver:Party_a ~label:"q" ~bytes:77_000;
  send t ~sender:Party_a ~receiver:Party_b ~label:"d" ~bytes:123_456;
  send t ~sender:Party_b ~receiver:Party_a ~label:"b" ~bytes:9_999;
  send t ~sender:Party_a ~receiver:Client ~label:"r" ~bytes:4_242;
  List.iter
    (fun prof ->
      let a = Clock.replay prof t and b = Clock.replay prof t in
      Alcotest.(check string)
        (Printf.sprintf "byte-identical replay under %s" (Profile.to_string prof))
        (Marshal.to_string a []) (Marshal.to_string b []))
    Profile.presets

let test_clock_cursor_matches_replay () =
  (* The incremental cursor (used to stamp live flight events) is the
     same fold as the batch replay. *)
  let t = create () in
  send t ~sender:Client ~receiver:Party_a ~label:"q" ~bytes:1000;
  send t ~sender:Party_a ~receiver:Party_b ~label:"d" ~bytes:2000;
  send t ~sender:Party_b ~receiver:Party_a ~label:"b" ~bytes:500;
  send t ~sender:Party_a ~receiver:Client ~label:"r" ~bytes:100;
  let tl = Clock.replay Profile.wan t in
  let c = Clock.cursor Profile.wan in
  List.iter
    (fun (m : Clock.message) ->
      let e = m.Clock.entry in
      let dep, arr =
        Clock.step c ~sender:e.sender ~receiver:e.receiver ~bytes:e.bytes
      in
      Alcotest.check feq "departure" m.Clock.departure_s dep;
      Alcotest.check feq "arrival" m.Clock.arrival_s arr)
    tl.Clock.messages;
  Alcotest.check feq "elapsed = end-to-end" tl.Clock.end_to_end_s
    (Clock.elapsed_s c)

let test_quantile () =
  Alcotest.check feq "empty" 0.0 (Clock.quantile [||] 0.5);
  let xs = [| 3.0; 1.0; 2.0 |] in
  Alcotest.check feq "p0 clamps to min" 1.0 (Clock.quantile xs 0.0);
  Alcotest.check feq "median" 2.0 (Clock.quantile xs 0.5);
  Alcotest.check feq "p95 of 3" 3.0 (Clock.quantile xs 0.95);
  Alcotest.check feq "p100" 3.0 (Clock.quantile xs 1.0);
  Alcotest.check feq "input unsorted still" 3.0 xs.(0)

let test_validation () =
  let t = create () in
  Alcotest.check_raises "self send" (Invalid_argument "Transcript.send: sender = receiver")
    (fun () -> send t ~sender:Party_a ~receiver:Party_a ~label:"x" ~bytes:1);
  Alcotest.check_raises "negative" (Invalid_argument "Transcript.send: negative size")
    (fun () -> send t ~sender:Party_a ~receiver:Party_b ~label:"x" ~bytes:(-1))

let () =
  Alcotest.run "netsim"
    [ ("transcript",
       [ Alcotest.test_case "accounting" `Quick test_basic_accounting;
         Alcotest.test_case "entries" `Quick test_entries_order;
         Alcotest.test_case "single round" `Quick test_rounds_single;
         Alcotest.test_case "batched run" `Quick test_rounds_batched_run;
         Alcotest.test_case "multi round" `Quick test_rounds_multi;
         Alcotest.test_case "empty/one-way" `Quick test_rounds_empty_and_oneway;
         Alcotest.test_case "trailing run" `Quick test_rounds_trailing_run;
         Alcotest.test_case "interleaved third party" `Quick
           test_rounds_interleaved_third_party;
         Alcotest.test_case "links" `Quick test_links;
         Alcotest.test_case "pp golden" `Quick test_pp_golden;
         Alcotest.test_case "validation" `Quick test_validation;
         QCheck_alcotest.to_alcotest prop_rounds_symmetric ]);
      ("profile",
       [ Alcotest.test_case "presets" `Quick test_profile_presets;
         Alcotest.test_case "custom pair" `Quick test_profile_custom;
         Alcotest.test_case "rejects malformed" `Quick test_profile_rejects ]);
      ("clock",
       [ Alcotest.test_case "hand-computed replay" `Quick test_clock_hand_computed;
         Alcotest.test_case "directed FIFO" `Quick test_clock_fifo;
         Alcotest.test_case "cross-link causality" `Quick test_clock_causality;
         Alcotest.test_case "loopback is free" `Quick test_clock_loopback_zero;
         Alcotest.test_case "empty transcript" `Quick test_clock_empty;
         Alcotest.test_case "replay is pure" `Quick test_clock_pure;
         Alcotest.test_case "cursor matches replay" `Quick
           test_clock_cursor_matches_replay;
         Alcotest.test_case "quantile" `Quick test_quantile ]) ]
