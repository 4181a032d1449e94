(* Cross-module integration tests: CSV -> preprocess -> protocol flows,
   cross-protocol agreement, and the production-shaped parameter set. *)

module Rng = Util.Rng

let test_csv_to_protocol_pipeline () =
  (* The full user path: generate data, write CSV, read it back,
     preprocess, deploy, query. *)
  let rng = Rng.of_int 211 in
  let raw = Synthetic.clustered rng ~n:60 ~d:3 ~clusters:3 ~spread:30.0 ~max_value:10000 in
  let path = Filename.temp_file "sknn_it" ".csv" in
  Csv_io.write path raw;
  let loaded = Csv_io.read path in
  Sys.remove path;
  Alcotest.(check bool) "csv identity" true (loaded = raw);
  let db = Preprocess.scale_to_max ~max_value:255 loaded in
  let dep = Protocol.deploy ~rng (Config.standard ()) ~db in
  let q = Synthetic.query_like rng db in
  let r = Protocol.query dep ~query:q ~k:5 in
  Alcotest.(check bool) "pipeline exact" true (Protocol.exact dep ~db ~query:q r)

let test_three_way_agreement () =
  (* Both layouts of our protocol, the Paillier baseline and the
     plaintext oracle agree on one instance. *)
  let rng = Rng.of_int 223 in
  let db = Synthetic.uniform rng ~n:14 ~d:3 ~max_value:20 in
  let q = Synthetic.query_like rng db in
  let k = 4 in
  let truth = Plain_knn.kth_smallest_distances ~k ~query:q db in
  let dists ps =
    let a = Array.map (fun p -> Distance.squared_euclidean q p) ps in
    Array.sort compare a;
    a
  in
  let ours config =
    let dep = Protocol.deploy ~rng (config ()) ~db in
    dists (Protocol.query dep ~query:q ~k).Protocol.neighbours
  in
  Alcotest.(check (array int)) "standard layout" truth (ours Config.standard);
  Alcotest.(check (array int)) "fast layout" truth (ours Config.fast);
  let dep_b = Sknn_m.deploy ~rng ~modulus_bits:128 ~db () in
  Alcotest.(check (array int)) "paillier baseline" truth
    (dists (Sknn_m.query dep_b ~query:q ~k).Sknn_m.neighbours)

let test_secure_preset_end_to_end () =
  (* The production-shaped ring (n = 8192, ~128-bit estimated security):
     one tiny query proves the whole stack works at real parameters. *)
  let config = Config.secure () in
  Alcotest.(check bool) "estimated security >= 120 bits" true
    (Params.security_bits config.Config.bgv >= 120.0);
  let rng = Rng.of_int 227 in
  let db = Synthetic.uniform rng ~n:6 ~d:2 ~max_value:60 in
  let dep = Protocol.deploy ~rng config ~db in
  let q = Synthetic.query_like rng db in
  let r = Protocol.query dep ~query:q ~k:2 in
  Alcotest.(check bool) "exact at secure parameters" true (Protocol.exact dep ~db ~query:q r)

let test_cost_model_fast_layout () =
  let rng = Rng.of_int 229 in
  let n = 40 and d = 5 and k = 3 in
  let db = Synthetic.uniform rng ~n ~d ~max_value:200 in
  let config = Config.fast () in
  let dep = Protocol.deploy ~rng config ~db in
  let r = Protocol.query dep ~query:(Synthetic.query_like rng db) ~k in
  let m = Cost.measured r in
  let per = Entities.points_per_block config.Config.bgv ~d in
  Alcotest.(check int) "rounds" 1 m.Cost.rounds;
  Alcotest.(check int) "B decryptions = n" n m.Cost.decryptions;
  Alcotest.(check int) "B encryptions = k·⌈n/⌊N/d⌋⌉" (k * ((n + per - 1) / per))
    m.Cost.encryptions;
  Alcotest.(check bool) "bytes measured" true (m.Cost.bytes > 0)

let test_reproducibility_across_deployments () =
  (* Everything — keys, encryption randomness, masks, permutations — is
     derived from the supplied seed, so two runs agree bit for bit. *)
  let db = Synthetic.uniform (Rng.of_int 233) ~n:25 ~d:2 ~max_value:99 in
  let q = [| 40; 41 |] in
  let run () =
    let dep = Protocol.deploy ~rng:(Rng.of_int 7777) (Config.fast ()) ~db in
    let r = Protocol.query ~rng:(Rng.of_int 8888) dep ~query:q ~k:6 in
    (r.Protocol.neighbours, Leakage.view_multiset r.Protocol.view_b,
     Transcript.total_bytes r.Protocol.transcript)
  in
  Alcotest.(check bool) "identical runs" true (run () = run ())

let test_queries_share_deployment () =
  (* Many queries against one deployment, interleaving layouts of k. *)
  let rng = Rng.of_int 239 in
  let db = Synthetic.uniform rng ~n:30 ~d:4 ~max_value:150 in
  let dep = Protocol.deploy ~rng (Config.standard ()) ~db in
  List.iter
    (fun k ->
      let q = Synthetic.query_like rng db in
      let r = Protocol.query dep ~query:q ~k in
      Alcotest.(check bool) (Printf.sprintf "k=%d" k) true (Protocol.exact dep ~db ~query:q r))
    [ 1; 7; 2; 30; 3 ]

let test_communication_independent_of_d () =
  (* §5.1: the A->B message size depends only on n, never on d. *)
  let bytes_for d =
    let rng = Rng.of_int (241 + d) in
    let db = Synthetic.uniform rng ~n:15 ~d ~max_value:100 in
    let dep = Protocol.deploy ~rng (Config.standard ()) ~db in
    let r = Protocol.query dep ~query:(Synthetic.query_like rng db) ~k:2 in
    List.fold_left
      (fun acc e ->
        if e.Transcript.sender = Transcript.Party_a && e.Transcript.receiver = Transcript.Party_b
        then acc + e.Transcript.bytes
        else acc)
      0
      (Transcript.entries r.Protocol.transcript)
  in
  let b2 = bytes_for 2 and b8 = bytes_for 8 in
  (* Level choices can differ by one modulus switch; sizes must be equal
     up to that, not proportional to d. *)
  let ratio = float_of_int b8 /. float_of_int b2 in
  Alcotest.(check bool)
    (Printf.sprintf "A->B bytes comparable across d (%d vs %d)" b2 b8)
    true
    (ratio < 1.5 && ratio > 0.6)

(* Every ciphertext that crosses a link goes through the binary codec —
   what real sockets would carry. *)
let wire params ct = Bgv.ct_of_bytes params (Bgv.ct_to_bytes ct)

let check_exact label ~k ~query db neighbours =
  let expected = Plain_knn.kth_smallest_distances ~k ~query db in
  let got = Array.map (fun p -> Distance.squared_euclidean query p) neighbours in
  Array.sort compare got;
  Alcotest.(check (array int)) label expected got

let test_protocol_over_the_wire () =
  (* The plain path, driven by hand with the calls Protocol.query_gen
     makes: A -> B, B's indicator blocks to A and A's flooded results to
     the client all cross the codec.  An indicator block cut short or
     re-tagged on its way to A ends in Bgv.Malformed before A
     multiplies. *)
  let rng = Rng.of_int 251 in
  let config = Config.standard () in
  let params = config.Config.bgv in
  let wire = wire params in
  let n = 18 and d = 3 and k = 4 in
  let db = Synthetic.uniform rng ~n ~d ~max_value:120 in
  let dep = Protocol.deploy ~rng config ~db in
  let a = Protocol.party_a dep and b = Protocol.party_b dep and cl = Protocol.client dep in
  let q = Synthetic.query_like rng db in
  let points, masked =
    Entities.Party_a.compute_distances a rng (Entities.Client.encrypt_query cl rng q)
  in
  let view =
    Entities.Party_b.select_neighbours b Entities.Coeff_blocks (Array.map wire masked) ~n ~k
  in
  let per = Entities.points_per_block params ~d in
  let indicators = Entities.Party_b.monomial_indicators b rng view ~n ~per in
  Alcotest.(check (list int)) "k rows of ⌈n/⌊N/d⌋⌉ indicators"
    (List.init k (fun _ -> (n + per - 1) / per))
    (Array.to_list (Array.map Array.length indicators));
  (* A decodes the whole message; [damage] alters the first block's
     bytes. *)
  let receive damage =
    Array.mapi
      (fun j row ->
        Array.mapi
          (fun i ct ->
            let bytes = Bgv.ct_to_bytes ct in
            Bgv.ct_of_bytes params (if i = 0 && j = 0 then damage bytes else bytes))
          row)
      indicators
  in
  let ca = Entities.Party_a.counters a in
  List.iter
    (fun (what, damage) ->
      Util.Counters.reset ca;
      match Entities.Party_a.return_monomials a points rng (receive damage) with
      | _ -> Alcotest.failf "%s indicator block accepted" what
      | exception Bgv.Malformed _ ->
        Alcotest.(check int) (what ^ ": no product") 0
          (Util.Counters.op_total ca Util.Counters.Op_ct_mul))
    [ ("truncated", fun bytes -> Bytes.sub bytes 0 (Bytes.length bytes - 7));
      ("re-tagged",
       fun bytes ->
         let bytes = Bytes.copy bytes in
         Bytes.set bytes 0 'X';
         bytes) ];
  let results = Entities.Party_a.return_monomials a points rng (receive Fun.id) in
  Alcotest.(check int) "one result per neighbour" k (Array.length results);
  check_exact "exact through the codec" ~k ~query:q db
    (Entities.Client.decrypt_points cl ~d (Array.map wire results))

let test_packed_over_the_wire () =
  (* The packed path's block Return-kNN: the masked distances, B's block
     indicators and A's flooded blocks all cross the codec, and the
     client answers from the decoded blocks. *)
  let rng = Rng.of_int 257 in
  let config = Config.fast () in
  let params = config.Config.bgv in
  let wire = wire params in
  let n = 150 and d = 3 and k = 5 in
  let db = Synthetic.uniform rng ~n ~d ~max_value:120 in
  let dep = Protocol.deploy ~rng config ~db in
  let a = Protocol.party_a dep and b = Protocol.party_b dep and cl = Protocol.client dep in
  let pp = Entities.Party_a.prepare_packed a ~db in
  let q = Synthetic.query_like rng db in
  let cols, masked =
    Entities.Party_a.compute_distances_packed a pp rng
      [| Entities.Client.encrypt_query_packed cl rng q |]
  in
  let view =
    Entities.Party_b.select_neighbours b Entities.Slot_blocks (Array.map wire masked.(0)) ~n ~k
  in
  let per = Entities.points_per_block params ~d in
  let indicators = Entities.Party_b.block_indicators b rng [| view |] ~n ~per in
  let blocks = Entities.Party_a.return_blocks a cols rng (Array.map wire indicators) in
  Alcotest.(check int) "one block per ⌊N/d⌋ points" ((n + per - 1) / per)
    (Array.length blocks);
  let points = Entities.Client.decrypt_blocks cl ~d (Array.map wire blocks) in
  check_exact "exact through the codec" ~k ~query:q db
    (Entities.Client.nearest ~k ~query:q points)

let () =
  Alcotest.run "integration"
    [ ("pipelines",
       [ Alcotest.test_case "csv -> protocol" `Quick test_csv_to_protocol_pipeline;
         Alcotest.test_case "three-way agreement" `Slow test_three_way_agreement;
         Alcotest.test_case "secure preset" `Slow test_secure_preset_end_to_end ]);
      ("behaviour",
       [ Alcotest.test_case "cost model (fast layout)" `Quick test_cost_model_fast_layout;
         Alcotest.test_case "reproducibility" `Quick test_reproducibility_across_deployments;
         Alcotest.test_case "shared deployment" `Quick test_queries_share_deployment;
         Alcotest.test_case "A->B bytes independent of d" `Quick
           test_communication_independent_of_d;
         Alcotest.test_case "protocol over the wire" `Quick test_protocol_over_the_wire;
         Alcotest.test_case "packed protocol over the wire" `Quick
           test_packed_over_the_wire ]) ]
