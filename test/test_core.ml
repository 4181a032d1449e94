(* Tests for the secure k-NN protocol itself: masking soundness, config
   validation, end-to-end exactness in both layouts, the paper's leakage
   profile, and the Table 1 cost model. *)

module Rng = Util.Rng

(* ------------------------------------------------------------------ *)
(* Masking                                                             *)
(* ------------------------------------------------------------------ *)

let t50 = 1125899906842597L (* a ~2^50 prime *)

let test_masking_envelope () =
  (* Paper-style setting: ~2^40 plaintext space, 16-bit distances. *)
  let c = Masking.max_coeff_bits ~t_plain:1099511627689L ~input_bits:16 ~degree:2 in
  Alcotest.(check bool) "some budget at degree 2" true (c >= 1 && c <= 8);
  Alcotest.(check int) "degree 9 impossible (paper's example overflows)" 0
    (Masking.max_coeff_bits ~t_plain:1099511627689L ~input_bits:16 ~degree:9);
  let c1 = Masking.max_coeff_bits ~t_plain:t50 ~input_bits:21 ~degree:1 in
  Alcotest.(check bool) "affine budget generous" true (c1 >= 25)

let test_masking_draw_and_eval () =
  let rng = Rng.of_int 31 in
  let m = Masking.draw rng ~t_plain:t50 ~input_bits:16 ~degree:2 () in
  Alcotest.(check int) "degree" 2 (Masking.degree m);
  Array.iter
    (fun a -> Alcotest.(check bool) "coeff positive" true (Int64.compare a 0L > 0))
    (Masking.coeffs m);
  Alcotest.(check bool) "monotone" true (Masking.is_monotone_on m ~max_input:65535L);
  (* Exact vs modular evaluation agree inside the envelope. *)
  for _ = 1 to 200 do
    let x = Rng.int64_below rng 65536L in
    Alcotest.(check int64) "eval = eval_mod" (Masking.eval m x)
      (Masking.eval_mod m ~t_plain:t50 x)
  done

let test_masking_rejects_unsound () =
  let rng = Rng.of_int 37 in
  Alcotest.(check bool) "rejects impossible degree" true
    (try
       ignore (Masking.draw rng ~t_plain:1099511627689L ~input_bits:30 ~degree:5 ());
       false
     with Invalid_argument _ -> true)

let prop_masking_order_preserving =
  QCheck.Test.make ~count:200 ~name:"mask preserves strict order"
    QCheck.(triple (int_range 0 65535) (int_range 0 65535) (int_range 0 10000))
    (fun (x, y, seed) ->
      let rng = Rng.of_int seed in
      let m = Masking.draw rng ~t_plain:t50 ~input_bits:16 ~degree:2 () in
      let mx = Masking.eval m (Int64.of_int x) and my = Masking.eval m (Int64.of_int y) in
      compare x y = Int64.compare mx my)

let prop_masking_fresh_each_draw =
  QCheck.Test.make ~count:50 ~name:"distinct seeds give distinct masks"
    QCheck.(pair (int_range 0 100000) (int_range 100001 200000))
    (fun (s1, s2) ->
      let m1 = Masking.draw (Rng.of_int s1) ~t_plain:t50 ~input_bits:16 ~degree:2 () in
      let m2 = Masking.draw (Rng.of_int s2) ~t_plain:t50 ~input_bits:16 ~degree:2 () in
      Masking.coeffs m1 <> Masking.coeffs m2)

(* ------------------------------------------------------------------ *)
(* Config                                                              *)
(* ------------------------------------------------------------------ *)

let test_config_presets_valid () =
  List.iter
    (fun (name, config) ->
      match Config.validate config ~d:10 with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s invalid: %s" name e)
    [ ("standard", Config.standard ()); ("fast", Config.fast ()) ]

let test_config_envelope_rejection () =
  let config = Config.with_mask_degree 9 (Config.standard ()) in
  (match Config.validate config ~d:32 with
   | Ok () -> Alcotest.fail "degree-9 mask on 21-bit distances should be rejected"
   | Error _ -> ());
  let config = Config.with_mask_degree 2 (Config.fast ()) in
  (match Config.validate config ~d:4 with
   | Ok () -> Alcotest.fail "dot-product layout must force affine masks"
   | Error _ -> ())

let test_config_distance_bits () =
  let config = Config.standard () in
  (* 8-bit coords, d=2: max distance 2*255^2 = 130050 needs 17 bits. *)
  Alcotest.(check int) "distance bits" 17
    (Config.max_distance_bits ~max_coord_bits:config.Config.max_coord_bits ~d:2)

(* ------------------------------------------------------------------ *)
(* End-to-end protocol                                                 *)
(* ------------------------------------------------------------------ *)

let run_protocol ?(seed = 42) ?(k = 3) config db queries =
  let rng = Rng.of_int seed in
  let dep = Protocol.deploy ~rng config ~db in
  List.map
    (fun q ->
      let r = Protocol.query dep ~query:q ~k in
      (q, r, Protocol.exact dep ~db ~query:q r))
    queries

let small_db rng = Synthetic.uniform rng ~n:40 ~d:3 ~max_value:250

let test_exactness layout_name config () =
  let rng = Rng.of_int 101 in
  let db = small_db rng in
  let queries = List.init 4 (fun _ -> Synthetic.query_like rng db) in
  List.iteri
    (fun i (_, _, ok) ->
      Alcotest.(check bool) (Printf.sprintf "%s query %d exact" layout_name i) true ok)
    (run_protocol config db queries)

let test_k_edge_cases () =
  let rng = Rng.of_int 103 in
  let db = Synthetic.uniform rng ~n:12 ~d:2 ~max_value:100 in
  let dep = Protocol.deploy ~rng (Config.fast ()) ~db in
  let q = Synthetic.query_like rng db in
  List.iter
    (fun k ->
      let r = Protocol.query dep ~query:q ~k in
      Alcotest.(check int) (Printf.sprintf "k=%d count" k) k (Array.length r.Protocol.neighbours);
      Alcotest.(check bool) (Printf.sprintf "k=%d exact" k) true
        (Protocol.exact dep ~db ~query:q r))
    [ 1; 2; 11; 12 ];
  Alcotest.check_raises "k=0" (Invalid_argument "Protocol.query: k out of range")
    (fun () -> ignore (Protocol.query dep ~query:q ~k:0));
  Alcotest.check_raises "k>n" (Invalid_argument "Protocol.query: k out of range")
    (fun () -> ignore (Protocol.query dep ~query:q ~k:13))

let test_duplicates_and_ties () =
  (* Duplicate points and equidistant points: the distance multiset must
     still be exact. *)
  let db =
    [| [| 5; 5 |]; [| 5; 5 |]; [| 0; 0 |]; [| 10; 10 |]; [| 0; 10 |]; [| 10; 0 |];
       [| 5; 5 |]; [| 7; 7 |] |]
  in
  let dep = Protocol.deploy ~rng:(Rng.of_int 7) (Config.standard ()) ~db in
  let q = [| 5; 5 |] in
  List.iter
    (fun k ->
      let r = Protocol.query dep ~query:q ~k in
      Alcotest.(check bool) (Printf.sprintf "ties k=%d" k) true
        (Protocol.exact dep ~db ~query:q r))
    [ 1; 2; 3; 4; 5; 8 ]

let test_query_on_db_point () =
  let rng = Rng.of_int 107 in
  let db = small_db rng in
  let dep = Protocol.deploy ~rng (Config.fast ()) ~db in
  let q = Array.copy db.(17) in
  let r = Protocol.query dep ~query:q ~k:1 in
  Alcotest.(check bool) "self is nearest" true (Protocol.exact dep ~db ~query:q r);
  Alcotest.(check (array int)) "returns the point itself" db.(17) r.Protocol.neighbours.(0)

let test_dimension_1_and_high () =
  let rng = Rng.of_int 109 in
  List.iter
    (fun d ->
      let db = Synthetic.uniform rng ~n:20 ~d ~max_value:200 in
      let dep = Protocol.deploy ~rng (Config.standard ()) ~db in
      let q = Synthetic.query_like rng db in
      let r = Protocol.query dep ~query:q ~k:3 in
      Alcotest.(check bool) (Printf.sprintf "d=%d exact" d) true
        (Protocol.exact dep ~db ~query:q r))
    [ 1; 2; 16; 32 ]

let test_uci_shaped_workload () =
  let rng = Rng.of_int 113 in
  let raw = Uci_like.cervical_cancer ~n:60 rng in
  let db = Preprocess.scale_to_max ~max_value:255 raw in
  let dep = Protocol.deploy ~rng (Config.standard ()) ~db in
  let q = Synthetic.query_like rng db in
  let r = Protocol.query dep ~query:q ~k:8 in
  Alcotest.(check bool) "cancer-shaped exact" true (Protocol.exact dep ~db ~query:q r)

let test_validation_errors () =
  let rng = Rng.of_int 127 in
  let db = small_db rng in
  let dep = Protocol.deploy ~rng (Config.fast ()) ~db in
  Alcotest.check_raises "dimension mismatch"
    (Invalid_argument "Protocol.query: dimension mismatch")
    (fun () -> ignore (Protocol.query dep ~query:[| 1; 2 |] ~k:1));
  Alcotest.(check bool) "out-of-range data rejected" true
    (try
       ignore (Protocol.deploy ~rng (Config.fast ()) ~db:[| [| 1; 99999 |] |]);
       false
     with Invalid_argument _ -> true)

let test_transcript_structure () =
  let rng = Rng.of_int 131 in
  let db = small_db rng in
  let dep = Protocol.deploy ~rng (Config.standard ()) ~db in
  let q = Synthetic.query_like rng db in
  let r = Protocol.query dep ~query:q ~k:4 in
  let tr = r.Protocol.transcript in
  (* The headline claim: ONE round of A<->B communication. *)
  Alcotest.(check int) "one A<->B round" 1
    (Transcript.rounds tr Transcript.Party_a Transcript.Party_b);
  Alcotest.(check bool) "A->B bytes positive" true
    (Transcript.bytes_between tr Transcript.Party_a Transcript.Party_b > 0);
  (* 1 query + 1 distance msg + 1 indicator message + 1 result, whatever
     k is. *)
  Alcotest.(check int) "message count" 4 (Transcript.messages tr);
  (* Setup transcript covers key and database distribution. *)
  Alcotest.(check int) "setup messages" 4 (Transcript.messages (Protocol.setup_transcript dep));
  (* The one A->B message: ⌈n/N⌉ coefficient blocks on the
     per-coordinate layout, one masked distance per point on the
     dot-product one, whose randomizer fills every other coefficient. *)
  let n = (2 * (Config.standard ()).Config.bgv.Params.n) + 1 in
  let db = Synthetic.uniform rng ~n ~d:3 ~max_value:250 in
  let q = Synthetic.query_like rng db in
  List.iter
    (fun (name, config, expect) ->
      let dep = Protocol.deploy ~rng:(Rng.of_int 132) config ~db in
      let a = Protocol.party_a dep and cl = Protocol.client dep in
      let _, cts =
        Entities.Party_a.compute_distances a rng (Entities.Client.encrypt_query cl rng q)
      in
      Alcotest.(check int) (name ^ ": A->B ciphertexts") expect (Array.length cts);
      let r = Protocol.query dep ~query:q ~k:2 in
      let a_to_b =
        List.filter
          (fun (e : Transcript.entry) ->
            e.Transcript.sender = Transcript.Party_a && e.Transcript.receiver = Transcript.Party_b)
          (Transcript.entries r.Protocol.transcript)
      in
      Alcotest.(check (list int)) (name ^ ": one A->B message of those ciphertexts")
        [ Array.fold_left (fun acc c -> acc + Bgv.byte_size c) 0 cts ]
        (List.map (fun (e : Transcript.entry) -> e.Transcript.bytes) a_to_b))
    [ ("per-coordinate", Config.standard (),
       (n + (Config.standard ()).Config.bgv.Params.n - 1) / (Config.standard ()).Config.bgv.Params.n);
      ("dot-product", Config.fast (), n) ]

let test_phase_times_present () =
  let rng = Rng.of_int 137 in
  let db = small_db rng in
  let dep = Protocol.deploy ~rng (Config.fast ()) ~db in
  let r = Protocol.query dep ~query:(Synthetic.query_like rng db) ~k:2 in
  let names = List.map fst r.Protocol.phase_seconds in
  Alcotest.(check (list string)) "phases"
    [ "encrypt-query"; "compute-distances"; "find-neighbours"; "return-knn"; "decrypt-result" ]
    names;
  Alcotest.(check bool) "total positive" true (Protocol.total_seconds r > 0.0)

let test_deterministic_given_seed () =
  let db = small_db (Rng.of_int 139) in
  let q = [| 10; 20; 30 |] in
  let run () =
    let dep = Protocol.deploy ~rng:(Rng.of_int 999) (Config.fast ()) ~db in
    let r = Protocol.query ~rng:(Rng.of_int 1000) dep ~query:q ~k:3 in
    (r.Protocol.neighbours, r.Protocol.view_b.Entities.Party_b.masked_distances)
  in
  let n1, v1 = run () and n2, v2 = run () in
  Alcotest.(check bool) "same neighbours" true (n1 = n2);
  Alcotest.(check bool) "same view" true (v1 = v2)

let test_jobs_determinism () =
  (* The parallel phases must be a pure scheduling change: the protocol
     run at 1 domain and at 4 domains returns identical neighbours,
     moves identical bytes, and records identical operation counts. *)
  let db = small_db (Rng.of_int 141) in
  let q = [| 10; 20; 30 |] in
  let run jobs config db =
    let dep = Protocol.deploy ~rng:(Rng.of_int 999) ~jobs config ~db in
    Protocol.query ~rng:(Rng.of_int 1000) dep ~query:q ~k:3
  in
  let counters_s c = Format.asprintf "%a" Util.Counters.pp c in
  List.iter
    (fun (name, config, db) ->
      let r1 = run 1 config db and r4 = run 4 config db in
      Alcotest.(check bool) (name ^ ": same neighbours") true
        (r1.Protocol.neighbours = r4.Protocol.neighbours);
      Alcotest.(check bool) (name ^ ": same view") true
        (r1.Protocol.view_b = r4.Protocol.view_b);
      Alcotest.(check int) (name ^ ": same message count")
        (Transcript.messages r1.Protocol.transcript)
        (Transcript.messages r4.Protocol.transcript);
      Alcotest.(check int) (name ^ ": same transcript bytes")
        (Transcript.total_bytes r1.Protocol.transcript)
        (Transcript.total_bytes r4.Protocol.transcript);
      Alcotest.(check string) (name ^ ": party A counters")
        (counters_s r1.Protocol.counters_a) (counters_s r4.Protocol.counters_a);
      Alcotest.(check string) (name ^ ": party B counters")
        (counters_s r1.Protocol.counters_b) (counters_s r4.Protocol.counters_b);
      Alcotest.(check string) (name ^ ": client counters")
        (counters_s r1.Protocol.counters_client) (counters_s r4.Protocol.counters_client);
      let entries r =
        List.map
          (fun (e : Transcript.entry) -> (e.Transcript.label, e.Transcript.bytes))
          (Transcript.entries r.Protocol.transcript)
      in
      Alcotest.(check (list (pair string int))) (name ^ ": same transcript entries") (entries r1)
        (entries r4))
    [ ("dot-product", Config.fast (), db); ("per-coordinate", Config.standard (), db);
      (* Three coefficient blocks, the last ragged, folded on 1 and 4
         domains. *)
      ("per-coordinate, 2N + 1 points", Config.standard (),
       Synthetic.uniform (Rng.of_int 142) ~n:((2 * (Config.standard ()).Config.bgv.Params.n) + 1)
         ~d:3 ~max_value:250) ]

(* ------------------------------------------------------------------ *)
(* Slot-packed (SIMD) path                                             *)
(* ------------------------------------------------------------------ *)

(* The per-coordinate preset with the affine mask the packed path
   requires; coordinates and dimensions in these tests stay within the
   degree-1 masking envelope. *)
let affine_config () = Config.with_mask_degree 1 (Config.standard ())

(* The same chain and mask on the dot-product layout: plain queries
   there run the inner-product circuit against the shipped norms. *)
let dot_config () = Config.with_layout Config.Dot_product (affine_config ())

let five_phases =
  [ "encrypt-query"; "compute-distances"; "find-neighbours"; "return-knn"; "decrypt-result" ]

let sorted_dists q r =
  let a = Array.map (Distance.squared_euclidean q) r.Protocol.neighbours in
  Array.sort compare a;
  a

let test_packed_exactness () =
  let rng = Rng.of_int 401 in
  let db = small_db rng in
  List.iter
    (fun (name, config) ->
      let dep = Protocol.deploy ~rng:(Rng.of_int 402) config ~db in
      let queries = Array.init 3 (fun _ -> Synthetic.query_like rng db) in
      Array.iteri
        (fun i q ->
          let r = Protocol.query_packed dep ~query:q ~k:4 in
          Alcotest.(check bool)
            (Printf.sprintf "%s: query %d exact" name i)
            true
            (Protocol.exact dep ~db ~query:q r);
          (* Deploy laid the database out: no round has a prepare-db
             phase, the first included. *)
          Alcotest.(check (list string))
            (Printf.sprintf "%s: query %d runs five phases, no prepare-db" name i)
            five_phases (List.map fst r.Protocol.phase_seconds))
        queries)
    [ ("per-coordinate+affine", affine_config ()); ("dot-product", Config.fast ()) ]

let test_packed_matches_unpacked () =
  (* The packed path changes the ciphertext layout, not the answer:
     against the same deployment, the plain and packed paths return the
     same neighbour set, as does plain on the dot-product layout of the
     same config — and Party B sees the same equidistant structure
     (slot-unpacked, never per-ciphertext). *)
  let rng = Rng.of_int 403 in
  let db = small_db rng in
  let q = Synthetic.query_like rng db in
  let dep = Protocol.deploy ~rng:(Rng.of_int 404) (affine_config ()) ~db in
  let dep_dot = Protocol.deploy ~rng:(Rng.of_int 404) (dot_config ()) ~db in
  let r_plain = Protocol.query ~rng:(Rng.of_int 405) dep ~query:q ~k:5 in
  let r_dot = Protocol.query ~rng:(Rng.of_int 406) dep_dot ~query:q ~k:5 in
  let r_packed = Protocol.query_packed ~rng:(Rng.of_int 407) dep ~query:q ~k:5 in
  Alcotest.(check (array int)) "packed = plain neighbour distances"
    (sorted_dists q r_plain) (sorted_dists q r_packed);
  Alcotest.(check (array int)) "packed = plain dot-product neighbour distances"
    (sorted_dists q r_dot) (sorted_dists q r_packed);
  (* Two ciphertexts instead of d: the dot-product query message is
     strictly smaller for d > 2. *)
  let q_bytes r =
    List.assoc "encrypted query"
      (List.map
         (fun (e : Transcript.entry) -> (e.Transcript.label, e.Transcript.bytes))
         (Transcript.entries r.Protocol.transcript))
  in
  Alcotest.(check bool) "smaller dot-product query message" true
    (q_bytes r_dot < q_bytes r_plain);
  Alcotest.(check (array int)) "same equidistant groups as plain path"
    (Leakage.equidistant_group_sizes r_plain.Protocol.view_b)
    (Leakage.equidistant_group_sizes r_packed.Protocol.view_b);
  (* n masked distances, not ⌈n/N⌉ per-ciphertext aggregates. *)
  Alcotest.(check int) "view has one masked distance per point"
    (Array.length db)
    (Array.length (Leakage.view_multiset r_packed.Protocol.view_b))

let test_packed_batch_shapes () =
  (* Exactness across batch geometries: a single ragged batch
     (n < slots), an exact multiple of the slot count, and a multi-batch
     ragged tail (n mod slots ≠ 0), at several dimensions d > 1. *)
  let slots = Params.slot_count (Config.fast ()).Config.bgv in
  List.iter
    (fun (n, d) ->
      let rng = Rng.of_int (409 + n + d) in
      let db = Synthetic.uniform rng ~n ~d ~max_value:250 in
      let dep = Protocol.deploy ~rng:(Rng.of_int 410) (Config.fast ()) ~db in
      let q = Synthetic.query_like rng db in
      let r = Protocol.query_packed ~rng:(Rng.of_int 411) dep ~query:q ~k:4 in
      let label = Printf.sprintf "n=%d d=%d" n d in
      Alcotest.(check bool) (label ^ " exact") true
        (Protocol.exact dep ~db ~query:q r);
      let r_plain = Protocol.query ~rng:(Rng.of_int 412) dep ~query:q ~k:4 in
      Alcotest.(check (array int)) (label ^ " matches plain path")
        (sorted_dists q r_plain) (sorted_dists q r))
    [ (40, 3); (slots, 2); ((2 * slots) + 2, 5) ]

let test_packed_jobs_determinism () =
  (* Same scheduling-transparency contract as the other paths: identical
     neighbours, views, transcripts and counters for every job count, on
     a packed query and on a round of three. *)
  let db = small_db (Rng.of_int 413) in
  let queries = [| [| 10; 20; 30 |]; [| 5; 5; 5 |]; [| 200; 1; 70 |] |] in
  let counters_s c = Format.asprintf "%a" Util.Counters.pp c in
  List.iter
    (fun (name, config, round) ->
      let run jobs = round (Protocol.deploy ~rng:(Rng.of_int 999) ~jobs config ~db) in
      let r1 = run 1 and r2 = run 2 and r4 = run 4 in
      List.iter
        (fun (jn, rs) ->
          Array.iteri
            (fun i (r : Protocol.result) ->
              let x = r1.(i) in
              let label what = Printf.sprintf "%s: %s %d jobs 1=%s" name what i jn in
              Alcotest.(check bool) (label "neighbours") true
                (x.Protocol.neighbours = r.Protocol.neighbours);
              Alcotest.(check bool) (label "view") true (x.Protocol.view_b = r.Protocol.view_b);
              Alcotest.(check int) (label "transcript bytes")
                (Transcript.total_bytes x.Protocol.transcript)
                (Transcript.total_bytes r.Protocol.transcript);
              Alcotest.(check string) (label "party A counters")
                (counters_s x.Protocol.counters_a) (counters_s r.Protocol.counters_a);
              Alcotest.(check string) (label "party B counters")
                (counters_s x.Protocol.counters_b) (counters_s r.Protocol.counters_b))
            rs)
        [ ("2", r2); ("4", r4) ])
    [ ("dot-product", Config.fast (),
       fun dep -> [| Protocol.query_packed ~rng:(Rng.of_int 1000) dep ~query:queries.(0) ~k:3 |]);
      ("per-coordinate+affine", affine_config (),
       fun dep -> [| Protocol.query_packed ~rng:(Rng.of_int 1000) dep ~query:queries.(0) ~k:3 |]);
      ("batch of 3", affine_config (),
       fun dep -> Protocol.query_batch ~rng:(Rng.of_int 1000) dep ~queries ~k:3) ]

let test_packed_rejects_nonaffine () =
  (* Slot-wise masking is one plain product + one plain add per batch —
     only sound for an affine (degree-1) polynomial, so the packed path
     must refuse a degree-2 config. *)
  let rng = Rng.of_int 419 in
  let db = small_db rng in
  let dep = Protocol.deploy ~rng (Config.standard ()) ~db in
  Alcotest.check_raises "degree-2 mask rejects a packed query"
    (Invalid_argument "Party_a.prepare_packed: packed queries need affine (degree-1) masking")
    (fun () -> ignore (Protocol.query_packed dep ~query:db.(0) ~k:1));
  Alcotest.check_raises "degree-2 mask rejected"
    (Invalid_argument "Party_a.prepare_packed: packed queries need affine (degree-1) masking")
    (fun () -> Protocol.prepare_packed dep)

let test_packed_query_stream () =
  let rng = Rng.of_int 421 in
  let db = small_db rng in
  let dep = Protocol.deploy ~rng:(Rng.of_int 422) (affine_config ()) ~db in
  let queries = Array.init 4 (fun _ -> Synthetic.query_like rng db) in
  let rng_q = Rng.of_int 423 in
  let results =
    Array.map
      (fun q -> Protocol.query_packed ~rng:(Rng.split rng_q) dep ~query:q ~k:3)
      queries
  in
  Array.iteri
    (fun i r ->
      Alcotest.(check bool) (Printf.sprintf "packed query %d exact" i) true
        (Protocol.exact dep ~db ~query:queries.(i) r);
      Alcotest.(check (list string))
        (Printf.sprintf "packed query %d runs five phases, no prepare-db" i)
        five_phases (List.map fst r.Protocol.phase_seconds))
    results

let test_packed_leakage_groups () =
  (* Regression for the equidistant-group accounting: the tie database
     occupies 6 slots of a 64-slot ciphertext, so Party B's Leakage
     extraction must run on the 6 slot-unpacked distances — never on the
     single per-ciphertext aggregate, and never on the randomized dead
     slots of the ragged tail. *)
  let tie_dep rng_seed =
    Protocol.deploy ~rng:(Rng.of_int rng_seed) (affine_config ())
      ~db:[| [| 0; 0 |]; [| 0; 4 |]; [| 4; 0 |]; [| 4; 4 |]; [| 9; 9 |]; [| 2; 1 |] |]
  in
  let q = [| 2; 2 |] in
  let r_packed = Protocol.query_packed (tie_dep 425) ~query:q ~k:2 in
  Alcotest.(check (array int)) "group of four equidistant points" [| 4 |]
    (Leakage.equidistant_group_sizes r_packed.Protocol.view_b);
  Alcotest.(check int) "pairs" 6 (Leakage.equidistant_pairs r_packed.Protocol.view_b);
  Alcotest.(check int) "view sees n distances, not ciphertext aggregates" 6
    (Array.length (Leakage.view_multiset r_packed.Protocol.view_b));
  let r_plain = Protocol.query (tie_dep 426) ~query:q ~k:2 in
  Alcotest.(check (array int)) "identical group sizes to unpacked run"
    (Leakage.equidistant_group_sizes r_plain.Protocol.view_b)
    (Leakage.equidistant_group_sizes r_packed.Protocol.view_b)

let test_packed_audit_surface () =
  (* §5 leakage surface through the audit channel: the packed path
     records the plain path's Party B labels, points-per-block (⌊N/d⌋,
     which every path's block Return-kNN adds) included, plus the one
     a packed round adds: batch-query-count, here 1.  Party A counts
     the block indicators it receives, and the client the points it
     decodes. *)
  let module Audit = Sknn_obs.Audit in
  let rng = Rng.of_int 427 in
  let db = Synthetic.uniform rng ~n:20 ~d:3 ~max_value:100 in
  let audit = Audit.create () in
  let obs = Sknn_obs.Ctx.create ~audit () in
  let config = affine_config () in
  let dep = Protocol.deploy ~rng config ~db in
  let q = Synthetic.query_like rng db in
  let r = Protocol.query_packed ~obs dep ~query:q ~k:4 in
  Alcotest.(check (list string))
    "party-b surface: the plain one plus batch-query-count"
    [ "batch-query-count"; "equidistant-group-sizes"; "k"; "masked-distance-multiset"; "n";
      "points-per-block" ]
    (Audit.labels_for audit ~party:"party-b");
  let per = Params.slot_count config.Config.bgv / 3 in
  let int_of party label =
    match Audit.value_of audit ~party ~label with
    | Some (Audit.Int v) -> v
    | _ -> Alcotest.failf "%s/%s not recorded as Int" party label
  in
  Alcotest.(check int) "points-per-block = N/d" per (int_of "party-b" "points-per-block");
  Alcotest.(check int) "a round of one query" 1 (int_of "party-b" "batch-query-count");
  Alcotest.(check int) "A receives one indicator per block" ((20 + per - 1) / per)
    (int_of "party-a" "indicator-ciphertexts");
  Alcotest.(check int) "the client decodes the k selected points" 4
    (int_of "client" "result-points");
  (match Audit.value_of audit ~party:"party-b" ~label:"masked-distance-multiset" with
   | Some (Audit.Int64s a) ->
     Alcotest.(check (array int64)) "multiset matches view"
       (Leakage.view_multiset r.Protocol.view_b) a;
     Alcotest.(check int) "multiset is slot-unpacked (n entries)" 20 (Array.length a)
   | _ -> Alcotest.fail "multiset not recorded as Int64s");
  (match Audit.value_of audit ~party:"party-b" ~label:"equidistant-group-sizes" with
   | Some (Audit.Ints a) ->
     Alcotest.(check (array int)) "groups match view"
       (Leakage.equidistant_group_sizes r.Protocol.view_b) a
   | _ -> Alcotest.fail "groups not recorded as Ints")

let test_query_batch () =
  (* M packed queries share one protocol round and its Π.  Each
     result must be exact, and the batch's one extra declared leakage —
     the shared permutation, audited as batch-query-count — must be the
     only new Party B label (lockstep with sknn-lint.conf). *)
  let module Audit = Sknn_obs.Audit in
  let rng = Rng.of_int 431 in
  let db = small_db rng in
  let audit = Audit.create () in
  let obs = Sknn_obs.Ctx.create ~audit () in
  let dep = Protocol.deploy ~rng:(Rng.of_int 432) (affine_config ()) ~db in
  let queries = Array.init 3 (fun _ -> Synthetic.query_like rng db) in
  let results = Protocol.query_batch ~obs ~rng:(Rng.of_int 433) dep ~queries ~k:3 in
  Alcotest.(check int) "one result per query" 3 (Array.length results);
  Array.iteri
    (fun i r ->
      Alcotest.(check bool) (Printf.sprintf "batched query %d exact" i) true
        (Protocol.exact dep ~db ~query:queries.(i) r);
      (* Per-query views over a shared round. *)
      Alcotest.(check int) "view sees n distances"
        (Array.length db)
        (Array.length (Leakage.view_multiset r.Protocol.view_b)))
    results;
  Alcotest.(check (list string)) "batch adds exactly batch-query-count to plain's surface"
    [ "batch-query-count"; "equidistant-group-sizes"; "k"; "masked-distance-multiset";
      "n"; "points-per-block" ]
    (Audit.labels_for audit ~party:"party-b");
  (match Audit.value_of audit ~party:"party-b" ~label:"batch-query-count" with
   | Some (Audit.Int m) -> Alcotest.(check int) "batch count" 3 m
   | _ -> Alcotest.fail "batch-query-count not recorded as Int");
  (* Distinct queries in the same round stay independent: masked views
     differ even though they share one permutation. *)
  Alcotest.(check bool) "per-query masks differ" true
    (Leakage.view_multiset results.(0).Protocol.view_b
     <> Leakage.view_multiset results.(1).Protocol.view_b)

let test_batch_metric_surface () =
  (* Every path runs through one round driver, so a batch round exports
     the same metrics as a packed query: phase histograms, noise
     gauges and per-link transcript bytes.  Only the ledger.* cells and
     the pool.* loop labels differ, because the two circuits run
     different ops and parallel loops. *)
  let rng = Rng.of_int 437 in
  let db = small_db rng in
  let queries = Array.init 3 (fun _ -> Synthetic.query_like rng db) in
  let names run =
    let metrics = Sknn_obs.Metrics.create () in
    let obs = Sknn_obs.Ctx.create ~metrics () in
    let dep = Protocol.deploy ~rng:(Rng.of_int 438) (affine_config ()) ~db in
    run obs dep;
    List.filter
      (fun name ->
        not
          (String.starts_with ~prefix:"ledger." name
          || String.starts_with ~prefix:"pool." name))
      (Sknn_obs.Metrics.names metrics)
  in
  let packed =
    names (fun obs dep -> ignore (Protocol.query_packed ~obs dep ~query:queries.(0) ~k:3))
  in
  let batch = names (fun obs dep -> ignore (Protocol.query_batch ~obs dep ~queries ~k:3)) in
  Alcotest.(check (list string)) "same metric names" packed batch;
  List.iter
    (fun link ->
      Alcotest.(check bool) (link ^ " exported") true
        (List.mem (Printf.sprintf "transcript.%s.bytes" link) batch))
    [ "party-A-party-B"; "party-A-client" ]

(* What a party can read off a ciphertext besides its residues. *)
let ct_meta ct =
  let header = Bytes.sub (Bgv.ct_to_bytes ct) 0 40 in
  ( Bgv.level ct,
    Bgv.degree ct,
    Bytes.get_int64_le header 20,
    Int64.bits_of_float (Bgv.noise_bits ct),
    Bgv.byte_size ct,
    Bytes.to_string header )

(* The messages block Return-kNN sends must carry public metadata only:
   two rounds with the same public shape (n, d, k, M) but different
   databases, queries and selections send B→A indicators and A→client
   results whose level, degree, factor, tracked noise, size and header
   bytes are equal ciphertext for ciphertext, on the plain path's
   monomial selection and on the packed paths' slot blocks. *)
let test_block_message_metadata () =
  let n = 30 and d = 3 and k = 4 in
  let round path ~seed =
    let rng = Rng.of_int seed in
    let config = match path with `Plain -> Config.standard () | `Packed _ -> affine_config () in
    let per = Entities.points_per_block config.Config.bgv ~d in
    let db = Synthetic.uniform rng ~n ~d ~max_value:250 in
    let dep = Protocol.deploy ~rng ~jobs:1 config ~db in
    let a = Protocol.party_a dep and b = Protocol.party_b dep in
    let cl = Protocol.client dep in
    match path with
    | `Plain ->
      let points, masked =
        Entities.Party_a.compute_distances a rng
          (Entities.Client.encrypt_query cl rng (Synthetic.query_like rng db))
      in
      let view = Entities.Party_b.select_neighbours b Entities.Coeff_blocks masked ~n ~k in
      let indicators = Entities.Party_b.monomial_indicators b rng view ~n ~per in
      let results = Entities.Party_a.return_monomials a points rng indicators in
      ([| view |], Array.concat (Array.to_list indicators), results)
    | `Packed m ->
      let pp = Entities.Party_a.prepare_packed a ~db in
      let queries = Array.init m (fun _ -> Synthetic.query_like rng db) in
      let cols, masked =
        Entities.Party_a.compute_distances_packed a pp rng
          (Array.map (Entities.Client.encrypt_query_packed cl rng) queries)
      in
      let views =
        Array.map
          (fun m -> Entities.Party_b.select_neighbours b Entities.Slot_blocks m ~n ~k)
          masked
      in
      let indicators = Entities.Party_b.block_indicators b rng views ~n ~per in
      let results = Entities.Party_a.return_blocks a cols rng indicators in
      (views, indicators, results)
  in
  List.iter
    (fun (name, path) ->
      let v1, i1, r1 = round path ~seed:701 and v2, i2, r2 = round path ~seed:702 in
      Alcotest.(check bool) (name ^ ": the selections differ") true
        (Array.map (fun v -> v.Entities.Party_b.selected) v1
         <> Array.map (fun v -> v.Entities.Party_b.selected) v2);
      List.iter
        (fun (what, c1, c2) ->
          Alcotest.(check int) (Printf.sprintf "%s: %s count" name what) (Array.length c1)
            (Array.length c2);
          Array.iteri
            (fun i c ->
              if ct_meta c <> ct_meta c2.(i) then
                Alcotest.failf "%s: %s ciphertext %d metadata differs (%a vs %a)" name what i
                  Bgv.pp_ct c Bgv.pp_ct c2.(i))
            c1)
        [ ("B->A indicator", i1, i2); ("A->client result", r1, r2) ])
    [ ("plain", `Plain); ("packed", `Packed 1); ("batch", `Packed 3) ]

(* The masked distances A sends B carry public metadata only: rounds
   with the same public shape (config, n, d, M) but different masks,
   databases and queries give equal level, degree, factor, tracked
   noise, size and header bytes, ciphertext for ciphertext, on every
   path.  Before the mask was charged at its public width, the degree-2
   plain mask's leading coefficient decided the level, and every affine
   path's tracked noise carried the drawn slope. *)
let test_masked_metadata_public () =
  let d = 3 in
  let round (config, n) path ~seed =
    let rng = Rng.of_int seed in
    let db = Synthetic.uniform rng ~n ~d ~max_value:250 in
    let dep = Protocol.deploy ~rng ~jobs:1 config ~db in
    let a = Protocol.party_a dep and cl = Protocol.client dep in
    let query () = Synthetic.query_like rng db in
    match path with
    | `Plain ->
      snd (Entities.Party_a.compute_distances a rng (Entities.Client.encrypt_query cl rng (query ())))
    | `Packed m ->
      let pp = Entities.Party_a.prepare_packed a ~db in
      let qs = Array.init m (fun _ -> Entities.Client.encrypt_query_packed cl rng (query ())) in
      Array.concat (Array.to_list (snd (Entities.Party_a.compute_distances_packed a pp rng qs)))
  in
  List.iter
    (fun (name, config, path) ->
      let reference = round config path ~seed:900 in
      List.iter
        (fun seed ->
          let cts = round config path ~seed in
          Alcotest.(check int) (name ^ ": count") (Array.length reference) (Array.length cts);
          Array.iteri
            (fun i c ->
              if ct_meta c <> ct_meta reference.(i) then
                Alcotest.failf "%s, seed %d: ciphertext %d metadata differs (%a vs %a)" name seed
                  i Bgv.pp_ct c Bgv.pp_ct reference.(i))
            cts)
        [ 901; 902; 903; 904; 905 ])
    (* On the per-coordinate layout the ciphertexts are coefficient
       blocks: at 2N + 1 points two full ones and a ragged one-term
       last block. *)
    [ ("plain, degree-2 mask", (Config.standard (), 12), `Plain);
      ("plain, degree-2 mask, 2N + 1 points",
       (Config.standard (), (2 * (Config.standard ()).Config.bgv.Params.n) + 1), `Plain);
      ("plain, affine mask", (Config.fast (), 12), `Plain);
      ("plain, 10-prime dot-product", (dot_config (), 12), `Plain);
      ("packed", (affine_config (), 12), `Packed 1);
      ("batch", (affine_config (), 12), `Packed 3) ]

(* A round of one query through query_batch is query_packed: the same
   transcript, ledgers, view and answer for the same RNG. *)
let test_batch_of_one_is_packed () =
  let db = small_db (Rng.of_int 441) in
  let q = Synthetic.query_like (Rng.of_int 442) db in
  let run f = f (Protocol.deploy ~rng:(Rng.of_int 443) ~jobs:1 (affine_config ()) ~db) in
  let packed = run (fun dep -> Protocol.query_packed ~rng:(Rng.of_int 444) dep ~query:q ~k:3) in
  let batch =
    run (fun dep -> (Protocol.query_batch ~rng:(Rng.of_int 444) dep ~queries:[| q |] ~k:3).(0))
  in
  let entry (e : Transcript.entry) =
    (e.Transcript.seq, e.Transcript.sender, e.Transcript.receiver, e.Transcript.label,
     e.Transcript.bytes)
  in
  Alcotest.(check bool) "same transcript entries" true
    (List.map entry (Transcript.entries packed.Protocol.transcript)
     = List.map entry (Transcript.entries batch.Protocol.transcript));
  List.iter
    (fun (party, (c1 : Protocol.result -> Util.Counters.t)) ->
      Alcotest.(check bool) (party ^ " ledger") true (Util.Counters.equal_ledger (c1 packed) (c1 batch)))
    [ ("party A", fun r -> r.Protocol.counters_a);
      ("party B", fun r -> r.Protocol.counters_b);
      ("client", fun r -> r.Protocol.counters_client) ];
  Alcotest.(check bool) "same view" true (packed.Protocol.view_b = batch.Protocol.view_b);
  Alcotest.(check bool) "same answer" true (packed.Protocol.neighbours = batch.Protocol.neighbours)

(* The client uploads at the public level.  A query that arrives above
   it is truncated by A into byte-identical masked distances; one below
   it, or one whose ciphertexts differ in level, is refused before any
   product. *)
let test_packed_upload_level () =
  let config = affine_config () in
  let params = config.Config.bgv in
  let db = small_db (Rng.of_int 445) in
  let d = Array.length db.(0) in
  let owner = Entities.Data_owner.create (Rng.of_int 446) config in
  let keys = Entities.Data_owner.keys owner in
  let enc_db = Entities.Data_owner.encrypt_db ~jobs:1 (Rng.of_int 447) owner db in
  let a = Entities.Party_a.create ~jobs:1 config keys.Bgv.pk keys.Bgv.rlk enc_db in
  let cl = Entities.Client.create ~jobs:1 config keys.Bgv.sk keys.Bgv.pk in
  let pp = Entities.Party_a.prepare_packed a ~db in
  let q = Synthetic.query_like (Rng.of_int 448) db in
  let encrypt ?norm_level level rng =
    let enc level v = Bgv.encrypt ?level rng keys.Bgv.pk (Plaintext.constant params (Int64.of_int v)) in
    let coords = Array.map (enc level) q in
    let norm = Array.fold_left (fun s v -> s + (v * v)) 0 q in
    { Entities.q_coords = Some coords;
      q_rev = None;
      q_norm = Some (enc (Option.value norm_level ~default:level) norm);
      q_dim = d }
  in
  let ca = Entities.Party_a.counters a in
  let distances query =
    Util.Counters.reset ca;
    Array.map Bgv.ct_to_bytes
      (snd (Entities.Party_a.compute_distances_packed a pp (Rng.of_int 449) [| query |])).(0)
  in
  let public_q = Entities.Client.encrypt_query_packed cl (Rng.of_int 450) q in
  let level = Bgv.level (Option.get public_q.Entities.q_norm) in
  Alcotest.(check bool) "the public level drops primes" true (level < Params.chain_length params);
  let public_bytes = distances public_q in
  Alcotest.(check int) "no truncation" 0 (Util.Counters.op_total ca Util.Counters.Op_level_drop);
  let top_bytes = distances (encrypt None (Rng.of_int 450)) in
  Alcotest.(check int) "A truncates a top-level query" (d + 1)
    (Util.Counters.op_total ca Util.Counters.Op_level_drop);
  Alcotest.(check bool) "byte-identical masked distances" true (public_bytes = top_bytes);
  List.iter
    (fun (what, query) ->
      match distances query with
      | _ -> Alcotest.failf "%s: accepted" what
      | exception Invalid_argument _ ->
        Alcotest.(check int) (what ^ ": no product") 0
          (Util.Counters.op_total ca Util.Counters.Op_mul_plain))
    [ ("below the public level", encrypt (Some (level - 1)) (Rng.of_int 451));
      ("mixed levels", encrypt ~norm_level:None (Some level) (Rng.of_int 452)) ]

(* The dot-product client uploads at the public level
   Noise_model.inner_product_query_level: below the full chain on the
   10-prime chain, at it on the 7-prime fast chain.  The stored points
   align down to it unrecorded, and the masked distances equal, byte
   for byte, those A computes from a top-level upload, which it
   truncates after the product. *)
let test_inner_product_upload_level () =
  List.iter
    (fun (name, config, drops) ->
      let params = config.Config.bgv in
      let chain = Params.chain_length params in
      let db = small_db (Rng.of_int 455) in
      let d = Array.length db.(0) in
      let owner = Entities.Data_owner.create (Rng.of_int 456) config in
      let keys = Entities.Data_owner.keys owner in
      let enc_db = Entities.Data_owner.encrypt_db ~jobs:1 (Rng.of_int 457) owner db in
      let a = Entities.Party_a.create ~jobs:1 config keys.Bgv.pk keys.Bgv.rlk enc_db in
      let cl = Entities.Client.create ~jobs:1 config keys.Bgv.sk keys.Bgv.pk in
      let q = Synthetic.query_like (Rng.of_int 458) db in
      let public_q = Entities.Client.encrypt_query cl (Rng.of_int 459) q in
      let level =
        Option.value ~default:chain
          (Util.Noise_model.inner_product_query_level params.Params.noise
             ~return_level:(Stdlib.min config.Config.return_level chain))
      in
      List.iter
        (fun (what, ct) ->
          Alcotest.(check int) (Printf.sprintf "%s: %s at the rule's level" name what) level
            (Bgv.level (Option.get ct)))
        [ ("reversed query", public_q.Entities.q_rev); ("norm", public_q.Entities.q_norm) ];
      Alcotest.(check bool) (name ^ ": below the full chain") drops (level < chain);
      (* The same draws at the top level. *)
      let top =
        let rng = Rng.of_int 459 and t = params.Params.t_plain in
        let rev = Array.make params.Params.n 0L in
        Array.iteri
          (fun j v -> rev.(if j = 0 then 0 else params.Params.n - j) <- Mod64.neg t (Int64.of_int v))
          q;
        rev.(0) <- Int64.of_int q.(0);
        let enc pt = Bgv.encrypt rng keys.Bgv.pk pt in
        let q_rev = enc (Plaintext.of_coeffs params rev) in
        let norm = Array.fold_left (fun s v -> s + (v * v)) 0 q in
        let q_norm = enc (Plaintext.constant params (Int64.of_int norm)) in
        { Entities.q_coords = None; q_rev = Some q_rev; q_norm = Some q_norm; q_dim = d }
      in
      let ca = Entities.Party_a.counters a in
      let masked query =
        Util.Counters.reset ca;
        Array.map Bgv.ct_to_bytes (snd (Entities.Party_a.compute_distances a (Rng.of_int 460) query))
      in
      let public_bytes = masked public_q in
      Alcotest.(check int) (name ^ ": no truncation") 0
        (Util.Counters.op_total ca Util.Counters.Op_level_drop);
      let top_bytes = masked top in
      Alcotest.(check int) (name ^ ": A truncates a top-level query's distances")
        (if drops then Array.length db else 0)
        (Util.Counters.op_total ca Util.Counters.Op_level_drop);
      Alcotest.(check bool) (name ^ ": byte-identical masked distances") true
        (public_bytes = top_bytes))
    [ ("10-prime dot-product", dot_config (), true); ("fast", Config.fast (), false) ]

(* ------------------------------------------------------------------ *)
(* Cross-path differential test on edge shapes                          *)
(* ------------------------------------------------------------------ *)

(* One instance drawn from [(preset, n, d, k, rows, seed)] selectors,
   biased to the shapes the paths must agree on: duplicates, ties and
   all-zero rows, k = n, n = 1, n ≡ 0 and 1 (mod ⌊N/d⌋), one point per
   block (d = N/2 + 1) and d = N, and coordinates at 2^max_coord_bits − 1. *)
let edge_instance (preset, n_sel, d_sel, k_sel, rows_sel, seed) =
  let name, config =
    match preset mod 3 with
    | 0 -> ("fast", Config.fast ())
    | 1 -> ("affine", affine_config ())
    | _ -> ("standard", Config.standard ())
  in
  let slots = Params.slot_count config.Config.bgv in
  let d = [| 1; 2; 3; 3; 5; (slots / 2) + 1; slots |].(d_sel mod 7) in
  let per = slots / d in
  let rng = Rng.of_int seed in
  let n =
    match n_sel mod 6 with
    | 0 -> 1
    | 1 -> per
    | 2 -> per + 1
    | 3 -> 2 * per
    | 4 -> (2 * per) + 1
    | _ -> 1 + Rng.int_below rng 12
  in
  let n = if d > 8 then Stdlib.min n 6 else n in
  let top = (1 lsl config.Config.max_coord_bits) - 1 in
  let row kind =
    match kind with
    | 0 -> Array.make d 0
    | 1 -> Array.make d top
    | 2 -> Array.init d (fun _ -> Rng.int_below rng 3)
    | _ -> Array.init d (fun _ -> Rng.int_below rng (top + 1))
  in
  (* Row kind 4 duplicates an earlier row. *)
  let db = Array.make n [||] in
  for i = 0 to n - 1 do
    let kind = (rows_sel + Rng.int_below rng 4) mod 5 in
    db.(i) <- (if kind = 4 && i > 0 then Array.copy db.(Rng.int_below rng i) else row kind)
  done;
  let queries = Array.init 3 (fun m -> if m = 0 then Array.copy db.(0) else row (m + rows_sel)) in
  let k = match k_sel mod 3 with 0 -> 1 | 1 -> n | _ -> 1 + Rng.int_below rng n in
  (* The plain path encrypts k·⌈n/per⌉ indicators; the cap keeps one
     instance under ~0.3 s, and on these shapes k·⌈n/per⌉ stays below
     400 at k = n, so k = n always runs. *)
  let k = Stdlib.min k (Stdlib.max 1 (1200 / ((n + per - 1) / per))) in
  (name, config, db, queries, k)

let prop_paths_agree_on_edge_shapes =
  QCheck.Test.make ~count:14 ~name:"paths agree on edge shapes"
    QCheck.(
      make
        ~print:(fun (p, n, d, k, r, s) -> Printf.sprintf "(%d,%d,%d,%d,%d,%d)" p n d k r s)
        Gen.(
          map
            (fun ((p, n, d), (k, r, s)) -> (p, n, d, k, r, s))
            (pair (triple (int_bound 2) (int_bound 5) (int_bound 6))
               (triple (int_bound 2) (int_bound 4) (int_bound 10000)))))
    (fun sel ->
      let module Audit = Sknn_obs.Audit in
      let module CM = Sknn_obs.Cost_model in
      let name, config, db, queries, k = edge_instance sel in
      let d = Array.length db.(0) in
      let deploy config = Protocol.deploy ~rng:(Rng.of_int 7) config ~db in
      let dep = deploy config in
      let admits = Config.affine_supported config ~d ~what:"packed queries" = Ok () in
      let one = [| queries.(0) |] in
      (* Plain on the deployment's layout and, for a per-coordinate
         config that admits it, on the dot-product layout of the same
         config; then the packed rounds. *)
      let rounds =
        ("plain", dep, CM.Plain, one)
        :: (if not admits then []
            else
              (if config.Config.layout = Config.Per_coordinate then
                 [ ("plain dot-product", deploy (Config.with_layout Config.Dot_product config),
                    CM.Plain, one) ]
               else [])
              @ [ ("packed", dep, CM.Packed 1, one);
                  ("batch-1", dep, CM.Packed 1, one);
                  ("batch-3", dep, CM.Packed 3, queries) ])
      in
      (* Each round records into its own audit channel. *)
      let runs =
        List.map
          (fun (label, dep, path, queries) ->
            let audit = Audit.create () in
            let obs = Sknn_obs.Ctx.create ~audit () in
            (label, dep, path, audit, Protocol.query_gen ~path ~obs dep ~queries ~k))
          rounds
      in
      let groups (r : Protocol.result) = Leakage.equidistant_group_sizes r.Protocol.view_b in
      let _, _, _, audit0, results0 = List.hd runs in
      let expected = groups results0.(0) in
      let surface_a = Audit.labels_for audit0 ~party:"party-a" in
      let surface_client = Audit.labels_for audit0 ~party:"client" in
      let surface_b =
        [ "equidistant-group-sizes"; "k"; "masked-distance-multiset"; "n"; "points-per-block" ]
      in
      List.iter
        (fun (label, dep, path, audit, results) ->
          let where = Printf.sprintf "%s n=%d d=%d k=%d %s" name (Array.length db) d k label in
          let expect_b =
            match path with
            | CM.Plain -> surface_b
            | CM.Packed _ -> List.sort String.compare ("batch-query-count" :: surface_b)
          in
          if Audit.labels_for audit ~party:"party-b" <> expect_b then
            QCheck.Test.fail_reportf "%s: party-b surface [%s]" where
              (String.concat "; " (Audit.labels_for audit ~party:"party-b"));
          if Audit.labels_for audit ~party:"party-a" <> surface_a then
            QCheck.Test.fail_reportf "%s: party-a surface differs from plain" where;
          if Audit.labels_for audit ~party:"client" <> surface_client then
            QCheck.Test.fail_reportf "%s: client surface differs from plain" where;
          List.iter
            (fun (e : Audit.entry) ->
              match e.Audit.value with
              | Audit.Int _ -> ()
              | _ -> QCheck.Test.fail_reportf "%s: party-a %S is not a scalar Int" where e.Audit.label)
            (Audit.for_party audit ~party:"party-a");
          Array.iteri
            (fun i (r : Protocol.result) ->
              let query = queries.(i) in
              let where = Printf.sprintf "%s query %d" where i in
              if not (Protocol.exact dep ~db ~query r) then
                QCheck.Test.fail_reportf "%s: inexact answer" where;
              if not
                   (Leakage.recovers_true_order r.Protocol.view_b
                      (Plain_knn.distances ~query db))
              then QCheck.Test.fail_reportf "%s: view does not preserve the order" where;
              if i = 0 && groups r <> expected then
                QCheck.Test.fail_reportf "%s: equidistant groups differ from plain" where)
            results)
        runs;
      true)

(* ------------------------------------------------------------------ *)
(* Fault injection: chains too short for the circuit                   *)
(* ------------------------------------------------------------------ *)

(* [config] on a chain of [chain_len] 30-bit primes (both presets' prime
   width, under their 50-bit plaintext prime), with the return level
   clamped to the chain. *)
let with_chain config ~chain_len =
  let bgv =
    Params.create ~name:(Printf.sprintf "chain-%d" chain_len) ~n:config.Config.bgv.Params.n
      ~plain_bits:50 ~prime_bits:30 ~chain_len ()
  in
  config |> Config.with_bgv bgv
  |> Config.with_return_level (Stdlib.min config.Config.return_level chain_len)

(* One round of [path] on a fresh deployment with its own audit.  A
   short chain may end the round only in a typed error; an answer must
   be exact.  Returns whether the round failed and whether the noise
   guard deploy runs warned. *)
let faulted_round config ~db ~queries ~k path =
  let audit = Sknn_obs.Audit.create () in
  let obs = Sknn_obs.Ctx.create ~audit () in
  let dep = Protocol.deploy ~obs ~rng:(Rng.of_int 29) ~jobs:1 config ~db in
  let m = match path with Sknn_obs.Cost_model.Packed m -> m | _ -> 1 in
  let queries = Array.sub queries 0 m in
  let failed =
    match Protocol.query_gen ~path ~obs dep ~queries ~k with
    | results ->
      Array.iteri
        (fun i r ->
          Alcotest.(check bool) "answered exactly" true
            (Protocol.exact dep ~db ~query:queries.(i) r))
        results;
      false
    | exception (Bgv.Decryption_failure _ | Invalid_argument _) -> true
  in
  let warned =
    Sknn_obs.Audit.value_of audit ~party:"party-a" ~label:"noise-low-headroom-warning"
    <> None
  in
  (failed, warned)

let fault_db = Synthetic.uniform (Rng.of_int 31) ~n:40 ~d:3 ~max_value:250
let fault_queries = [| [| 10; 20; 30 |]; [| 5; 5; 5 |]; [| 200; 1; 70 |] |]

let test_short_chains_every_path () =
  (* Three primes cannot carry any path's circuit, six carry them all;
     in between, every round is exact or raises a typed error, and on
     the packed paths, whose noise guard deploy runs, the guard warned
     first. *)
  List.iter
    (fun chain_len ->
      let config = with_chain (Config.fast ()) ~chain_len in
      List.iter
        (fun (name, path) ->
          let label what = Printf.sprintf "chain %d, %s: %s" chain_len name what in
          let failed, warned =
            faulted_round config ~db:fault_db ~queries:fault_queries ~k:3 path
          in
          if chain_len = 3 then Alcotest.(check bool) (label "fails") true failed;
          if chain_len = 6 then Alcotest.(check bool) (label "answers") false failed;
          if failed && path <> Sknn_obs.Cost_model.Plain then
            Alcotest.(check bool) (label "guard warned before the failure") true warned)
        Sknn_obs.Cost_model.
          [ ("plain", Plain); ("packed", Packed 1); ("batch", Packed 3) ])
    [ 3; 4; 5; 6 ]

let test_short_chains_per_coordinate () =
  (* The standard preset's degree-2 mask needs its full ten primes:
     every shorter chain ends the plain round in a typed error. *)
  List.iter
    (fun chain_len ->
      let config = with_chain (Config.standard ()) ~chain_len in
      let failed, _ =
        faulted_round config ~db:fault_db ~queries:fault_queries ~k:3
          Sknn_obs.Cost_model.Plain
      in
      Alcotest.(check bool) (Printf.sprintf "chain %d fails" chain_len) true failed)
    [ 2; 3; 4; 5 ]

(* The plain results' flood grows by log2 ⌈n/⌊N/d⌋⌉, so its level is
   derived from the shape (Entities.monomial_level).  At the bench's
   paper-scale shapes (fig5 and fig7 on fast at d = 2, fig6 on its
   standard variant, up to n = 200,000), and on the standard preset at
   d = 3, the forecast's flooded result sits at that level and clears
   the margin; on perfbench's plain shape it is the configured level 6.
   Six 30-bit primes cannot flood 70,000 points at d = 2: the rule says
   so, and a live round on a chain that cannot flood raises before any
   work.  ("ledger exact (plain)" runs a live round whose configured
   return level is below the derived one.) *)
let test_plain_flood_level () =
  let module NM = Util.Noise_model in
  let fig6 =
    Config.with_rescale_distances false (Config.with_mask_degree 1 (Config.standard ()))
  in
  let result_step config ~n ~d =
    let report = (Attribution.predict config ~n ~d ~k:1 Sknn_obs.Cost_model.Plain).noise in
    List.find (fun st -> st.NM.op = "result") report.NM.steps
  in
  List.iter
    (fun (name, config, d, ns) ->
      let per = Entities.points_per_block config.Config.bgv ~d in
      let last = ref 0 in
      List.iter
        (fun n ->
          let what = Printf.sprintf "%s, d = %d, n = %d" name d n in
          let level = Entities.monomial_level config ~n ~per in
          let st = result_step config ~n ~d in
          Alcotest.(check int) (what ^ ": forecast at the live level") level st.NM.s_level;
          Alcotest.(check bool) (what ^ ": clears the margin") true
            (st.NM.s_headroom > NM.default_margin_bits);
          Alcotest.(check bool) (what ^ ": level grows with n") true (level >= !last);
          last := level)
        ns)
    [ ("fast", Config.fast (), 2, [ 24; 2_000; 20_000; 70_000; 200_000 ]);
      ("fig6", fig6, 2, [ 20_000; 200_000 ]); ("fig6", fig6, 32, [ 20_000; 200_000 ]);
      ("standard", Config.standard (), 3, [ 4_000; 65_000; 200_000 ]);
      ("standard", Config.standard (), 32, [ 429 ]) ];
  Alcotest.(check int) "perfbench plain shape: the configured level" 6
    (Entities.monomial_level (Config.standard ()) ~n:429
       ~per:(Entities.points_per_block (Config.standard ()).Config.bgv ~d:32));
  let six = with_chain (Config.fast ()) ~chain_len:6 in
  let per = Entities.points_per_block six.Config.bgv ~d:2 in
  Alcotest.(check int) "six primes flood 2,000 points" 6
    (Entities.monomial_level six ~n:2_000 ~per);
  (match Entities.monomial_level six ~n:70_000 ~per with
   | level -> Alcotest.failf "six primes flood 70,000 points at level %d" level
   | exception Invalid_argument _ -> ());
  let five = with_chain (Config.fast ()) ~chain_len:5 in
  let dep = Protocol.deploy ~rng:(Rng.of_int 33) ~jobs:1 five ~db:fault_db in
  (match Protocol.query dep ~query:fault_queries.(0) ~k:3 with
   | _ -> Alcotest.fail "five primes: the round ran"
   | exception Invalid_argument msg ->
     Alcotest.(check bool) "five primes: the flood error" true
       (String.starts_with ~prefix:"plain Return-kNN" msg));
  Alcotest.(check (list int)) "five primes: no work before the error" [ 0; 0; 0 ]
    (List.map Util.Counters.ops_total
       [ Entities.Party_a.counters (Protocol.party_a dep);
         Entities.Party_b.counters (Protocol.party_b dep);
         Entities.Client.counters (Protocol.client dep) ])

(* ------------------------------------------------------------------ *)
(* Leakage profile (Theorems 4.1 / 4.2)                                *)
(* ------------------------------------------------------------------ *)

let tie_db =
  [| [| 0; 0 |]; [| 0; 4 |]; [| 4; 0 |]; [| 4; 4 |]; [| 9; 9 |]; [| 2; 1 |] |]

let test_leakage_order_preserved () =
  let rng = Rng.of_int 149 in
  let db = small_db rng in
  let dep = Protocol.deploy ~rng (Config.standard ()) ~db in
  let q = Synthetic.query_like rng db in
  let r = Protocol.query dep ~query:q ~k:3 in
  let true_dists = Plain_knn.distances ~query:q db in
  Alcotest.(check bool) "masked view order-isomorphic to true distances" true
    (Leakage.recovers_true_order r.Protocol.view_b true_dists);
  Alcotest.(check bool) "mask hides raw values" true
    (Leakage.mask_hides_values r.Protocol.view_b true_dists)

let test_leakage_equidistant_groups () =
  (* Query at the centre of a square: 4 equidistant points, visible to B
     as one group of 4 — the leakage Theorem 4.2 admits. *)
  let dep = Protocol.deploy ~rng:(Rng.of_int 151) (Config.standard ()) ~db:tie_db in
  let q = [| 2; 2 |] in
  let r = Protocol.query dep ~query:q ~k:2 in
  Alcotest.(check (array int)) "group of four equidistant points" [| 4 |]
    (Leakage.equidistant_group_sizes r.Protocol.view_b);
  Alcotest.(check int) "pairs" 6 (Leakage.equidistant_pairs r.Protocol.view_b)

let test_leakage_view_database_independent () =
  (* Two different databases with identical distance multisets for their
     queries must give Party B views with identical *shape* (sorted rank
     pattern), demonstrating the view depends only on the multiset.
     Masked values differ (fresh polynomial), which is the point. *)
  let db1 = [| [| 0; 0 |]; [| 3; 0 |]; [| 0; 4 |] |] in
  (* distances from (0,0): 0, 9, 16 *)
  let db2 = [| [| 10; 10 |]; [| 10; 13 |]; [| 14; 10 |] |] in
  (* distances from (10,10): 0, 9, 16 — same multiset *)
  let view db q =
    let dep = Protocol.deploy ~rng:(Rng.of_int 157) (Config.standard ()) ~db in
    let r = Protocol.query ~rng:(Rng.of_int 158) dep ~query:q ~k:1 in
    r.Protocol.view_b
  in
  let v1 = view db1 [| 0; 0 |] and v2 = view db2 [| 10; 10 |] in
  (* Same protocol randomness, same distance multiset => identical views:
     B cannot distinguish the two databases. *)
  Alcotest.(check (array int64)) "identical views" (Leakage.view_multiset v1)
    (Leakage.view_multiset v2)

let test_leakage_fresh_mask_across_queries () =
  (* The same query twice gives different masked values (search-pattern
     hiding): the polynomial and permutation are refreshed per query. *)
  let rng = Rng.of_int 163 in
  let db = small_db rng in
  let dep = Protocol.deploy ~rng (Config.standard ()) ~db in
  let q = Synthetic.query_like rng db in
  let r1 = Protocol.query dep ~query:q ~k:2 in
  let r2 = Protocol.query dep ~query:q ~k:2 in
  Alcotest.(check bool) "different masked views for the same query" true
    (Leakage.view_multiset r1.Protocol.view_b <> Leakage.view_multiset r2.Protocol.view_b);
  Alcotest.(check bool) "both exact" true
    (Protocol.exact dep ~db ~query:q r1 && Protocol.exact dep ~db ~query:q r2)

let test_permutation_hides_indices () =
  (* The selected indices B reports live in permuted space; composing
     with A's secret permutation recovers the true indices (sanity check
     of the permutation plumbing via the exactness oracle instead of
     peeking — exactness over many seeds implies the mapping is right). *)
  let rng = Rng.of_int 167 in
  let db = Synthetic.uniform rng ~n:25 ~d:2 ~max_value:200 in
  for seed = 1 to 5 do
    let dep = Protocol.deploy ~rng:(Rng.of_int seed) (Config.fast ()) ~db in
    let q = Synthetic.query_like rng db in
    let r = Protocol.query dep ~query:q ~k:3 in
    Alcotest.(check bool) (Printf.sprintf "seed %d exact" seed) true
      (Protocol.exact dep ~db ~query:q r)
  done

let test_leakage_audit_channel () =
  (* Mechanical check of the §4/§5 leakage profile via the audit
     channel: Party B's recorded surface is exactly the admitted set
     (and matches the Leakage extraction of the actual view); Party A's
     entries are ciphertext counts and byte sizes only. *)
  let module Audit = Sknn_obs.Audit in
  let rng = Rng.of_int 171 in
  let db = Synthetic.uniform rng ~n:20 ~d:3 ~max_value:100 in
  let audit = Audit.create () in
  let obs = Sknn_obs.Ctx.create ~audit () in
  let dep = Protocol.deploy ~rng (Config.standard ()) ~db in
  let q = Synthetic.query_like rng db in
  let r = Protocol.query ~obs dep ~query:q ~k:4 in
  Alcotest.(check (list string)) "party-b leakage surface"
    [ "equidistant-group-sizes"; "k"; "masked-distance-multiset"; "n"; "points-per-block" ]
    (Audit.labels_for audit ~party:"party-b");
  (match Audit.value_of audit ~party:"party-b" ~label:"k" with
   | Some (Audit.Int k) -> Alcotest.(check int) "k" 4 k
   | _ -> Alcotest.fail "k not recorded as Int");
  (match Audit.value_of audit ~party:"party-b" ~label:"points-per-block" with
   | Some (Audit.Int per) ->
     Alcotest.(check int) "points-per-block = ⌊N/d⌋"
       (Entities.points_per_block (Config.standard ()).Config.bgv ~d:3) per
   | _ -> Alcotest.fail "points-per-block not recorded as Int");
  (match Audit.value_of audit ~party:"party-b" ~label:"masked-distance-multiset" with
   | Some (Audit.Int64s a) ->
     Alcotest.(check (array int64)) "multiset matches view"
       (Leakage.view_multiset r.Protocol.view_b) a
   | _ -> Alcotest.fail "multiset not recorded as Int64s");
  (match Audit.value_of audit ~party:"party-b" ~label:"equidistant-group-sizes" with
   | Some (Audit.Ints a) ->
     Alcotest.(check (array int)) "groups match view"
       (Leakage.equidistant_group_sizes r.Protocol.view_b) a
   | _ -> Alcotest.fail "groups not recorded as Ints");
  let a_entries = Audit.for_party audit ~party:"party-a" in
  Alcotest.(check bool) "party-a observed" true (a_entries <> []);
  List.iter
    (fun (e : Audit.entry) ->
      match e.Audit.value with
      | Audit.Int _ -> ()
      | _ -> Alcotest.failf "party-a entry %S is not a scalar count/size" e.Audit.label)
    a_entries

(* ------------------------------------------------------------------ *)
(* Cost model (Table 1)                                                *)
(* ------------------------------------------------------------------ *)

let test_cost_measured_vs_predicted () =
  let rng = Rng.of_int 173 in
  let n = 30 and d = 4 and k = 5 in
  let db = Synthetic.uniform rng ~n ~d ~max_value:200 in
  let config = Config.standard () in
  let dep = Protocol.deploy ~rng config ~db in
  let r = Protocol.query dep ~query:(Synthetic.query_like rng db) ~k in
  let measured = Cost.measured r in
  let ring_degree = config.Config.bgv.Params.n in
  let predicted = Cost.ours ~n ~d ~k ~mask_degree:config.Config.mask_degree ~ring_degree () in
  Alcotest.(check int) "one round measured" 1 measured.Cost.rounds;
  Alcotest.(check int) "decryptions = ⌈n/N⌉" ((n + ring_degree - 1) / ring_degree)
    measured.Cost.decryptions;
  Alcotest.(check int) "predicted decryptions = measured" measured.Cost.decryptions
    predicted.Cost.decryptions;
  let per = Entities.points_per_block config.Config.bgv ~d in
  Alcotest.(check int) "encryptions = k·⌈n/⌊N/d⌋⌉" (k * ((n + per - 1) / per))
    measured.Cost.encryptions;
  Alcotest.(check int) "predicted encryptions = measured" measured.Cost.encryptions
    predicted.Cost.encryptions;
  Alcotest.(check bool)
    (Format.asprintf "hom ops within 4x of model (measured %a, predicted %a)" Cost.pp measured
       Cost.pp predicted)
    true
    (Cost.within_asymptotic ~measured ~predicted ~slack:4.0)

let test_cost_ours_beats_yousef () =
  (* The Table 1 comparison: for 32-bit values, every row of ours is
     asymptotically below Yousef et al. *)
  let n = 1000 and d = 10 and k = 10 and l = 32 in
  let ours = Cost.ours ~n ~d ~k ~mask_degree:2 ~ring_degree:64 () in
  let yousef = Cost.yousef ~n ~d ~k ~l in
  Alcotest.(check bool) "hom ops" true (ours.Cost.hom_ops < yousef.Cost.hom_ops);
  Alcotest.(check bool) "encryptions" true (ours.Cost.encryptions < yousef.Cost.encryptions);
  Alcotest.(check bool) "decryptions" true (ours.Cost.decryptions < yousef.Cost.decryptions);
  Alcotest.(check int) "rounds: ours constant" 1 ours.Cost.rounds;
  Alcotest.(check int) "rounds: yousef O(k)" k yousef.Cost.rounds

(* ------------------------------------------------------------------ *)
(* Cost ledger vs analytic replica (DESIGN §5a)                        *)
(* ------------------------------------------------------------------ *)

module CM = Sknn_obs.Cost_model

let check_ledger name predicted measured =
  if not (Util.Counters.equal_ledger predicted measured) then
    Alcotest.failf "%s: ledger mismatch@.predicted: %a@.measured:  %a" name
      Util.Counters.pp predicted Util.Counters.pp measured

let check_prediction name config ~n ~d ~k path (r : Protocol.result) =
  let pred = Attribution.predict config ~n ~d ~k path in
  check_ledger (name ^ " / party-a") pred.CM.party_a r.Protocol.counters_a;
  check_ledger (name ^ " / party-b") pred.CM.party_b r.Protocol.counters_b;
  check_ledger (name ^ " / client") pred.CM.client r.Protocol.counters_client;
  (* Serialized A<->B traffic, predicted from symbolic ciphertext sizes,
     against the transcript tally (Cost.measured reads the same entries
     tally_transcript folds into bytes_sent). *)
  Alcotest.(check int)
    (name ^ " / A<->B bytes")
    (Cost.measured r).Cost.bytes pred.CM.ab_bytes;
  (* The symbolic transcript must mirror the live exchange message for
     message — same senders, labels and byte sizes in the same order —
     so its virtual-clock replay (what [Cost_model.price] prices) is
     structurally identical to replaying the live run, per-round
     latencies and all, under every profile. *)
  let entry_key (e : Transcript.entry) =
    ( e.Transcript.seq, e.Transcript.sender, e.Transcript.receiver,
      e.Transcript.label, e.Transcript.bytes )
  in
  if
    List.map entry_key (Transcript.entries pred.CM.transcript)
    <> List.map entry_key (Transcript.entries r.Protocol.transcript)
  then
    Alcotest.failf "%s: symbolic transcript diverges@.predicted:@.%a@.live:@.%a"
      name Transcript.pp pred.CM.transcript Transcript.pp r.Protocol.transcript;
  List.iter
    (fun prof ->
      Alcotest.(check string)
        (name ^ " / identical replay under " ^ Profile.to_string prof)
        (Marshal.to_string (Clock.replay prof pred.CM.transcript) [])
        (Marshal.to_string (Clock.replay prof r.Protocol.transcript) []))
    Profile.presets

(* Several queries per deployment, so that each draws its own mask: the
   degree-2 mask's rescale decisions must not depend on the drawn
   coefficients, small ones included.  The dot-product configs run the
   inner-product circuit; on the 10-prime chain its distance drops
   levels before the mask (Noise_model.distance_level). *)
let test_cost_model_plain () =
  let k = 4 in
  List.iter
    (fun (name, config, db, queries) ->
      let n = Array.length db and d = Array.length db.(0) in
      let dep = Protocol.deploy ~rng:(Rng.of_int 612) config ~db in
      let rng = Rng.of_int 613 in
      for i = 1 to queries do
        let q = Synthetic.query_like rng db in
        let r = Protocol.query dep ~query:q ~k in
        check_prediction (Printf.sprintf "%s query %d" name i) config ~n ~d ~k CM.Plain r
      done)
    [ ("plain/standard", Config.standard (), small_db (Rng.of_int 611), 6);
      ("plain/fast", Config.fast (), small_db (Rng.of_int 611), 2);
      ("plain/10-prime dot-product", dot_config (), small_db (Rng.of_int 611), 2);
      ("plain/standard 64x32", Config.standard (),
       Synthetic.uniform (Rng.of_int 7) ~n:64 ~d:32 ~max_value:255, 3);
      ("plain/standard 129x3", Config.standard (),
       Synthetic.uniform (Rng.of_int 8) ~n:129 ~d:3 ~max_value:255, 1);
      (* The flood needs level 6 here: both parties and the walk raise
         Return-kNN above the configured floor. *)
      ("plain/standard, return level 3", Config.with_return_level 3 (Config.standard ()),
       small_db (Rng.of_int 611), 1) ]

(* Relinearisation changes the circuit: each distance sum (plain,
   per-coordinate) and each inner product (plain, dot-product) is
   relinearised once, and Horner's products per step.  The walk must
   record the same key switches and NTT census. *)
let test_cost_model_relin () =
  let db = small_db (Rng.of_int 651) in
  let n = Array.length db and d = Array.length db.(0) in
  let k = 3 in
  let q = Synthetic.query_like (Rng.of_int 653) db in
  List.iter
    (fun (name, config) ->
      let config = Config.with_relin true config in
      let dep = Protocol.deploy ~rng:(Rng.of_int 652) config ~db in
      check_prediction (name ^ "+relin") config ~n ~d ~k CM.Plain
        (Protocol.query dep ~query:q ~k))
    [ ("plain/standard", Config.standard ()); ("plain/fast", Config.fast ());
      ("plain/10-prime dot-product", dot_config ()) ]

let test_cost_model_packed () =
  let db = small_db (Rng.of_int 631) in
  let n = Array.length db and d = Array.length db.(0) in
  let k = 4 in
  List.iter
    (fun (name, config) ->
      let dep = Protocol.deploy ~rng:(Rng.of_int 632) config ~db in
      let q = Synthetic.query_like (Rng.of_int 633) db in
      let first = Protocol.query_packed dep ~query:q ~k in
      check_prediction (name ^ "/first") config ~n ~d ~k (CM.Packed 1) first;
      let second = Protocol.query_packed dep ~query:q ~k in
      check_prediction (name ^ "/second") config ~n ~d ~k (CM.Packed 1) second)
    [ ("packed/affine", affine_config ()); ("packed/fast", Config.fast ()) ]

let test_cost_model_batch () =
  let db = small_db (Rng.of_int 641) in
  let n = Array.length db and d = Array.length db.(0) in
  let k = 3 in
  let config = Config.fast () in
  (* A 3-query batch leaves dead slots, so every point draws a fresh
     intercept plaintext; a batch that fills every slot shares one
     intercept plaintext across points. *)
  List.iter
    (fun m ->
      let dep = Protocol.deploy ~rng:(Rng.of_int 642) config ~db in
      let rng = Rng.of_int 643 in
      let queries = Array.init m (fun _ -> Synthetic.query_like rng db) in
      let round label =
        let name = Printf.sprintf "batch-%d/%s" m label in
        let results = Protocol.query_batch dep ~queries ~k in
        Array.iteri
          (fun i r ->
            Alcotest.(check bool)
              (Printf.sprintf "%s query %d exact" name i)
              true
              (Protocol.exact dep ~db ~query:queries.(i) r))
          results;
        check_prediction name config ~n ~d ~k (CM.Packed m) results.(0)
      in
      round "first";
      round "second")
    [ 3; Params.slot_count config.Config.bgv ]

let test_price_consistency () =
  (* Cost_model.price on every path under WAN: the per-phase and
     per-party splits both add up to the in-order compute total, the
     total is compute plus wire, and the priced timeline is the
     virtual-clock replay of the live round's transcript — the same
     timeline the round itself recorded under [?net]. *)
  let db = small_db (Rng.of_int 651) in
  let k = 3 in
  let n = Array.length db and d = Array.length db.(0) in
  let config = Config.fast () in
  let bgv = config.Config.bgv in
  let unit_costs =
    CM.unit_costs_for { CM.scales = Array.make Util.Counters.num_ops 1e-9 }
      ~n:bgv.Params.n ~levels:(Params.chain_length bgv)
  in
  let queries = Array.init 3 (fun i -> Synthetic.query_like (Rng.of_int (653 + i)) db) in
  let sum = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 in
  List.iter
    (fun (name, path) ->
      let m = match path with CM.Packed m -> m | CM.Plain -> 1 in
      let dep = Protocol.deploy ~rng:(Rng.of_int 652) config ~db in
      let r =
        (Protocol.query_gen ~path ~net:Profile.wan dep ~queries:(Array.sub queries 0 m) ~k).(0)
      in
      let p =
        CM.price ~unit_costs ~profile:Profile.wan
          (Attribution.predict config ~n ~d ~k path)
      in
      let rounding = Alcotest.float (1e-12 *. p.CM.compute_s) in
      Alcotest.(check bool) (name ^ ": compute priced") true (p.CM.compute_s > 0.0);
      Alcotest.check rounding (name ^ ": phases sum to compute") p.CM.compute_s
        (sum p.CM.phase_s);
      Alcotest.check rounding (name ^ ": parties sum to compute") p.CM.compute_s
        (sum p.CM.party_s);
      Alcotest.(check (float 0.0)) (name ^ ": total = compute + wire")
        (p.CM.compute_s +. p.CM.wire_s) p.CM.total_s;
      let live =
        match r.Protocol.net with
        | Some tl -> tl
        | None -> Alcotest.fail "round ran with ?net but recorded no timeline"
      in
      Alcotest.(check (float 0.0)) (name ^ ": wire = live end-to-end")
        live.Clock.end_to_end_s p.CM.wire_s;
      Alcotest.(check string) (name ^ ": priced timeline = replay of the live transcript")
        (Marshal.to_string (Clock.replay Profile.wan r.Protocol.transcript) [])
        (Marshal.to_string p.CM.timeline []);
      Alcotest.(check string) (name ^ ": live timeline = replay of the live transcript")
        (Marshal.to_string (Clock.replay Profile.wan r.Protocol.transcript) [])
        (Marshal.to_string live []))
    [ ("plain", CM.Plain); ("packed-1", CM.Packed 1);
      ("packed-3", CM.Packed 3) ]

let test_net_timeline_jobs_determinism () =
  (* The replayed timeline is a pure function of (transcript, profile),
     and the transcript is jobs-invariant — so the whole virtual
     timeline must be byte-identical across worker counts. *)
  let db = small_db (Rng.of_int 661) in
  let q = [| 10; 20; 30 |] in
  let run jobs =
    let dep = Protocol.deploy ~rng:(Rng.of_int 999) ~jobs (Config.fast ()) ~db in
    let r = Protocol.query ~rng:(Rng.of_int 1000) ~net:Profile.wan dep ~query:q ~k:3 in
    match r.Protocol.net with
    | Some tl -> Marshal.to_string tl []
    | None -> Alcotest.fail "no timeline recorded"
  in
  let t1 = run 1 in
  List.iter
    (fun j ->
      Alcotest.(check string) (Printf.sprintf "jobs 1 = jobs %d" j) t1 (run j))
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Property: random end-to-end instances                               *)
(* ------------------------------------------------------------------ *)

let prop_end_to_end_exact =
  QCheck.Test.make ~count:8 ~name:"random instances are exact (fast layout)"
    QCheck.(triple (int_range 5 30) (int_range 1 6) (int_range 0 10000))
    (fun (n, d, seed) ->
      let rng = Rng.of_int seed in
      let db = Synthetic.uniform rng ~n ~d ~max_value:250 in
      let dep = Protocol.deploy ~rng (Config.fast ()) ~db in
      let q = Synthetic.query_like rng db in
      let k = 1 + (seed mod n) in
      let r = Protocol.query dep ~query:q ~k in
      Protocol.exact dep ~db ~query:q r)

let () =
  Alcotest.run "secure_knn"
    [ ("masking",
       [ Alcotest.test_case "envelope" `Quick test_masking_envelope;
         Alcotest.test_case "draw/eval" `Quick test_masking_draw_and_eval;
         Alcotest.test_case "rejects unsound" `Quick test_masking_rejects_unsound ]);
      ("config",
       [ Alcotest.test_case "presets valid" `Quick test_config_presets_valid;
         Alcotest.test_case "envelope rejection" `Quick test_config_envelope_rejection;
         Alcotest.test_case "distance bits" `Quick test_config_distance_bits ]);
      ("protocol",
       [ Alcotest.test_case "exact (per-coordinate)" `Quick
           (test_exactness "per-coordinate" (Config.standard ()));
         Alcotest.test_case "exact (dot-product)" `Quick
           (test_exactness "dot-product" (Config.fast ()));
         Alcotest.test_case "k edge cases" `Quick test_k_edge_cases;
         Alcotest.test_case "duplicates and ties" `Quick test_duplicates_and_ties;
         Alcotest.test_case "query on db point" `Quick test_query_on_db_point;
         Alcotest.test_case "dimensions 1..32" `Quick test_dimension_1_and_high;
         Alcotest.test_case "uci-shaped workload" `Quick test_uci_shaped_workload;
         Alcotest.test_case "validation errors" `Quick test_validation_errors;
         Alcotest.test_case "transcript structure" `Quick test_transcript_structure;
         Alcotest.test_case "phase times" `Quick test_phase_times_present;
         Alcotest.test_case "deterministic given seed" `Quick test_deterministic_given_seed;
         Alcotest.test_case "identical across job counts" `Quick test_jobs_determinism;
         Alcotest.test_case "inner-product upload level" `Quick test_inner_product_upload_level ]);
      ("packed",
       [ Alcotest.test_case "exact over repeated queries" `Quick test_packed_exactness;
         Alcotest.test_case "matches unpacked paths" `Quick test_packed_matches_unpacked;
         Alcotest.test_case "ragged and full batch shapes" `Quick test_packed_batch_shapes;
         Alcotest.test_case "identical across job counts" `Quick test_packed_jobs_determinism;
         Alcotest.test_case "rejects non-affine masking" `Quick test_packed_rejects_nonaffine;
         Alcotest.test_case "run_queries batch" `Quick test_packed_query_stream;
         Alcotest.test_case "equidistant groups slot-unpacked" `Quick
           test_packed_leakage_groups;
         Alcotest.test_case "audit surface unchanged" `Quick test_packed_audit_surface;
         Alcotest.test_case "slot-dimension query batch" `Quick test_query_batch;
         Alcotest.test_case "batch metric surface" `Quick test_batch_metric_surface;
         Alcotest.test_case "block message metadata is public" `Quick
           test_block_message_metadata;
         Alcotest.test_case "batch of one is a packed query" `Quick test_batch_of_one_is_packed;
         Alcotest.test_case "query upload level" `Quick test_packed_upload_level ]);
      ("faults",
       [ Alcotest.test_case "short chains, every path" `Quick test_short_chains_every_path;
         Alcotest.test_case "short chains, per-coordinate plain" `Quick
           test_short_chains_per_coordinate;
         Alcotest.test_case "plain flood level" `Quick test_plain_flood_level ]);
      ("leakage",
       [ Alcotest.test_case "order preserved" `Quick test_leakage_order_preserved;
         Alcotest.test_case "equidistant groups" `Quick test_leakage_equidistant_groups;
         Alcotest.test_case "database independence" `Quick test_leakage_view_database_independent;
         Alcotest.test_case "fresh mask per query" `Quick test_leakage_fresh_mask_across_queries;
         Alcotest.test_case "permutation plumbing" `Quick test_permutation_hides_indices;
         Alcotest.test_case "audit channel" `Quick test_leakage_audit_channel;
         Alcotest.test_case "masked metadata is public" `Quick test_masked_metadata_public ]);
      ("cost",
       [ Alcotest.test_case "measured vs predicted" `Quick test_cost_measured_vs_predicted;
         Alcotest.test_case "ours beats yousef" `Quick test_cost_ours_beats_yousef;
         Alcotest.test_case "ledger exact (plain)" `Quick test_cost_model_plain;
         Alcotest.test_case "ledger exact (relinearised)" `Quick test_cost_model_relin;
         Alcotest.test_case "ledger exact (packed)" `Quick test_cost_model_packed;
         Alcotest.test_case "ledger exact (batch)" `Quick test_cost_model_batch;
         Alcotest.test_case "end-to-end prediction consistent" `Quick test_price_consistency;
         Alcotest.test_case "net timeline jobs-invariant" `Quick
           test_net_timeline_jobs_determinism ]);
      ("properties",
       List.map QCheck_alcotest.to_alcotest
         [ prop_masking_order_preserving; prop_masking_fresh_each_draw; prop_end_to_end_exact;
           prop_paths_agree_on_edge_shapes ]) ]
