(* Tests for the Apriori extension: plaintext reference and the secure
   slot-packed protocol. *)

module Rng = Util.Rng

let tiny =
  (* Classic textbook transactions over items {0..4}. *)
  [| [| 1; 1; 0; 0; 1 |];
     [| 0; 1; 0; 1; 0 |];
     [| 0; 1; 1; 0; 0 |];
     [| 1; 1; 0; 1; 0 |];
     [| 1; 0; 1; 0; 0 |];
     [| 0; 1; 1; 0; 0 |];
     [| 1; 0; 1; 0; 0 |];
     [| 1; 1; 1; 0; 1 |];
     [| 1; 1; 1; 0; 0 |] |]

let planted seed ~n ~m ~p_noise ~p_pattern =
  let rng = Rng.of_int seed in
  Array.init n (fun _ ->
      let row = Array.init m (fun _ -> if Rng.float rng < p_noise then 1 else 0) in
      if Rng.float rng < p_pattern then begin
        row.(0) <- 1;
        row.(1) <- 1;
        row.(2) <- 1
      end;
      row)

(* ------------------------------------------------------------------ *)
(* Plaintext                                                           *)
(* ------------------------------------------------------------------ *)

let test_support () =
  Alcotest.(check int) "single item" 6 (Apriori_plain.support [ 0 ] tiny);
  Alcotest.(check int) "pair" 4 (Apriori_plain.support [ 0; 1 ] tiny);
  Alcotest.(check int) "triple" 2 (Apriori_plain.support [ 0; 1; 2 ] tiny);
  Alcotest.(check int) "empty set is universal" 9 (Apriori_plain.support [] tiny)

let test_singletons () =
  Alcotest.(check (list (list int))) "items" [ [ 0 ]; [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ] ]
    (Apriori_plain.singletons tiny)

let test_candidates_join () =
  Alcotest.(check (list (list int))) "join pairs"
    [ [ 0; 1; 2 ] ]
    (Apriori_plain.candidates [ [ 0; 1 ]; [ 0; 2 ]; [ 1; 2 ] ]);
  (* {0,3} missing => {0,1,3} pruned. *)
  Alcotest.(check (list (list int))) "prune"
    []
    (Apriori_plain.candidates [ [ 0; 1 ]; [ 1; 3 ] ])

let test_frequent_itemsets_exact () =
  let got = Apriori_plain.frequent_itemsets ~minsup:4 tiny in
  (* Brute-force oracle over all itemsets up to size 4. *)
  let m = 5 in
  let rec subsets start acc =
    if List.length acc = 4 then [ List.rev acc ]
    else begin
      let here = if acc = [] then [] else [ List.rev acc ] in
      here
      @ List.concat_map
          (fun j -> subsets (j + 1) (j :: acc))
          (List.init (m - start) (fun i -> start + i))
    end
  in
  let all = List.sort_uniq compare (subsets 0 []) in
  let expected =
    List.filter_map
      (fun s ->
        if s = [] then None
        else begin
          let sup = Apriori_plain.support s tiny in
          if sup >= 4 then Some (s, sup) else None
        end)
      all
    |> List.sort (fun (a, _) (b, _) ->
           compare (List.length a, a) (List.length b, b))
  in
  Alcotest.(check (list (pair (list int) int))) "matches brute force" expected got

let test_frequent_minsup_boundaries () =
  let all = Apriori_plain.frequent_itemsets ~minsup:1 tiny in
  Alcotest.(check bool) "minsup=1 finds plenty" true (List.length all > 10);
  Alcotest.(check (list (pair (list int) int))) "impossible minsup" []
    (Apriori_plain.frequent_itemsets ~minsup:10 tiny);
  Alcotest.check_raises "minsup=0" (Invalid_argument "Apriori_plain: minsup < 1")
    (fun () -> ignore (Apriori_plain.frequent_itemsets ~minsup:0 tiny));
  Alcotest.check_raises "non-binary" (Invalid_argument "Apriori_plain: transactions must be 0/1")
    (fun () -> ignore (Apriori_plain.frequent_itemsets ~minsup:1 [| [| 2 |] |]))

let test_max_size_cap () =
  let capped = Apriori_plain.frequent_itemsets ~max_size:1 ~minsup:2 tiny in
  Alcotest.(check bool) "only singletons" true
    (List.for_all (fun (s, _) -> List.length s = 1) capped)

(* ------------------------------------------------------------------ *)
(* Secure                                                              *)
(* ------------------------------------------------------------------ *)

let test_secure_matches_textbook () =
  let dep = Apriori.deploy ~rng:(Rng.of_int 41) (Config.standard ()) ~transactions:tiny in
  Alcotest.(check int) "items" 5 (Apriori.item_count dep);
  Alcotest.(check int) "transactions" 9 (Apriori.transaction_count dep);
  List.iter
    (fun minsup ->
      let r = Apriori.mine ~rng:(Rng.of_int (43 + minsup)) dep ~minsup in
      Alcotest.(check bool) (Printf.sprintf "minsup=%d" minsup) true
        (Apriori.matches_plaintext ~transactions:tiny ~minsup r))
    [ 2; 4; 6; 9 ]

let test_secure_planted_pattern () =
  let tx = planted 47 ~n:300 ~m:10 ~p_noise:0.1 ~p_pattern:0.5 in
  let minsup = 100 in
  let dep = Apriori.deploy ~rng:(Rng.of_int 47) (Config.standard ()) ~transactions:tx in
  let r = Apriori.mine ~rng:(Rng.of_int 48) dep ~minsup in
  Alcotest.(check bool) "matches plaintext" true
    (Apriori.matches_plaintext ~transactions:tx ~minsup r);
  Alcotest.(check bool) "planted triple found" true
    (List.mem [ 0; 1; 2 ] r.Apriori.frequent)

let test_secure_spans_blocks () =
  (* More transactions than ring slots, exercising block handling. *)
  let tx = planted 53 ~n:150 ~m:6 ~p_noise:0.2 ~p_pattern:0.6 in
  let minsup = 60 in
  let dep = Apriori.deploy ~rng:(Rng.of_int 53) (Config.standard ()) ~transactions:tx in
  let r = Apriori.mine ~rng:(Rng.of_int 54) dep ~minsup in
  Alcotest.(check bool) "matches across blocks" true
    (Apriori.matches_plaintext ~transactions:tx ~minsup r)

let test_secure_leakage_shape () =
  let tx = planted 59 ~n:100 ~m:8 ~p_noise:0.15 ~p_pattern:0.5 in
  let dep = Apriori.deploy ~rng:(Rng.of_int 59) (Config.standard ()) ~transactions:tx in
  let r = Apriori.mine ~rng:(Rng.of_int 60) dep ~minsup:40 in
  (* B's decryption count equals the ciphertexts sent, i.e. candidates x
     blocks — never n x candidates. *)
  let blocks = (100 + 63) / 64 in
  let expected = blocks * Array.fold_left ( + ) 0 r.Apriori.level_candidates in
  Alcotest.(check int) "B decryptions = candidates * blocks" expected
    (Util.Counters.decryptions r.Apriori.counters_b);
  Alcotest.(check bool) "A performed the multiplications" true
    (Util.Counters.hom_muls r.Apriori.counters_a > 0);
  Alcotest.(check bool) "per-level counts consistent" true
    (Array.for_all2 ( >= ) r.Apriori.level_candidates r.Apriori.level_frequent)

let test_secure_rotations_variant () =
  (* The Galois rotate-and-sum variant returns the same answer with one
     scalar ciphertext per candidate. *)
  let tx = planted 61 ~n:200 ~m:8 ~p_noise:0.15 ~p_pattern:0.5 in
  let minsup = 80 in
  let dep = Apriori.deploy ~rng:(Rng.of_int 61) (Config.standard ()) ~transactions:tx in
  let r_basic = Apriori.mine ~rng:(Rng.of_int 62) dep ~minsup in
  let r_rot = Apriori.mine ~rng:(Rng.of_int 63) ~use_rotations:true dep ~minsup in
  Alcotest.(check bool) "rotation variant matches plaintext" true
    (Apriori.matches_plaintext ~transactions:tx ~minsup r_rot);
  Alcotest.(check bool) "variants agree" true
    (r_basic.Apriori.frequent = r_rot.Apriori.frequent);
  (* One ciphertext per candidate vs blocks per candidate: B decrypts
     fewer values and the A->B link carries fewer bytes. *)
  Alcotest.(check bool) "fewer B decryptions" true
    (Util.Counters.decryptions r_rot.Apriori.counters_b
     < Util.Counters.decryptions r_basic.Apriori.counters_b
       * (200 + 63) / 64);
  Alcotest.(check bool) "less A->B traffic" true
    (Transcript.bytes_between r_rot.Apriori.transcript Transcript.Party_a Transcript.Party_b
     < Transcript.bytes_between r_basic.Apriori.transcript Transcript.Party_a
         Transcript.Party_b)

(* B's ciphertexts carry no trace of A's secret scale a: candidates
   masked under different seeds, so different a, give equal noise
   bounds and headers in both variants.  Charged at the drawn width, a
   moved the bound by log2 a, and B could divide it out of
   a·(support − minsup). *)
let test_secure_scale_hidden () =
  let dep = Apriori.deploy ~rng:(Rng.of_int 71) (Config.standard ()) ~transactions:tiny in
  List.iter
    (fun use_rotations ->
      let meta seed =
        let cts, _ = Apriori.masked_support ~use_rotations dep (Rng.of_int seed) ~minsup:3 [ 0; 1 ] in
        Array.map (fun c -> (Bgv.noise_bits c, Bytes.sub (Bgv.ct_to_bytes c) 0 40)) cts
      in
      let reference = meta 72 in
      List.iter
        (fun seed ->
          Alcotest.(check bool)
            (Printf.sprintf "rotations=%b, seed %d: same noise bits and header" use_rotations seed)
            true (meta seed = reference))
        [ 73; 74; 75 ])
    [ false; true ]

let test_secure_validation () =
  Alcotest.check_raises "non-binary" (Invalid_argument "Apriori.deploy: bits must be 0/1")
    (fun () -> ignore (Apriori.deploy (Config.standard ()) ~transactions:[| [| 3 |] |]));
  Alcotest.check_raises "empty" (Invalid_argument "Apriori.deploy: no transactions")
    (fun () -> ignore (Apriori.deploy (Config.standard ()) ~transactions:[||]));
  let dep = Apriori.deploy (Config.standard ()) ~transactions:tiny in
  Alcotest.check_raises "minsup" (Invalid_argument "Apriori.mine: minsup < 1")
    (fun () -> ignore (Apriori.mine dep ~minsup:0))

let () =
  Alcotest.run "apriori"
    [ ("plain",
       [ Alcotest.test_case "support" `Quick test_support;
         Alcotest.test_case "singletons" `Quick test_singletons;
         Alcotest.test_case "candidate join/prune" `Quick test_candidates_join;
         Alcotest.test_case "vs brute force" `Quick test_frequent_itemsets_exact;
         Alcotest.test_case "minsup boundaries" `Quick test_frequent_minsup_boundaries;
         Alcotest.test_case "max_size cap" `Quick test_max_size_cap ]);
      ("secure",
       [ Alcotest.test_case "textbook instance" `Quick test_secure_matches_textbook;
         Alcotest.test_case "planted pattern" `Quick test_secure_planted_pattern;
         Alcotest.test_case "spans blocks" `Quick test_secure_spans_blocks;
         Alcotest.test_case "leakage shape" `Quick test_secure_leakage_shape;
         Alcotest.test_case "rotation variant" `Quick test_secure_rotations_variant;
         Alcotest.test_case "scale hidden from B" `Quick test_secure_scale_hidden;
         Alcotest.test_case "validation" `Quick test_secure_validation ]) ]
