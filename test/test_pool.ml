(* The domain work-pool underpins every parallel protocol phase; these
   tests pin down the contract the protocol layer relies on: ordered
   results, jobs-independence, exception propagation, and exact
   worker-state merging. *)

module Pool = Util.Pool
module Counters = Util.Counters

let test_map_ordered () =
  let a = Array.init 103 (fun i -> i) in
  let expected = Array.map (fun x -> (x * x) + 1) a in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "map jobs=%d" jobs)
        expected
        (Pool.map ~jobs (fun x -> (x * x) + 1) a))
    [ 1; 2; 3; 4; 7; 64 ]

let test_mapi_init_ordered () =
  let a = Array.init 57 (fun i -> 2 * i) in
  let expected = Array.mapi (fun i x -> (i, x) ) a in
  Alcotest.(check (array (pair int int)))
    "mapi" expected
    (Pool.mapi ~jobs:4 (fun i x -> (i, x)) a);
  Alcotest.(check (array int))
    "init" (Array.init 57 (fun i -> i * 3))
    (Pool.init ~jobs:4 57 (fun i -> i * 3))

let test_jobs_equivalence () =
  (* jobs=1 runs in the calling domain; any other count must produce the
     same array, element for element. *)
  let a = Array.init 64 (fun i -> i) in
  let f i x = (i * 31) lxor (x * 7) in
  let seq = Pool.mapi ~jobs:1 f a in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d = jobs=1" jobs)
        seq
        (Pool.mapi ~jobs f a))
    [ 2; 3; 5; 8; 63; 64 ]

let test_empty_and_singleton () =
  Alcotest.(check (array int)) "empty" [||] (Pool.map ~jobs:4 (fun x -> x) [||]);
  Alcotest.(check (array int)) "singleton" [| 9 |] (Pool.map ~jobs:4 (fun x -> x + 8) [| 1 |]);
  Alcotest.(check (array int)) "init 0" [||] (Pool.init ~jobs:4 0 (fun i -> i))

exception Boom of int

let test_exception_propagation () =
  let failing jobs =
    try
      ignore (Pool.map ~jobs (fun x -> if x = 13 then raise (Boom x) else x)
                (Array.init 20 (fun i -> i)));
      None
    with Boom i -> Some i
  in
  Alcotest.(check (option int)) "sequential" (Some 13) (failing 1);
  Alcotest.(check (option int)) "parallel" (Some 13) (failing 4)

let test_exception_lowest_chunk () =
  (* Failures at indices 3 (chunk 1) and 7 (chunk 3) with 4 workers over
     8 elements: the lowest-indexed failing chunk's exception wins. *)
  let got =
    try
      ignore (Pool.map ~jobs:4
                (fun x -> if x = 3 || x = 7 then raise (Boom x) else x)
                (Array.init 8 (fun i -> i)));
      None
    with Boom i -> Some i
  in
  Alcotest.(check (option int)) "lowest failing chunk" (Some 3) got

let test_map_local_counter_merge () =
  (* Per-worker Counters absorbed after the join must give totals that
     do not depend on the job count — the protocol's exactness claim. *)
  let run jobs =
    let total = Counters.create () in
    let out =
      Pool.map_local ~jobs ~make:Counters.create
        ~merge:(fun w -> Counters.absorb ~into:total w)
        ~f:(fun w i x ->
          Counters.record_op w Counters.Op_encrypt ~level:2;
          Counters.record_op_n w Counters.Op_ct_add ~level:2 3;
          Counters.record w (Counters.Bytes_sent x);
          i + x)
        (Array.init 37 (fun i -> i * 2))
    in
    (out, Counters.encryptions total, Counters.hom_adds total, Counters.bytes_sent total)
  in
  let out1, e1, a1, b1 = run 1 in
  let out4, e4, a4, b4 = run 4 in
  Alcotest.(check (array int)) "results" out1 out4;
  Alcotest.(check int) "encrypts jobs=1" 37 e1;
  Alcotest.(check int) "encrypts jobs=4" 37 e4;
  Alcotest.(check int) "adds jobs=1" (3 * 37) a1;
  Alcotest.(check int) "adds jobs=4" (3 * 37) a4;
  Alcotest.(check int) "bytes equal" b1 b4

let test_merge_worker_order () =
  (* merge is called in worker order, in the calling domain. *)
  let firsts = ref [] in
  ignore
    (Pool.map_local ~jobs:4
       ~make:(fun () -> ref (-1))
       ~merge:(fun w -> firsts := !w :: !firsts)
       ~f:(fun w i x ->
         if !w < 0 then w := i;
         x)
       (Array.init 16 (fun i -> i)));
  let order = List.rev !firsts in
  Alcotest.(check (list int)) "worker order" (List.sort compare order) order;
  Alcotest.(check int) "all workers merged" 4 (List.length order)

let test_default_jobs_env () =
  (* SKNN_DOMAINS overrides the machine's recommended count. *)
  Unix.putenv "SKNN_DOMAINS" "3";
  Alcotest.(check int) "env override" 3 (Pool.default_jobs ());
  Unix.putenv "SKNN_DOMAINS" "garbage";
  Alcotest.(check int) "garbage falls back"
    (Stdlib.min (Domain.recommended_domain_count ()) 64)
    (Pool.default_jobs ());
  Unix.putenv "SKNN_DOMAINS" "0";
  Alcotest.(check int) "non-positive falls back"
    (Stdlib.min (Domain.recommended_domain_count ()) 64)
    (Pool.default_jobs ());
  Unix.putenv "SKNN_DOMAINS" ""

let test_invalid_jobs () =
  Alcotest.check_raises "jobs=0" (Invalid_argument "Pool: jobs < 1") (fun () ->
      ignore (Pool.map ~jobs:0 (fun x -> x) [| 1; 2 |]))

let () =
  Alcotest.run "pool"
    [ ("ordering",
       [ Alcotest.test_case "map ordered" `Quick test_map_ordered;
         Alcotest.test_case "mapi/init ordered" `Quick test_mapi_init_ordered;
         Alcotest.test_case "jobs equivalence" `Quick test_jobs_equivalence;
         Alcotest.test_case "empty and singleton" `Quick test_empty_and_singleton ]);
      ("exceptions",
       [ Alcotest.test_case "propagation" `Quick test_exception_propagation;
         Alcotest.test_case "lowest chunk wins" `Quick test_exception_lowest_chunk;
         Alcotest.test_case "invalid jobs" `Quick test_invalid_jobs ]);
      ("state",
       [ Alcotest.test_case "counter merge" `Quick test_map_local_counter_merge;
         Alcotest.test_case "merge order" `Quick test_merge_worker_order ]);
      ("config",
       [ Alcotest.test_case "SKNN_DOMAINS" `Quick test_default_jobs_env ]) ]
