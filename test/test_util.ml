(* Tests for the shared substrate: deterministic RNG, permutations,
   counters, timing, float matrices and the JSON codec. *)

module Rng = Util.Rng
module Perm = Util.Perm
module Counters = Util.Counters
module Matf = Util.Matf
module Topk = Util.Topk
module Json = Util.Json

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.of_int 42 and b = Rng.of_int 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_copy_vs_split () =
  let a = Rng.of_int 7 in
  let c = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 c);
  let a = Rng.of_int 7 in
  let s = Rng.split a in
  Alcotest.(check bool) "split diverges" true (Rng.bits64 a <> Rng.bits64 s)

let test_rng_ranges () =
  let r = Rng.of_int 11 in
  for _ = 1 to 1000 do
    let v = Rng.int_below r 17 in
    Alcotest.(check bool) "int_below" true (v >= 0 && v < 17);
    let v = Rng.int_range r (-5) 5 in
    Alcotest.(check bool) "int_range" true (v >= -5 && v <= 5);
    let f = Rng.float r in
    Alcotest.(check bool) "float" true (f >= 0.0 && f < 1.0)
  done;
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int_below: bound <= 0")
    (fun () -> ignore (Rng.int_below r 0))

let test_rng_int64_below_uniformish () =
  (* Coarse uniformity: each of 8 buckets within 30% of the mean. *)
  let r = Rng.of_int 13 in
  let buckets = Array.make 8 0 in
  let samples = 16000 in
  for _ = 1 to samples do
    let v = Rng.int64_below r 8L in
    buckets.(Int64.to_int v) <- buckets.(Int64.to_int v) + 1
  done;
  let mean = samples / 8 in
  Array.iteri
    (fun i c ->
      Alcotest.(check bool) (Printf.sprintf "bucket %d balanced (%d)" i c) true
        (abs (c - mean) < mean * 3 / 10))
    buckets

let test_rng_gaussian_moments () =
  let r = Rng.of_int 17 in
  let n = 20000 in
  let sum = ref 0.0 and sumsq = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.gaussian r ~mu:10.0 ~sigma:2.0 in
    sum := !sum +. x;
    sumsq := !sumsq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check (float 0.1)) "mean" 10.0 mean;
  Alcotest.(check (float 0.3)) "variance" 4.0 var

let test_rng_bytes () =
  let r = Rng.of_int 19 in
  let b = Rng.bytes r 100 in
  Alcotest.(check int) "length" 100 (Bytes.length b);
  Alcotest.(check bool) "not all equal" true
    (let first = Bytes.get b 0 in
     not (String.for_all (Char.equal first) (Bytes.to_string b)))

(* ------------------------------------------------------------------ *)
(* Perm                                                                *)
(* ------------------------------------------------------------------ *)

let test_perm_identity () =
  let p = Perm.identity 5 in
  Alcotest.(check int) "size" 5 (Perm.size p);
  Alcotest.(check (array int)) "apply id" [| 10; 20; 30; 40; 50 |]
    (Perm.apply p [| 10; 20; 30; 40; 50 |])

let test_perm_random_bijection () =
  let rng = Rng.of_int 23 in
  for n = 1 to 30 do
    let p = Perm.random rng n in
    ignore (Perm.of_array (Perm.to_array p)) (* validates bijectivity *)
  done

let test_perm_apply_inverse () =
  let rng = Rng.of_int 29 in
  for _ = 1 to 50 do
    let n = 1 + Rng.int_below rng 40 in
    let p = Perm.random rng n in
    let a = Array.init n (fun i -> i * 3) in
    let roundtrip = Perm.apply (Perm.inverse p) (Perm.apply p a) in
    Alcotest.(check (array int)) "inverse undoes" a roundtrip
  done

let test_perm_apply_semantics () =
  (* apply places element i at position p(i). *)
  let p = Perm.of_array [| 2; 0; 1 |] in
  Alcotest.(check (array int)) "placement" [| 20; 30; 10 |]
    (Perm.apply p [| 10; 20; 30 |]);
  Alcotest.(check int) "apply_index" 2 (Perm.apply_index p 0)

let test_perm_compose () =
  let rng = Rng.of_int 31 in
  let p = Perm.random rng 12 and q = Perm.random rng 12 in
  let a = Array.init 12 (fun i -> i) in
  Alcotest.(check (array int)) "compose = sequential apply"
    (Perm.apply p (Perm.apply q a))
    (Perm.apply (Perm.compose p q) a)

let test_perm_validation () =
  Alcotest.check_raises "not a bijection" (Invalid_argument "Perm.of_array: not a bijection")
    (fun () -> ignore (Perm.of_array [| 0; 0 |]));
  Alcotest.check_raises "out of range" (Invalid_argument "Perm.of_array: not a bijection")
    (fun () -> ignore (Perm.of_array [| 0; 5 |]));
  Alcotest.check_raises "size mismatch" (Invalid_argument "Perm.apply: size mismatch")
    (fun () -> ignore (Perm.apply (Perm.identity 3) [| 1 |]))

let test_perm_uniformity () =
  (* Over many draws of S_3, each of the 6 permutations appears. *)
  let rng = Rng.of_int 37 in
  let seen = Hashtbl.create 6 in
  for _ = 1 to 600 do
    Hashtbl.replace seen (Perm.to_array (Perm.random rng 3)) ()
  done;
  Alcotest.(check int) "all of S_3 reached" 6 (Hashtbl.length seen)

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Topk                                                                *)
(* ------------------------------------------------------------------ *)

(* Literal transcription of Algorithm 2's streaming scan (the code the
   heap replaced): seed NN with the first k values, then replace the
   running maximum — the first maximum found, scanning left to right —
   on strict improvement.  Topk.smallest must reproduce its slot table
   bit for bit, ties and all. *)
let naive_smallest ~k xs =
  let nn = Array.sub xs 0 k in
  let idx = Array.init k (fun i -> i) in
  for i = k to Array.length xs - 1 do
    let mx = ref 0 in
    for j = 1 to k - 1 do
      if Int64.compare nn.(j) nn.(!mx) > 0 then mx := j
    done;
    if Int64.compare xs.(i) nn.(!mx) < 0 then begin
      nn.(!mx) <- xs.(i);
      idx.(!mx) <- i
    end
  done;
  idx

let test_topk_edges () =
  let check name ~k xs =
    Alcotest.(check (array int)) name (naive_smallest ~k xs) (Topk.smallest ~k xs)
  in
  check "k=1 ascending" ~k:1 [| 5L; 4L; 3L; 2L; 1L |];
  check "k=n" ~k:5 [| 5L; 4L; 3L; 2L; 1L |];
  check "all equal" ~k:3 [| 7L; 7L; 7L; 7L; 7L; 7L |];
  check "descending" ~k:4 [| 9L; 8L; 7L; 6L; 5L; 4L; 3L |];
  check "negative values" ~k:2 [| 0L; -3L; 5L; -3L; 2L |];
  check "singleton" ~k:1 [| 42L |]

let prop_topk_matches_naive ~name gen_value =
  QCheck.Test.make ~count:1000 ~name
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 80))
    (fun (seed, n) ->
      let rng = Rng.of_int seed in
      let k = 1 + Rng.int_below rng n in
      let xs = Array.init n (fun _ -> gen_value rng) in
      Topk.smallest ~k xs = naive_smallest ~k xs)

let prop_topk_ties =
  (* Values drawn from {0..4}: duplicates everywhere, so any divergence
     in tie or eviction order from the naive scan shows up here. *)
  prop_topk_matches_naive ~name:"Topk = naive scan (heavy ties)" (fun rng ->
      Int64.of_int (Rng.int_below rng 5))

let prop_topk_wide =
  prop_topk_matches_naive ~name:"Topk = naive scan (wide range)" (fun rng ->
      Int64.sub (Rng.int64_below rng 2_000_000L) 1_000_000L)

let test_topk_validation () =
  Alcotest.check_raises "k=0" (Invalid_argument "Topk.smallest: k out of range")
    (fun () -> ignore (Topk.smallest ~k:0 [| 1L |]));
  Alcotest.check_raises "k>n" (Invalid_argument "Topk.smallest: k out of range")
    (fun () -> ignore (Topk.smallest ~k:2 [| 1L |]))

let test_counters_record_and_merge () =
  let c = Counters.create () in
  List.iter
    (fun op -> Counters.record_op c op ~level:3)
    Counters.
      [ Op_encrypt; Op_decrypt; Op_ct_add; Op_ct_mul; Op_mul_plain; Op_modswitch;
        Op_key_switch ];
  Counters.record c Counters.Round;
  Counters.record c (Counters.Bytes_sent 100);
  Alcotest.(check int) "hom_total" 5 (Counters.hom_total c);
  Alcotest.(check int) "bytes" 100 (Counters.bytes_sent c);
  Alcotest.(check int) "rounds" 1 (Counters.rounds c);
  let d = Counters.merge c c in
  Alcotest.(check int) "merge doubles" 10 (Counters.hom_total d);
  Alcotest.(check int) "merge source intact" 5 (Counters.hom_total c);
  Counters.reset c;
  Alcotest.(check int) "reset" 0 (Counters.hom_total c + Counters.encryptions c)

let test_counters_copy_diff () =
  let c = Counters.create () in
  Counters.record_op c Counters.Op_encrypt ~level:4;
  Counters.record c (Counters.Bytes_sent 64);
  let snap = Counters.copy c in
  Counters.record_op c Counters.Op_encrypt ~level:4;
  Counters.record_op c Counters.Op_ct_mul ~level:4;
  Counters.record c (Counters.Bytes_sent 36);
  Alcotest.(check int) "snapshot unaffected" 1 (Counters.encryptions snap);
  let d = Counters.diff c snap in
  Alcotest.(check int) "delta encryptions" 1 (Counters.encryptions d);
  Alcotest.(check int) "delta muls" 1 (Counters.hom_muls d);
  Alcotest.(check int) "delta bytes" 36 (Counters.bytes_sent d);
  Alcotest.(check bool) "delta nonzero" false (Counters.is_zero d);
  Alcotest.(check bool) "self-diff zero" true (Counters.is_zero (Counters.diff c c));
  Alcotest.(check bool) "fresh is zero" true (Counters.is_zero (Counters.create ()))

let test_counters_to_list () =
  let c = Counters.create () in
  Counters.record_op_n c Counters.Op_ct_add ~level:2 3;
  Counters.record c (Counters.Bytes_sent 9);
  let l = Counters.to_list c in
  Alcotest.(check int) "field count" 9 (List.length l);
  Alcotest.(check int) "hom_adds" 3 (List.assoc "hom_adds" l);
  Alcotest.(check int) "bytes_sent" 9 (List.assoc "bytes_sent" l);
  Alcotest.(check int) "untouched field" 0 (List.assoc "decryptions" l)

let test_timer () =
  let x, dt = Util.Timer.time (fun () -> 42) in
  Alcotest.(check int) "result" 42 x;
  Alcotest.(check bool) "non-negative" true (dt >= 0.0);
  let s d = Format.asprintf "%a" Util.Timer.pp_duration d in
  Alcotest.(check string) "ms" "500 ms" (s 0.5);
  Alcotest.(check string) "s" "45.0 s" (s 45.0);
  Alcotest.(check string) "min" "2 min 45 s" (s 165.0);
  (* Sub-millisecond durations get their own tier instead of "0 ms". *)
  Alcotest.(check string) "µs" "390 µs" (s 0.00039);
  Alcotest.(check string) "µs edge" "999 µs" (s 0.000999)

let test_timer_counter_monotonic () =
  let prev = ref (Util.Timer.counter ()) in
  for _ = 1 to 1000 do
    let t = Util.Timer.counter () in
    Alcotest.(check bool) "non-decreasing" true (t >= !prev);
    prev := t
  done

(* ------------------------------------------------------------------ *)
(* Matf                                                                *)
(* ------------------------------------------------------------------ *)

let test_matf_basics () =
  let a = [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  Alcotest.(check (pair int int)) "dims" (2, 2) (Matf.dims a);
  let t = Matf.transpose a in
  Alcotest.(check (float 0.0)) "transpose" 3.0 t.(0).(1);
  let prod = Matf.mul a (Matf.identity 2) in
  Alcotest.(check (float 1e-12)) "mul identity" 0.0 (Matf.max_abs_diff prod a);
  Alcotest.(check (float 1e-12)) "dot" 11.0 (Matf.dot [| 1.0; 2.0 |] [| 3.0; 4.0 |])

let test_matf_inverse () =
  let rng = Rng.of_int 41 in
  for n = 1 to 8 do
    let m = Matf.random rng n in
    let err = Matf.max_abs_diff (Matf.mul m (Matf.inverse m)) (Matf.identity n) in
    Alcotest.(check bool) (Printf.sprintf "n=%d inverse" n) true (err < 1e-6)
  done;
  Alcotest.(check bool) "singular raises" true
    (try ignore (Matf.inverse [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |]); false
     with Failure _ -> true)

let test_matf_solve () =
  let m = [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let x = Matf.solve m [| 5.0; 10.0 |] in
  Alcotest.(check (float 1e-9)) "x0" 1.0 x.(0);
  Alcotest.(check (float 1e-9)) "x1" 3.0 x.(1)

let prop_matf_mulvec_linear =
  QCheck.Test.make ~count:100 ~name:"M(u+v) = Mu + Mv"
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.of_int seed in
      let n = 1 + Rng.int_below rng 6 in
      let m = Matf.random rng n in
      let u = Array.init n (fun _ -> Rng.float rng) in
      let v = Array.init n (fun _ -> Rng.float rng) in
      let lhs = Matf.mul_vec m (Array.init n (fun i -> u.(i) +. v.(i))) in
      let mu = Matf.mul_vec m u and mv = Matf.mul_vec m v in
      Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-9) lhs
        (Array.init n (fun i -> mu.(i) +. mv.(i))))

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

(* Structural equality with floats compared bit for bit, so -0.0 and
   0.0 differ and a printed float must read back to the same double. *)
let rec json_equal a b =
  match (a, b) with
  | Json.Float x, Json.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Json.List xs, Json.List ys -> List.equal json_equal xs ys
  | Json.Obj xs, Json.Obj ys ->
    List.equal (fun (k, x) (l, y) -> String.equal k l && json_equal x y) xs ys
  | _ -> a = b

let json_testable = Alcotest.testable (Fmt.of_to_string Json.to_string) json_equal

let gen_json =
  let open QCheck.Gen in
  let str =
    let piece =
      oneof
        [ map (String.make 1) (map Char.chr (int_range 0 0x1f));
          oneofl [ "\""; "\\"; "/"; "\xc3\xa9"; "\xe2\x82\xac"; "\xf0\x9d\x84\x9e" ];
          string_size ~gen:printable (int_range 0 4);
          map (String.make 1) char ]
    in
    map (String.concat "") (list_size (int_range 0 6) piece)
  in
  let int = oneof [ oneofl [ min_int; max_int; 0; -1 ]; int ] in
  let finite f = if Float.is_finite f then f else 0.5 in
  let float =
    oneof
      [ oneofl [ 0.0; -0.0; 0.1; 5e-324; 2.2250738585072e-308; Float.max_float; 2.0; 1e15 ];
        map (fun bits -> finite (Int64.float_of_bits bits)) ui64 ]
  in
  let leaf =
    oneof
      [ return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        map (fun f -> Json.Float f) float;
        map (fun s -> Json.Str s) str ]
  in
  sized_size (int_range 0 3)
  @@ fix (fun self depth ->
         if depth = 0 then leaf
         else
           frequency
             [ (2, leaf);
               (1, map (fun l -> Json.List l) (list_size (int_range 0 4) (self (depth - 1))));
               ( 1,
                 map
                   (fun l -> Json.Obj l)
                   (list_size (int_range 0 4) (pair str (self (depth - 1)))) ) ])

let prop_json_round_trip =
  QCheck.Test.make ~count:500 ~name:"json: parse (print v) = v"
    (QCheck.make ~print:Json.to_string gen_json)
    (fun v ->
      match Json.of_string (Json.to_string v) with
      | Ok v' -> json_equal v v'
      | Error _ -> false)

(* The parser's independent oracle: literal inputs with the values they
   must parse to, and one input per strictness rule that must fail. *)
let test_json_corpus () =
  let ok =
    [ ("null", Json.Null);
      ("true", Json.Bool true);
      ("false", Json.Bool false);
      ("0", Json.Int 0);
      ("-0", Json.Int 0);
      ("-17", Json.Int (-17));
      ("4611686018427387903", Json.Int max_int);
      ("-4611686018427387904", Json.Int min_int);
      ("4611686018427387904", Json.Float 4611686018427387904.0);
      ("1.5", Json.Float 1.5);
      ("-0.0", Json.Float (-0.0));
      ("1e3", Json.Float 1000.0);
      ("2.5E-3", Json.Float 0.0025);
      ("1e+2", Json.Float 100.0);
      ({|""|}, Json.Str "");
      ({|"a\"b\\c\/d"|}, Json.Str "a\"b\\c/d");
      ({|"\b\f\n\r\t"|}, Json.Str "\b\012\n\r\t");
      ({|"Aé\u0000"|}, Json.Str "A\xc3\xa9\x00");
      ({|"𝄞"|}, Json.Str "\xf0\x9d\x84\x9e");
      ("\"\xe2\x82\xac\"", Json.Str "\xe2\x82\xac");
      (" [ 1 ,\t\"x\" ,\r\n[ ] , { } ] ", Json.(List [ Int 1; Str "x"; List []; Obj [] ]));
      ({|{"a":1,"a":{"b":null}}|}, Json.(Obj [ ("a", Int 1); ("a", Obj [ ("b", Null) ]) ]))
    ]
  in
  List.iter
    (fun (text, want) ->
      match Json.of_string text with
      | Ok got -> Alcotest.check json_testable text want got
      | Error msg -> Alcotest.failf "%S rejected: %s" text msg)
    ok;
  let bad =
    [ "[1,]"; {|{"a":1,}|}; "nan"; "NaN"; "Infinity"; "-Infinity"; "+1"; "01"; "-01";
      "\"a\nb\""; "\"\x01\""; {|"\x"|}; {|"\u00g0"|}; {|"\ud800"|}; {|"\udc00x"|};
      "1 2"; "{} x"; ""; "1."; ".5"; "-"; "1e"; "1e400"; "[1"; {|{"a"}|}; "{a:1}";
      "'a'"; "tru"; "nul" ]
  in
  List.iter
    (fun text ->
      match Json.of_string text with
      | Ok v -> Alcotest.failf "%S accepted as %s" text (Json.to_string v)
      | Error _ -> ())
    bad

let test_json_printer () =
  List.iter
    (fun (want, v) -> Alcotest.(check string) want want (Json.to_string v))
    [ ("2.0", Json.Float 2.0);
      ("0.1", Json.Float 0.1);
      ("-0.0", Json.Float (-0.0));
      ("1e+20", Json.Float 1e20);
      ("4.94065645841247e-324", Json.Float 5e-324);
      ("0.30000000000000004", Json.Float (0.1 +. 0.2));
      ("-4611686018427387904", Json.Int min_int);
      ({|"q\"b\\n\nu\u0001"|}, Json.Str "q\"b\\n\nu\x01");
      ({|{"z":[true,null],"a":{}}|}, Json.(Obj [ ("z", List [ Bool true; Null ]); ("a", Obj []) ]))
    ];
  let controls = Json.to_string (Json.Str (String.init 0x20 Char.chr)) in
  Alcotest.(check bool) "no raw control byte printed" true
    (String.for_all (fun c -> Char.code c >= 0x20) controls);
  List.iter
    (fun f ->
      Alcotest.check_raises (Printf.sprintf "%h raises" f)
        (Invalid_argument "Util.Json: non-finite float") (fun () ->
          ignore (Json.to_string (Json.List [ Json.Float f ]))))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  let v = Json.(Obj [ ("n", Int 3); ("x", Float 0.5); ("s", Str "y") ]) in
  Alcotest.(check (option (float 0.0))) "int member as number" (Some 3.0)
    (Option.bind (Json.member "n" v) Json.number);
  Alcotest.(check (option (float 0.0))) "float member as number" (Some 0.5)
    (Option.bind (Json.member "x" v) Json.number);
  Alcotest.(check (option (float 0.0))) "string is no number" None
    (Option.bind (Json.member "s" v) Json.number);
  Alcotest.(check bool) "missing member" true (Json.member "q" v = None)

let () =
  Alcotest.run "util"
    [ ("rng",
       [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
         Alcotest.test_case "copy vs split" `Quick test_rng_copy_vs_split;
         Alcotest.test_case "ranges" `Quick test_rng_ranges;
         Alcotest.test_case "uniformity" `Quick test_rng_int64_below_uniformish;
         Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
         Alcotest.test_case "bytes" `Quick test_rng_bytes ]);
      ("perm",
       [ Alcotest.test_case "identity" `Quick test_perm_identity;
         Alcotest.test_case "random bijection" `Quick test_perm_random_bijection;
         Alcotest.test_case "inverse" `Quick test_perm_apply_inverse;
         Alcotest.test_case "apply semantics" `Quick test_perm_apply_semantics;
         Alcotest.test_case "compose" `Quick test_perm_compose;
         Alcotest.test_case "validation" `Quick test_perm_validation;
         Alcotest.test_case "covers S_3" `Quick test_perm_uniformity ]);
      ("counters",
       [ Alcotest.test_case "record/merge/reset" `Quick test_counters_record_and_merge;
         Alcotest.test_case "copy/diff/is_zero" `Quick test_counters_copy_diff;
         Alcotest.test_case "to_list" `Quick test_counters_to_list;
         Alcotest.test_case "timer" `Quick test_timer;
         Alcotest.test_case "timer counter" `Quick test_timer_counter_monotonic ]);
      ("topk",
       [ Alcotest.test_case "edge cases vs naive" `Quick test_topk_edges;
         Alcotest.test_case "validation" `Quick test_topk_validation ]);
      ("matf",
       [ Alcotest.test_case "basics" `Quick test_matf_basics;
         Alcotest.test_case "inverse" `Quick test_matf_inverse;
         Alcotest.test_case "solve" `Quick test_matf_solve ]);
      ("json",
       [ Alcotest.test_case "fixed corpus" `Quick test_json_corpus;
         Alcotest.test_case "printer" `Quick test_json_printer;
         QCheck_alcotest.to_alcotest prop_json_round_trip ]);
      ("properties",
       List.map QCheck_alcotest.to_alcotest
         [ prop_matf_mulvec_linear; prop_topk_ties; prop_topk_wide ]) ]
