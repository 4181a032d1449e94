(* Tests for word-sized modular arithmetic, primality/factoring and the
   negacyclic NTTs. *)

module Z = Zint
module Rng = Util.Rng

(* Reference mulmod via exact bignums. *)
let ref_mulmod m a b =
  let open Z in
  to_int_exn (erem (mul (of_int64 a) (of_int64 b)) (of_int64 m)) |> Int64.of_int

let test_mod64_basic () =
  Alcotest.(check int64) "add" 1L (Mod64.add 7L 3L 5L);
  Alcotest.(check int64) "sub wrap" 5L (Mod64.sub 7L 3L 5L);
  Alcotest.(check int64) "neg" 4L (Mod64.neg 7L 3L);
  Alcotest.(check int64) "neg zero" 0L (Mod64.neg 7L 0L);
  Alcotest.(check int64) "mul" 6L (Mod64.mul 7L 4L 5L);
  Alcotest.(check int64) "pow" 2L (Mod64.pow 7L 3L 2L);
  Alcotest.(check int64) "pow 0" 1L (Mod64.pow 7L 3L 0L);
  Alcotest.(check int64) "inv" 5L (Mod64.inv 7L 3L);
  Alcotest.(check int64) "reduce neg" 4L (Mod64.reduce 7L (-3L));
  Alcotest.(check int64) "centered small" 3L (Mod64.centered 7L 3L);
  Alcotest.(check int64) "centered big" (-3L) (Mod64.centered 7L 4L)

let test_mod64_mul_against_reference () =
  let rng = Rng.of_int 23 in
  (* Exercise both the float fast path (m < 2^50) and the ladder. *)
  let moduli =
    [ 7L; 65537L; 1099511627689L (* paper's p, ~2^40 *);
      1125899906842597L (* ~2^50 *); 2305843009213693951L (* 2^61-1 *) ]
  in
  List.iter
    (fun m ->
      for _ = 1 to 200 do
        let a = Rng.int64_below rng m and b = Rng.int64_below rng m in
        Alcotest.(check int64)
          (Printf.sprintf "mulmod m=%Ld" m)
          (ref_mulmod m a b) (Mod64.mul m a b)
      done)
    moduli

let test_mod64_inv_random () =
  let rng = Rng.of_int 29 in
  let m = 1099511627689L in
  for _ = 1 to 100 do
    let a = Int64.succ (Rng.int64_below rng (Int64.pred m)) in
    let inv = Mod64.inv m a in
    Alcotest.(check int64) "a * inv = 1" 1L (Mod64.mul m a inv)
  done

let test_is_prime_known () =
  let primes = [ 2L; 3L; 5L; 7L; 65537L; 1099511627689L; 2305843009213693951L;
                 1073479681L; 998244353L ] in
  let composites = [ 0L; 1L; 4L; 9L; 65541L; 1099511627691L;
                     3215031751L (* strong pseudoprime to bases 2,3,5,7 *);
                     341550071728321L ] in
  List.iter (fun p -> Alcotest.(check bool) (Int64.to_string p) true (Prime64.is_prime p)) primes;
  List.iter (fun c -> Alcotest.(check bool) (Int64.to_string c) false (Prime64.is_prime c)) composites

let test_is_prime_vs_trial_division () =
  let trial n =
    let n = Int64.to_int n in
    if n < 2 then false
    else begin
      let rec go d = d * d > n || (n mod d <> 0 && go (d + 1)) in
      go 2
    end
  in
  for n = 0 to 2000 do
    Alcotest.(check bool) (string_of_int n) (trial (Int64.of_int n))
      (Prime64.is_prime (Int64.of_int n))
  done

let test_factor () =
  let check n expected =
    Alcotest.(check (list (pair int64 int))) (Int64.to_string n) expected (Prime64.factor n)
  in
  check 1L [];
  check 2L [ (2L, 1) ];
  check 12L [ (2L, 2); (3L, 1) ];
  check 65537L [ (65537L, 1) ];
  check 1024L [ (2L, 10) ];
  check 1099511627688L [ (2L, 3); (3L, 2); (1487L, 1); (10269667L, 1) ]

let test_factor_reconstructs () =
  let rng = Rng.of_int 31 in
  for _ = 1 to 50 do
    let n = Int64.succ (Rng.int64_below rng 1000000000000L) in
    let factors = Prime64.factor n in
    let product =
      List.fold_left
        (fun acc (p, k) ->
          Alcotest.(check bool) (Printf.sprintf "%Ld prime" p) true (Prime64.is_prime p);
          let rec pow acc i = if i = 0 then acc else pow (Int64.mul acc p) (i - 1) in
          pow acc k)
        1L factors
    in
    Alcotest.(check int64) (Printf.sprintf "factor %Ld" n) n product
  done

let test_primitive_root () =
  List.iter
    (fun p ->
      let g = Prime64.primitive_root p in
      (* g^(p-1) = 1 and g^((p-1)/q) <> 1 for each prime factor q. *)
      Alcotest.(check int64) "fermat" 1L (Mod64.pow p g (Int64.pred p));
      List.iter
        (fun (q, _) ->
          Alcotest.(check bool) "strict order" true
            (not (Int64.equal 1L (Mod64.pow p g (Int64.div (Int64.pred p) q)))))
        (Prime64.factor (Int64.pred p)))
    [ 3L; 5L; 7L; 65537L; 998244353L; 1099511627689L ]

let test_root_of_unity () =
  let p = 998244353L in
  List.iter
    (fun order ->
      let w = Prime64.root_of_unity ~p ~order in
      Alcotest.(check int64) "w^order = 1" 1L (Mod64.pow p w order);
      Alcotest.(check bool) "w^(order/2) <> 1" true
        (not (Int64.equal 1L (Mod64.pow p w (Int64.div order 2L)))))
    [ 2L; 4L; 1024L; 8192L ];
  Alcotest.check_raises "bad order"
    (Failure "Prime64.root_of_unity: order does not divide p-1")
    (fun () -> ignore (Prime64.root_of_unity ~p:7L ~order:5L))

let test_find_ntt_prime () =
  let n = 1024 in
  let p = Prime64.find_ntt_prime ~congruent_mod:(Int64.of_int (2 * n)) ~bits:30 () in
  Alcotest.(check bool) "prime" true (Prime64.is_prime p);
  Alcotest.(check int64) "congruence" 1L (Int64.rem p (Int64.of_int (2 * n)) |> fun r -> r);
  Alcotest.(check bool) "< 2^30" true (Int64.compare p (Int64.shift_left 1L 30) < 0);
  let ps = Prime64.ntt_primes ~congruent_mod:(Int64.of_int (2 * n)) ~bits:30 ~count:5 in
  Alcotest.(check int) "count" 5 (List.length ps);
  let rec strictly_decreasing = function
    | a :: (b :: _ as rest) -> Int64.compare a b > 0 && strictly_decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "descending distinct" true (strictly_decreasing ps);
  List.iter
    (fun p ->
      Alcotest.(check bool) "each prime" true (Prime64.is_prime p);
      Alcotest.(check int64) "each = 1 mod 2n" 1L (Int64.rem p (Int64.of_int (2 * n))))
    ps

(* ------------------------------------------------------------------ *)
(* NTT                                                                 *)
(* ------------------------------------------------------------------ *)

(* Schoolbook negacyclic product in Z_p[x]/(x^n + 1). *)
let negacyclic_ref p a b =
  let n = Array.length a in
  let r = Array.make n 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let prod = a.(i) * b.(j) mod p in
      let k = i + j in
      if k < n then r.(k) <- (r.(k) + prod) mod p
      else begin
        let k = k - n in
        r.(k) <- ((r.(k) - prod) mod p + p) mod p
      end
    done
  done;
  r

let ntt_sizes = [ 4; 8; 64; 256; 1024 ]

let test_ntt_roundtrip () =
  let rng = Rng.of_int 37 in
  List.iter
    (fun n ->
      let p = Int64.to_int (Prime64.find_ntt_prime ~congruent_mod:(Int64.of_int (2 * n)) ~bits:30 ()) in
      let t = Ntt.make_table ~p ~n in
      Alcotest.(check int) "prime accessor" p (Ntt.prime t);
      Alcotest.(check int) "degree accessor" n (Ntt.degree t);
      let a = Array.init n (fun _ -> Rng.int_below rng p) in
      let c = Array.copy a in
      Ntt.forward t c;
      Ntt.inverse t c;
      Alcotest.(check (array int)) (Printf.sprintf "roundtrip n=%d" n) a c)
    ntt_sizes

let test_ntt_convolution () =
  let rng = Rng.of_int 41 in
  List.iter
    (fun n ->
      let p = Int64.to_int (Prime64.find_ntt_prime ~congruent_mod:(Int64.of_int (2 * n)) ~bits:28 ()) in
      let t = Ntt.make_table ~p ~n in
      let a = Array.init n (fun _ -> Rng.int_below rng p) in
      let b = Array.init n (fun _ -> Rng.int_below rng p) in
      let expected = negacyclic_ref p a b in
      let got = Ntt.negacyclic_mul t a b in
      Alcotest.(check (array int)) (Printf.sprintf "negacyclic n=%d" n) expected got)
    [ 4; 8; 64; 128 ]

let test_ntt_linearity () =
  let rng = Rng.of_int 43 in
  let n = 256 in
  let p = Int64.to_int (Prime64.find_ntt_prime ~congruent_mod:(Int64.of_int (2 * n)) ~bits:30 ()) in
  let t = Ntt.make_table ~p ~n in
  let a = Array.init n (fun _ -> Rng.int_below rng p) in
  let b = Array.init n (fun _ -> Rng.int_below rng p) in
  let sum = Array.init n (fun i -> (a.(i) + b.(i)) mod p) in
  let fa = Array.copy a and fb = Array.copy b and fs = Array.copy sum in
  Ntt.forward t fa;
  Ntt.forward t fb;
  Ntt.forward t fs;
  let fsum = Array.init n (fun i -> (fa.(i) + fb.(i)) mod p) in
  Alcotest.(check (array int)) "NTT(a+b) = NTT(a)+NTT(b)" fsum fs

let test_ntt_pointwise_acc () =
  let n = 8 in
  let p = Int64.to_int (Prime64.find_ntt_prime ~congruent_mod:(Int64.of_int (2 * n)) ~bits:20 ()) in
  let t = Ntt.make_table ~p ~n in
  let a = Array.init n (fun i -> i + 1) in
  let b = Array.init n (fun i -> (2 * i) + 1) in
  let acc = Array.make n 5 in
  Ntt.pointwise_mul_acc t acc a b;
  Array.iteri
    (fun i v -> Alcotest.(check int) "acc" ((5 + ((i + 1) * ((2 * i) + 1))) mod p) v)
    acc

let test_ntt_bad_args () =
  Alcotest.check_raises "n not pow2" (Invalid_argument "Ntt.make_table: n not a power of two")
    (fun () -> ignore (Ntt.make_table ~p:97 ~n:3));
  Alcotest.check_raises "bad congruence" (Invalid_argument "Ntt.make_table: p <> 1 mod 2n")
    (fun () -> ignore (Ntt.make_table ~p:31 ~n:8));
  let t = Ntt.make_table ~p:97 ~n:8 in
  Alcotest.check_raises "wrong length" (Invalid_argument "Ntt.forward: wrong length")
    (fun () -> Ntt.forward t [| 1; 2; 3 |])

let test_ntt64_roundtrip () =
  let rng = Rng.of_int 47 in
  let n = 512 in
  (* A ~2^40 batching prime, as the plaintext side uses. *)
  let p = Prime64.find_ntt_prime ~congruent_mod:(Int64.of_int (2 * n)) ~bits:40 () in
  let t = Ntt64.make_table ~p ~n in
  Alcotest.(check int64) "prime accessor" p (Ntt64.prime t);
  Alcotest.(check int) "degree accessor" n (Ntt64.degree t);
  let a = Array.init n (fun _ -> Rng.int64_below rng p) in
  let c = Array.copy a in
  Ntt64.forward t c;
  Ntt64.inverse t c;
  Alcotest.(check (array int64)) "roundtrip" a c

let test_ntt64_matches_ntt () =
  (* On a shared small prime the two transforms must agree exactly. *)
  let rng = Rng.of_int 53 in
  let n = 64 in
  let p = Prime64.find_ntt_prime ~congruent_mod:(Int64.of_int (2 * n)) ~bits:29 () in
  let t32 = Ntt.make_table ~p:(Int64.to_int p) ~n in
  let t64 = Ntt64.make_table ~p ~n in
  let a = Array.init n (fun _ -> Rng.int_below rng (Int64.to_int p)) in
  let c32 = Array.copy a in
  let c64 = Array.map Int64.of_int a in
  Ntt.forward t32 c32;
  Ntt64.forward t64 c64;
  Alcotest.(check (array int64)) "same forward" (Array.map Int64.of_int c32) c64

(* ------------------------------------------------------------------ *)
(* Division-free kernels: Shoup and Barrett                            *)
(* ------------------------------------------------------------------ *)

(* Every distinct prime the parameter layer actually deploys, so the
   kernels are tested against the exact moduli the protocol runs on. *)
let params_chain_primes =
  lazy
    (List.concat_map
       (fun (p : Params.t) -> Array.to_list p.Params.moduli)
       [ Params.toy (); Params.bench_small (); Params.bench (); Params.secure () ]
     |> List.sort_uniq compare)

let edge_residues p = [ 0; 1; 2; p / 2; p - 2; p - 1 ]

let test_shoup_vs_naive_chain_primes () =
  let rng = Rng.of_int 59 in
  List.iter
    (fun p ->
      let check w x =
        let s = Shoup.of_int ~p w in
        Alcotest.(check int)
          (Printf.sprintf "shoup p=%d w=%d x=%d" p w x)
          (w * x mod p) (Shoup.mul s ~p x);
        let v = Shoup.mul_lazy s ~p x in
        if not (v >= 0 && v < 2 * p && v mod p = w * x mod p) then
          Alcotest.failf "mul_lazy out of [0,2p): p=%d w=%d x=%d -> %d" p w x v
      in
      let edges = edge_residues p in
      List.iter (fun w -> List.iter (check w) edges) edges;
      for _ = 1 to 100 do
        check (Rng.int_below rng p) (Rng.int_below rng p)
      done)
    (Lazy.force params_chain_primes)

(* For a prime p, mul_lazy of a canonical x is already below p (see
   Shoup.mul_lazy): no canonical input reaches the kernels' correction,
   and x = p is the smallest one that does. *)
let test_shoup_lazy_canonical () =
  let rng = Rng.of_int 67 in
  List.iter
    (fun p ->
      let ws = 1 :: (p - 1) :: List.init 20 (fun _ -> 1 + Rng.int_below rng (p - 1)) in
      List.iter
        (fun w ->
          let s = Shoup.of_int ~p w in
          let xs = 0 :: 1 :: (p - 1) :: List.init 50 (fun _ -> Rng.int_below rng p) in
          List.iter
            (fun x ->
              let v = Shoup.mul_lazy s ~p x in
              if v <> w * x mod p then
                Alcotest.failf "mul_lazy p=%d w=%d x=%d -> %d, not below p" p w x v)
            xs;
          Alcotest.(check int) (Printf.sprintf "mul_lazy p=%d w=%d x=p" p w) p
            (Shoup.mul_lazy s ~p p))
        ws)
    (1021 :: 65537 :: 2147483647 :: Lazy.force params_chain_primes)

let test_barrett_vs_naive_chain_primes () =
  let rng = Rng.of_int 61 in
  List.iter
    (fun p ->
      let br = Barrett.create ~p in
      let check m =
        Alcotest.(check int) (Printf.sprintf "reduce p=%d m=%d" p m) (m mod p)
          (Barrett.reduce br m)
      in
      (* Double-width edges up to (p-1)^2 + p, the largest value the
         ring layer's multiply-accumulate can feed in. *)
      List.iter check
        [ 0; 1; p - 1; p; p + 1; (2 * p) - 1; 2 * p;
          (p - 1) * (p - 1); ((p - 1) * (p - 1)) + p ];
      for _ = 1 to 100 do
        let x = Rng.int_below rng p and y = Rng.int_below rng p in
        check (x * y);
        Alcotest.(check int) "barrett mul" (x * y mod p) (Barrett.mul br x y)
      done)
    (Lazy.force params_chain_primes)

let test_barrett_fallback_wide () =
  (* Moduli >= 2^30 take the hardware-division fallback; results must
     stay exact there too. *)
  let p = 2147483647 (* 2^31 - 1 *) in
  let br = Barrett.create ~p in
  Alcotest.(check bool) "fallback flagged" false br.Barrett.fast;
  let rng = Rng.of_int 67 in
  for _ = 1 to 100 do
    let x = Rng.int_below rng p and y = Rng.int_below rng p in
    Alcotest.(check int) "fallback mul" (x * y mod p) (Barrett.mul br x y)
  done

let test_ntt_roundtrip_chain_primes () =
  (* inverse . forward = id at the deployed ring degrees, for every
     prime of every parameter preset. *)
  let rng = Rng.of_int 71 in
  List.iter
    (fun (params : Params.t) ->
      let n = params.Params.n in
      Array.iter
        (fun p ->
          let t = Ntt.make_table ~p ~n in
          let a = Array.init n (fun _ -> Rng.int_below rng p) in
          let c = Array.copy a in
          Ntt.forward t c;
          Ntt.inverse t c;
          Alcotest.(check (array int))
            (Printf.sprintf "%s n=%d p=%d" params.Params.name n p)
            a c)
        params.Params.moduli)
    [ Params.toy (); Params.bench_small (); Params.bench (); Params.secure () ]

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let arb_residue m =
  QCheck.make
    ~print:Int64.to_string
    QCheck.Gen.(
      let* seed = int_range 0 max_int in
      return (Rng.int64_below (Rng.of_int seed) m))

let prop_mulmod m name =
  QCheck.Test.make ~count:300 ~name
    (QCheck.pair (arb_residue m) (arb_residue m))
    (fun (a, b) -> Int64.equal (Mod64.mul m a b) (ref_mulmod m a b))

let prop_pow_homomorphic =
  let m = 1099511627689L in
  QCheck.Test.make ~count:100 ~name:"pow: b^(e1+e2) = b^e1 * b^e2"
    (QCheck.triple (arb_residue m) QCheck.(int_range 0 1000) QCheck.(int_range 0 1000))
    (fun (b, e1, e2) ->
      Int64.equal
        (Mod64.pow m b (Int64.of_int (e1 + e2)))
        (Mod64.mul m (Mod64.pow m b (Int64.of_int e1)) (Mod64.pow m b (Int64.of_int e2))))

let prop_shoup_barrett_vs_naive =
  QCheck.Test.make ~count:300 ~name:"shoup & barrett = naive mod on chain primes"
    (QCheck.triple
       QCheck.(int_range 0 10000) QCheck.(int_range 0 max_int) QCheck.(int_range 0 max_int))
    (fun (pi, wi, xi) ->
      let primes = Lazy.force params_chain_primes in
      let p = List.nth primes (pi mod List.length primes) in
      let w = wi mod p and x = xi mod p in
      Shoup.mul (Shoup.of_int ~p w) ~p x = w * x mod p
      && Barrett.mul (Barrett.create ~p) w x = w * x mod p)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_mulmod 1099511627689L "mulmod vs zint (fast path, 2^40)";
      prop_mulmod 2305843009213693951L "mulmod vs zint (ladder, 2^61)";
      prop_pow_homomorphic;
      prop_shoup_barrett_vs_naive ]

let () =
  Alcotest.run "modular"
    [ ("mod64",
       [ Alcotest.test_case "basics" `Quick test_mod64_basic;
         Alcotest.test_case "mul vs reference" `Quick test_mod64_mul_against_reference;
         Alcotest.test_case "inv random" `Quick test_mod64_inv_random ]);
      ("prime64",
       [ Alcotest.test_case "known primes" `Quick test_is_prime_known;
         Alcotest.test_case "vs trial division" `Quick test_is_prime_vs_trial_division;
         Alcotest.test_case "factor small" `Quick test_factor;
         Alcotest.test_case "factor reconstructs" `Quick test_factor_reconstructs;
         Alcotest.test_case "primitive root" `Quick test_primitive_root;
         Alcotest.test_case "root of unity" `Quick test_root_of_unity;
         Alcotest.test_case "ntt prime search" `Quick test_find_ntt_prime ]);
      ("ntt",
       [ Alcotest.test_case "roundtrip" `Quick test_ntt_roundtrip;
         Alcotest.test_case "convolution vs schoolbook" `Quick test_ntt_convolution;
         Alcotest.test_case "linearity" `Quick test_ntt_linearity;
         Alcotest.test_case "pointwise acc" `Quick test_ntt_pointwise_acc;
         Alcotest.test_case "bad arguments" `Quick test_ntt_bad_args ]);
      ("ntt64",
       [ Alcotest.test_case "roundtrip 2^40 prime" `Quick test_ntt64_roundtrip;
         Alcotest.test_case "agrees with int NTT" `Quick test_ntt64_matches_ntt ]);
      ("kernels",
       [ Alcotest.test_case "shoup vs naive (chain primes)" `Quick
           test_shoup_vs_naive_chain_primes;
         Alcotest.test_case "shoup lazy exact below p" `Quick test_shoup_lazy_canonical;
         Alcotest.test_case "barrett vs naive (chain primes)" `Quick
           test_barrett_vs_naive_chain_primes;
         Alcotest.test_case "barrett wide fallback" `Quick test_barrett_fallback_wide;
         Alcotest.test_case "ntt roundtrip (param chains)" `Quick
           test_ntt_roundtrip_chain_primes ]);
      ("properties", qsuite) ]
