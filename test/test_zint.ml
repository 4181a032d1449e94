(* Tests for the bignum substrate: exact arithmetic, division invariants,
   number theory, primality, radix I/O. *)

module Z = Zint
module Rng = Util.Rng

let z = Z.of_int
let zs = Z.of_string

let check_z msg expected actual =
  Alcotest.(check string) msg (Z.to_string expected) (Z.to_string actual)

(* A generator of structurally interesting bignums: random bit-length up to
   [bits], random sign. *)
let arbitrary_zint ?(bits = 400) () =
  let gen =
    QCheck.Gen.(
      let* nbits = int_range 0 bits in
      let* seed = int_range 0 max_int in
      let* negative = QCheck.Gen.bool in
      let rng = Rng.of_int seed in
      let v = Z.random_bits rng nbits in
      return (if negative then Z.neg v else v))
  in
  QCheck.make ~print:Z.to_string gen

let arbitrary_pos_zint ?(bits = 400) () =
  let gen =
    QCheck.Gen.(
      let* nbits = int_range 1 bits in
      let* seed = int_range 0 max_int in
      let rng = Rng.of_int seed in
      let v = Z.random_bits rng nbits in
      return (Z.succ v))
  in
  QCheck.make ~print:Z.to_string gen

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)
(* ------------------------------------------------------------------ *)

let test_constants () =
  check_z "zero" (z 0) Z.zero;
  check_z "one" (z 1) Z.one;
  check_z "two" (z 2) Z.two;
  check_z "minus_one" (z (-1)) Z.minus_one;
  Alcotest.(check bool) "zero is zero" true (Z.is_zero Z.zero);
  Alcotest.(check bool) "one is one" true (Z.is_one Z.one);
  Alcotest.(check int) "sign 0" 0 (Z.sign Z.zero);
  Alcotest.(check int) "sign +" 1 (Z.sign (z 42));
  Alcotest.(check int) "sign -" (-1) (Z.sign (z (-42)))

let test_of_to_int () =
  List.iter
    (fun n ->
      Alcotest.(check (option int))
        (Printf.sprintf "roundtrip %d" n)
        (Some n)
        (Z.to_int_opt (z n)))
    [ 0; 1; -1; 42; -42; 1 lsl 30; (1 lsl 62) - 1; -((1 lsl 62) - 1); 123456789 ]

let test_of_int64 () =
  List.iter
    (fun n ->
      Alcotest.(check string)
        (Int64.to_string n)
        (Int64.to_string n)
        (Z.to_string (Z.of_int64 n)))
    [ 0L; 1L; -1L; Int64.max_int; Int64.min_int; 4611686018427387904L ]

let test_string_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) s s (Z.to_string (zs s)))
    [ "0"; "1"; "-1"; "123456789012345678901234567890";
      "-98765432109876543210987654321098765432109876543210";
      "1000000000"; "999999999"; "1000000001";
      "340282366920938463463374607431768211456" (* 2^128 *) ]

let test_string_invalid () =
  List.iter
    (fun s ->
      Alcotest.check_raises s (Invalid_argument
        (if s = "" then "Zint.of_string: empty"
         else if s = "-" || s = "+" then "Zint.of_string: no digits"
         else "Zint.of_string: bad digit"))
        (fun () -> ignore (zs s)))
    [ ""; "-"; "+"; "12a3"; "1 2" ]

let test_add_sub_basic () =
  check_z "1+1" (z 2) (Z.add Z.one Z.one);
  check_z "big add"
    (zs "246913578024691357802469135780")
    (Z.add (zs "123456789012345678901234567890") (zs "123456789012345678901234567890"));
  check_z "carry chain" (zs "4294967296") (Z.add (zs "4294967295") Z.one);
  check_z "a - a = 0" Z.zero (Z.sub (zs "99999999999999999999") (zs "99999999999999999999"));
  check_z "sub to negative" (z (-1)) (Z.sub (z 41) (z 42));
  check_z "mixed signs" (z 5) (Z.add (z 10) (z (-5)))

let test_mul_basic () =
  check_z "3*4" (z 12) (Z.mul (z 3) (z 4));
  check_z "neg*pos" (z (-12)) (Z.mul (z (-3)) (z 4));
  check_z "neg*neg" (z 12) (Z.mul (z (-3)) (z (-4)));
  check_z "by zero" Z.zero (Z.mul (zs "123456789123456789") Z.zero);
  check_z "2^64"
    (zs "18446744073709551616")
    (Z.mul (zs "4294967296") (zs "4294967296"));
  (* A known large product: (10^30 + 7) * (10^25 + 3) *)
  check_z "large product"
    (zs "10000000000000000000000003000070000000000000000000000021")
    (Z.mul (Z.add (Z.pow (z 10) 30) (z 7)) (Z.add (Z.pow (z 10) 25) (z 3)))

let test_karatsuba_consistency () =
  (* Force operands above the Karatsuba threshold (32 limbs = 992 bits). *)
  let rng = Rng.of_int 7 in
  for _ = 1 to 10 do
    let a = Z.random_bits rng 2500 and b = Z.random_bits rng 2100 in
    (* (a+b)^2 = a^2 + 2ab + b^2 exercises both mul paths coherently. *)
    let lhs = Z.sqr (Z.add a b) in
    let rhs = Z.add (Z.add (Z.sqr a) (Z.mul (Z.mul_int (Z.mul a b) 2) Z.one)) (Z.sqr b) in
    check_z "karatsuba identity" lhs rhs
  done

let test_divmod_basic () =
  let q, r = Z.divmod (z 17) (z 5) in
  check_z "17/5 q" (z 3) q;
  check_z "17/5 r" (z 2) r;
  let q, r = Z.divmod (z (-17)) (z 5) in
  check_z "-17/5 q (trunc)" (z (-3)) q;
  check_z "-17/5 r (trunc)" (z (-2)) r;
  let q, r = Z.ediv_rem (z (-17)) (z 5) in
  check_z "-17/5 q (eucl)" (z (-4)) q;
  check_z "-17/5 r (eucl)" (z 3) r;
  let q, r = Z.ediv_rem (z (-17)) (z (-5)) in
  check_z "-17/-5 q (eucl)" (z 4) q;
  check_z "-17/-5 r (eucl)" (z 3) r;
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Z.divmod Z.one Z.zero))

let test_divmod_knuth_addback () =
  (* Inputs engineered to hit the rare Knuth-D "add back" branch: divisor
     just above a power of the base with a dividend forcing qhat
     overestimation. *)
  let b31 = Z.shift_left Z.one 31 in
  let v = Z.add (Z.mul b31 b31) Z.one in (* 2^62 + 1 : two+ limbs *)
  let u = Z.sub (Z.mul v (Z.sub b31 Z.one)) Z.one in
  let q, r = Z.divmod u v in
  check_z "addback identity" u (Z.add (Z.mul q v) r);
  Alcotest.(check bool) "r < v" true (Z.compare (Z.abs r) (Z.abs v) < 0)

let test_pow () =
  check_z "2^10" (z 1024) (Z.pow (z 2) 10);
  check_z "x^0" Z.one (Z.pow (zs "99999999999") 0);
  check_z "0^0" Z.one (Z.pow Z.zero 0);
  check_z "0^5" Z.zero (Z.pow Z.zero 5);
  check_z "10^40" (zs ("1" ^ String.make 40 '0')) (Z.pow (z 10) 40);
  Alcotest.check_raises "neg exponent" (Invalid_argument "Zint.pow: negative exponent")
    (fun () -> ignore (Z.pow (z 2) (-1)))

let test_shifts () =
  check_z "1 << 100" (Z.pow (z 2) 100) (Z.shift_left Z.one 100);
  check_z "shift back" Z.one (Z.shift_right (Z.shift_left Z.one 100) 100);
  check_z "17 >> 2" (z 4) (Z.shift_right (z 17) 2);
  check_z "shift of 0" Z.zero (Z.shift_left Z.zero 31);
  check_z "mixed shift"
    (Z.mul (zs "123456789") (Z.pow (z 2) 45))
    (Z.shift_left (zs "123456789") 45)

let test_numbits_testbit () =
  Alcotest.(check int) "numbits 0" 0 (Z.numbits Z.zero);
  Alcotest.(check int) "numbits 1" 1 (Z.numbits Z.one);
  Alcotest.(check int) "numbits 255" 8 (Z.numbits (z 255));
  Alcotest.(check int) "numbits 256" 9 (Z.numbits (z 256));
  Alcotest.(check int) "numbits 2^100" 101 (Z.numbits (Z.pow (z 2) 100));
  Alcotest.(check bool) "bit 0 of 5" true (Z.testbit (z 5) 0);
  Alcotest.(check bool) "bit 1 of 5" false (Z.testbit (z 5) 1);
  Alcotest.(check bool) "bit 2 of 5" true (Z.testbit (z 5) 2);
  Alcotest.(check bool) "bit 100 of 2^100" true (Z.testbit (Z.pow (z 2) 100) 100)

let test_gcd_egcd () =
  check_z "gcd 12 18" (z 6) (Z.gcd (z 12) (z 18));
  check_z "gcd neg" (z 6) (Z.gcd (z (-12)) (z 18));
  check_z "gcd 0 x" (z 7) (Z.gcd Z.zero (z 7));
  let a = zs "123456789012345678901234567890" and b = zs "987654321098765432109876543210" in
  let g, u, v = Z.egcd a b in
  check_z "bezout" g (Z.add (Z.mul u a) (Z.mul v b));
  check_z "gcd consistency" g (Z.gcd a b)

let test_modinv () =
  let m = zs "1000000007" in
  let a = zs "123456789" in
  let inv = Z.modinv a m in
  check_z "a * a^-1 mod m" Z.one (Z.erem (Z.mul a inv) m);
  Alcotest.check_raises "non invertible" (Failure "Zint.modinv: not invertible")
    (fun () -> ignore (Z.modinv (z 6) (z 9)))

let test_powmod () =
  check_z "3^4 mod 5" (z 1) (Z.powmod (z 3) (z 4) (z 5));
  check_z "x^0 mod m" Z.one (Z.powmod (zs "987654321") Z.zero (zs "1000003"));
  check_z "mod 1" Z.zero (Z.powmod (z 5) (z 5) Z.one);
  (* Fermat's little theorem for the paper's plaintext prime p. *)
  let p = zs "1099511627689" in
  check_z "fermat" Z.one (Z.powmod (zs "31337") (Z.pred p) p)

let test_primality_known () =
  let rng = Rng.of_int 11 in
  let primes = [ "2"; "3"; "5"; "104729"; "1099511627689"; "170141183460469231731687303715884105727" ] in
  let composites = [ "1"; "0"; "4"; "104730"; "1099511627690";
                     "340282366920938463463374607431768211455";
                     (* Carmichael numbers *) "561"; "41041"; "825265" ] in
  List.iter
    (fun s -> Alcotest.(check bool) ("prime " ^ s) true (Z.is_probable_prime rng (zs s)))
    primes;
  List.iter
    (fun s -> Alcotest.(check bool) ("composite " ^ s) false (Z.is_probable_prime rng (zs s)))
    composites

let test_random_prime () =
  let rng = Rng.of_int 13 in
  List.iter
    (fun bits ->
      let p = Z.random_prime rng ~bits in
      Alcotest.(check int) (Printf.sprintf "%d-bit width" bits) bits (Z.numbits p);
      Alcotest.(check bool) "is prime" true (Z.is_probable_prime rng p))
    [ 8; 16; 32; 64; 128; 256 ]

let test_next_prime () =
  let rng = Rng.of_int 17 in
  check_z "after 0" (z 2) (Z.next_prime rng Z.zero);
  check_z "after 2" (z 3) (Z.next_prime rng (z 2));
  check_z "after 13" (z 17) (Z.next_prime rng (z 13));
  check_z "after 10^9" (zs "1000000007") (Z.next_prime rng (zs "1000000000"))

let test_lcm () =
  check_z "lcm 4 6" (z 12) (Z.lcm (z 4) (z 6));
  check_z "lcm with 0" Z.zero (Z.lcm Z.zero (z 5))

let test_random_below_range () =
  let rng = Rng.of_int 19 in
  let bound = zs "1000000000000000000000" in
  for _ = 1 to 200 do
    let v = Z.random_below rng bound in
    Alcotest.(check bool) "0 <= v" true (Z.sign v >= 0);
    Alcotest.(check bool) "v < bound" true (Z.compare v bound < 0)
  done

let test_to_float () =
  Alcotest.(check (float 1e-6)) "42." 42.0 (Z.to_float (z 42));
  Alcotest.(check (float 1e-6)) "-42." (-42.0) (Z.to_float (z (-42)));
  let big = Z.pow (z 2) 80 in
  Alcotest.(check (float 1e6)) "2^80" (2.0 ** 80.0) (Z.to_float big)

(* ------------------------------------------------------------------ *)
(* Property tests                                                      *)
(* ------------------------------------------------------------------ *)

let prop_add_commutative =
  QCheck.Test.make ~count:300 ~name:"add commutative"
    (QCheck.pair (arbitrary_zint ()) (arbitrary_zint ()))
    (fun (a, b) -> Z.equal (Z.add a b) (Z.add b a))

let prop_add_associative =
  QCheck.Test.make ~count:300 ~name:"add associative"
    (QCheck.triple (arbitrary_zint ()) (arbitrary_zint ()) (arbitrary_zint ()))
    (fun (a, b, c) -> Z.equal (Z.add (Z.add a b) c) (Z.add a (Z.add b c)))

let prop_sub_inverse =
  QCheck.Test.make ~count:300 ~name:"a - b + b = a"
    (QCheck.pair (arbitrary_zint ()) (arbitrary_zint ()))
    (fun (a, b) -> Z.equal (Z.add (Z.sub a b) b) a)

let prop_mul_commutative =
  QCheck.Test.make ~count:300 ~name:"mul commutative"
    (QCheck.pair (arbitrary_zint ()) (arbitrary_zint ()))
    (fun (a, b) -> Z.equal (Z.mul a b) (Z.mul b a))

let prop_mul_distributes =
  QCheck.Test.make ~count:300 ~name:"mul distributes over add"
    (QCheck.triple (arbitrary_zint ~bits:600 ()) (arbitrary_zint ~bits:600 ())
       (arbitrary_zint ~bits:600 ()))
    (fun (a, b, c) ->
      Z.equal (Z.mul a (Z.add b c)) (Z.add (Z.mul a b) (Z.mul a c)))

let prop_divmod_invariant =
  QCheck.Test.make ~count:500 ~name:"a = q*b + r, |r| < |b|"
    (QCheck.pair (arbitrary_zint ~bits:600 ()) (arbitrary_zint ~bits:300 ()))
    (fun (a, b) ->
      QCheck.assume (not (Z.is_zero b));
      let q, r = Z.divmod a b in
      Z.equal a (Z.add (Z.mul q b) r)
      && Z.compare (Z.abs r) (Z.abs b) < 0
      && (Z.is_zero r || Z.sign r = Z.sign a))

let prop_ediv_invariant =
  QCheck.Test.make ~count:500 ~name:"euclidean: a = q*b + r, 0 <= r < |b|"
    (QCheck.pair (arbitrary_zint ~bits:600 ()) (arbitrary_zint ~bits:300 ()))
    (fun (a, b) ->
      QCheck.assume (not (Z.is_zero b));
      let q, r = Z.ediv_rem a b in
      Z.equal a (Z.add (Z.mul q b) r)
      && Z.sign r >= 0
      && Z.compare r (Z.abs b) < 0)

let prop_string_roundtrip =
  QCheck.Test.make ~count:300 ~name:"of_string . to_string = id"
    (arbitrary_zint ~bits:800 ())
    (fun a -> Z.equal a (Z.of_string (Z.to_string a)))

let prop_shift_mul_pow2 =
  QCheck.Test.make ~count:300 ~name:"shift_left = mul by 2^s"
    (QCheck.pair (arbitrary_zint ()) QCheck.(int_range 0 200))
    (fun (a, s) -> Z.equal (Z.shift_left a s) (Z.mul a (Z.pow Z.two s)))

let prop_shift_right_div_pow2 =
  QCheck.Test.make ~count:300 ~name:"shift_right = |a| / 2^s on magnitude"
    (QCheck.pair (arbitrary_pos_zint ()) QCheck.(int_range 0 200))
    (fun (a, s) -> Z.equal (Z.shift_right a s) (Z.div a (Z.pow Z.two s)))

let prop_gcd_divides =
  QCheck.Test.make ~count:200 ~name:"gcd divides both"
    (QCheck.pair (arbitrary_pos_zint ~bits:200 ()) (arbitrary_pos_zint ~bits:200 ()))
    (fun (a, b) ->
      let g = Z.gcd a b in
      Z.is_zero (Z.rem a g) && Z.is_zero (Z.rem b g))

let prop_egcd_bezout =
  QCheck.Test.make ~count:200 ~name:"egcd bezout identity"
    (QCheck.pair (arbitrary_zint ~bits:200 ()) (arbitrary_zint ~bits:200 ()))
    (fun (a, b) ->
      QCheck.assume (not (Z.is_zero a) || not (Z.is_zero b));
      let g, u, v = Z.egcd a b in
      Z.equal g (Z.add (Z.mul u a) (Z.mul v b)) && Z.sign g > 0)

let prop_powmod_montgomery_vs_generic =
  (* Odd multi-limb moduli take the Montgomery path; cross-check it
     against the naive square-and-multiply on small exponents and
     against Fermat on prime moduli. *)
  QCheck.Test.make ~count:100 ~name:"montgomery powmod vs naive"
    (QCheck.triple (arbitrary_pos_zint ~bits:300 ()) QCheck.(int_range 0 30)
       (arbitrary_pos_zint ~bits:300 ()))
    (fun (b, e, m_seed) ->
      let m = Z.succ (Z.mul_int m_seed 2) in (* force odd, >= 3 *)
      QCheck.assume (Z.numbits m > 31);
      Z.equal (Z.erem (Z.pow b e) m) (Z.powmod b (Z.of_int e) m))

let prop_powmod_even_modulus =
  QCheck.Test.make ~count:100 ~name:"generic powmod on even moduli"
    (QCheck.triple (arbitrary_pos_zint ~bits:200 ()) QCheck.(int_range 0 30)
       (arbitrary_pos_zint ~bits:200 ()))
    (fun (b, e, m_seed) ->
      let m = Z.mul_int (Z.succ m_seed) 2 in (* force even *)
      Z.equal (Z.erem (Z.pow b e) m) (Z.powmod b (Z.of_int e) m))

let prop_powmod_matches_naive =
  QCheck.Test.make ~count:100 ~name:"powmod vs repeated multiplication"
    (QCheck.triple (arbitrary_pos_zint ~bits:60 ()) QCheck.(int_range 0 40)
       (arbitrary_pos_zint ~bits:60 ()))
    (fun (b, e, m) ->
      let naive = Z.erem (Z.pow b e) m in
      Z.equal naive (Z.powmod b (Z.of_int e) m))

let prop_modinv =
  QCheck.Test.make ~count:150 ~name:"modinv correct when gcd = 1"
    (QCheck.pair (arbitrary_pos_zint ~bits:150 ()) (arbitrary_pos_zint ~bits:150 ()))
    (fun (a, m) ->
      QCheck.assume (Z.compare m Z.two > 0);
      QCheck.assume (Z.is_one (Z.gcd a m));
      let inv = Z.modinv a m in
      Z.is_one (Z.erem (Z.mul a inv) m) && Z.sign inv >= 0 && Z.compare inv m < 0)

let prop_numbits_bound =
  QCheck.Test.make ~count:300 ~name:"2^(numbits-1) <= |a| < 2^numbits"
    (arbitrary_pos_zint ())
    (fun a ->
      let n = Z.numbits a in
      Z.compare (Z.pow Z.two (n - 1)) a <= 0 && Z.compare a (Z.pow Z.two n) < 0)

let prop_compare_total_order =
  QCheck.Test.make ~count:300 ~name:"compare consistent with sub sign"
    (QCheck.pair (arbitrary_zint ()) (arbitrary_zint ()))
    (fun (a, b) -> Stdlib.compare (Z.compare a b) 0 = Stdlib.compare (Z.sign (Z.sub a b)) 0)

(* of_int over the whole int range, multi-limb magnitudes included,
   with the extremes and the limb boundaries pinned. *)
let prop_of_int_matches_of_int64 =
  let pinned =
    [ min_int; max_int; 1 lsl 31; -(1 lsl 31); (1 lsl 62) - 1; -((1 lsl 62) - 1);
      (1 lsl 31) - 1; 1 lsl 40; -(1 lsl 40) ]
  in
  let gen = QCheck.Gen.(oneof [ oneofl pinned; int; map (fun x -> x asr 20) int ]) in
  QCheck.Test.make ~count:1000 ~name:"of_int n = of_int64 (Int64.of_int n)"
    (QCheck.make ~print:string_of_int gen)
    (fun n ->
      List.for_all (fun m -> Z.equal (Z.of_int m) (Z.of_int64 (Int64.of_int m))) pinned
      && Z.equal (Z.of_int n) (Z.of_int64 (Int64.of_int n)))

let qsuite = List.map QCheck_alcotest.to_alcotest
  [ prop_add_commutative; prop_add_associative; prop_sub_inverse;
    prop_mul_commutative; prop_mul_distributes; prop_divmod_invariant;
    prop_ediv_invariant; prop_string_roundtrip; prop_shift_mul_pow2;
    prop_shift_right_div_pow2; prop_gcd_divides; prop_egcd_bezout;
    prop_powmod_matches_naive; prop_powmod_montgomery_vs_generic;
    prop_powmod_even_modulus; prop_modinv; prop_numbits_bound;
    prop_compare_total_order; prop_of_int_matches_of_int64 ]

let () =
  Alcotest.run "zint"
    [ ("constants", [ Alcotest.test_case "constants" `Quick test_constants ]);
      ("conversions",
       [ Alcotest.test_case "int roundtrip" `Quick test_of_to_int;
         Alcotest.test_case "int64" `Quick test_of_int64;
         Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
         Alcotest.test_case "string invalid" `Quick test_string_invalid;
         Alcotest.test_case "to_float" `Quick test_to_float ]);
      ("arithmetic",
       [ Alcotest.test_case "add/sub" `Quick test_add_sub_basic;
         Alcotest.test_case "mul" `Quick test_mul_basic;
         Alcotest.test_case "karatsuba" `Quick test_karatsuba_consistency;
         Alcotest.test_case "divmod" `Quick test_divmod_basic;
         Alcotest.test_case "knuth addback" `Quick test_divmod_knuth_addback;
         Alcotest.test_case "pow" `Quick test_pow;
         Alcotest.test_case "shifts" `Quick test_shifts;
         Alcotest.test_case "numbits/testbit" `Quick test_numbits_testbit ]);
      ("number theory",
       [ Alcotest.test_case "gcd/egcd" `Quick test_gcd_egcd;
         Alcotest.test_case "modinv" `Quick test_modinv;
         Alcotest.test_case "powmod" `Quick test_powmod;
         Alcotest.test_case "lcm" `Quick test_lcm ]);
      ("primality",
       [ Alcotest.test_case "known primes/composites" `Quick test_primality_known;
         Alcotest.test_case "random_prime" `Slow test_random_prime;
         Alcotest.test_case "next_prime" `Quick test_next_prime;
         Alcotest.test_case "random_below" `Quick test_random_below_range ]);
      ("properties", qsuite) ]
