(* Tests for the RLWE ring substrate: CRT lifting, RNS polynomial
   arithmetic, Galois substitution and the samplers. *)

module Rng = Util.Rng
module Z = Zint

let n = 64

let moduli =
  Prime64.ntt_primes ~congruent_mod:(Int64.of_int (2 * n)) ~bits:28 ~count:4
  |> List.map Int64.to_int
  |> Array.of_list

let ctx = Rq.context ~n ~moduli ~t:65537L

let random_rq ?(nprimes = 4) seed =
  Sampler.uniform (Rng.of_int seed) ctx ~nprimes

let check_eq msg a b = Alcotest.(check bool) msg true (Rq.equal a b)

(* ------------------------------------------------------------------ *)
(* Crt                                                                 *)
(* ------------------------------------------------------------------ *)

let test_crt_roundtrip () =
  let b = Crt.make moduli in
  let rng = Rng.of_int 1 in
  Alcotest.(check (array int)) "primes accessor" moduli (Crt.primes b);
  for _ = 1 to 200 do
    let x = Z.random_below rng (Crt.modulus b) in
    let lifted = Crt.lift b (Crt.reduce b x) in
    Alcotest.(check string) "lift . reduce = id" (Z.to_string x) (Z.to_string lifted)
  done

let test_crt_centered () =
  let b = Crt.make moduli in
  let q = Crt.modulus b in
  let half = Z.shift_right q 1 in
  let rng = Rng.of_int 2 in
  for _ = 1 to 100 do
    let x = Z.random_below rng q in
    let c = Crt.lift_centered b (Crt.reduce b x) in
    Alcotest.(check bool) "centered range" true
      (Z.compare c half <= 0 && Z.compare (Z.neg half) c <= 0);
    Alcotest.(check string) "congruent" (Z.to_string x) (Z.to_string (Z.erem c q))
  done;
  (* Negative inputs reduce correctly. *)
  let r = Crt.reduce b (Z.of_int (-5)) in
  Alcotest.(check string) "negative reduce" "-5" (Z.to_string (Crt.lift_centered b r))

let test_crt_validation () =
  Alcotest.check_raises "empty basis" (Invalid_argument "Crt.make: empty basis")
    (fun () -> ignore (Crt.make [||]));
  let b = Crt.make moduli in
  Alcotest.check_raises "length mismatch" (Invalid_argument "Crt.lift: length mismatch")
    (fun () -> ignore (Crt.lift b [| 1 |]))

(* ------------------------------------------------------------------ *)
(* Rq ring axioms                                                      *)
(* ------------------------------------------------------------------ *)

let test_ring_axioms () =
  let a = random_rq 3 and b = random_rq 4 and c = random_rq 5 in
  check_eq "add commutative" (Rq.add a b) (Rq.add b a);
  check_eq "add associative" (Rq.add (Rq.add a b) c) (Rq.add a (Rq.add b c));
  check_eq "mul commutative" (Rq.mul a b) (Rq.mul b a);
  check_eq "mul associative" (Rq.mul (Rq.mul a b) c) (Rq.mul a (Rq.mul b c));
  check_eq "distributive" (Rq.mul a (Rq.add b c)) (Rq.add (Rq.mul a b) (Rq.mul a c));
  let zero = Rq.zero ctx ~nprimes:4 Rq.Eval in
  check_eq "additive identity" a (Rq.add a zero);
  check_eq "additive inverse" zero (Rq.add a (Rq.neg a));
  check_eq "a - b = a + (-b)" (Rq.sub a b) (Rq.add a (Rq.neg b));
  let one = Rq.constant ctx ~nprimes:4 Rq.Eval 1L in
  check_eq "multiplicative identity" a (Rq.mul a one)

let test_domain_conversions () =
  let a = random_rq 6 in
  check_eq "eval -> coeff -> eval" a (Rq.to_eval (Rq.to_coeff a));
  Alcotest.(check bool) "domains tracked" true
    (Rq.domain (Rq.to_coeff a) = Rq.Coeff && Rq.domain (Rq.to_eval a) = Rq.Eval)

let test_coeff_embeddings_agree () =
  let rng = Rng.of_int 7 in
  let small = Array.init n (fun _ -> Rng.int_range rng (-100) 100) in
  let via_small = Rq.of_small_coeffs ctx ~nprimes:4 Rq.Coeff small in
  let via_int64 =
    Rq.of_int64_coeffs ctx ~nprimes:4 Rq.Coeff (Array.map Int64.of_int small)
  in
  let via_zint = Rq.of_zint_coeffs ctx ~nprimes:4 Rq.Coeff (Array.map Z.of_int small) in
  check_eq "small = int64" via_small via_int64;
  check_eq "small = zint" via_small via_zint;
  (* Round-trip through exact coefficients (centered). *)
  let back = Rq.to_zint_coeffs via_small in
  Array.iteri
    (fun i v -> Alcotest.(check int) "coeff roundtrip" small.(i) (Z.to_int_exn v))
    back

let test_scalar_ops () =
  let a = random_rq 8 in
  check_eq "scalar 3 = a+a+a" (Rq.mul_scalar a 3L) (Rq.add a (Rq.add a a));
  check_eq "scalar via zint" (Rq.mul_scalar a 12345L) (Rq.mul_scalar_zint a (Z.of_int 12345));
  (* A scalar beyond 64 bits wraps consistently with Zint reduction. *)
  let big = Z.pow (Z.of_int 2) 100 in
  let q = Rq.modulus ctx ~nprimes:4 in
  check_eq "big scalar reduces mod q"
    (Rq.mul_scalar_zint a big)
    (Rq.mul_scalar_zint a (Z.erem big q))

let test_truncate_level () =
  let a = random_rq 9 in
  let t = Rq.truncate a ~nprimes:2 in
  Alcotest.(check int) "nprimes" 2 (Rq.nprimes t);
  (* The truncation keeps the residues of the first primes. *)
  Alcotest.(check (array int)) "component preserved" (Rq.component a 0) (Rq.component t 0);
  Alcotest.check_raises "cannot extend" (Invalid_argument "Rq.truncate: bad nprimes")
    (fun () -> ignore (Rq.truncate t ~nprimes:3))

let test_substitute () =
  (* x -> x^3 on the polynomial x gives x^3; applying the inverse
     automorphism undoes it. *)
  let coeffs = Array.make n 0 in
  coeffs.(1) <- 1;
  let x = Rq.of_small_coeffs ctx ~nprimes:4 Rq.Coeff coeffs in
  let x3 = Rq.substitute x ~k:3 in
  let expected = Array.make n 0 in
  expected.(3) <- 1;
  check_eq "x^3" (Rq.of_small_coeffs ctx ~nprimes:4 Rq.Coeff expected) x3;
  (* k * k_inv = 1 mod 2n => substitution composes to identity. *)
  let k_inv = Int64.to_int (Mod64.inv (Int64.of_int (2 * n)) 3L) in
  let a = random_rq 10 in
  check_eq "inverse substitution" (Rq.to_eval (Rq.substitute (Rq.substitute a ~k:3) ~k:k_inv))
    a;
  (* Substitution is a ring homomorphism. *)
  let b = random_rq 11 in
  check_eq "hom over mul"
    (Rq.to_eval (Rq.substitute (Rq.mul a b) ~k:5))
    (Rq.mul (Rq.to_eval (Rq.substitute a ~k:5)) (Rq.to_eval (Rq.substitute b ~k:5)));
  Alcotest.check_raises "even k" (Invalid_argument "Rq.substitute: k must be odd")
    (fun () -> ignore (Rq.substitute a ~k:2))

let test_into_variants_match_pure () =
  (* The destructive variants promise bit-identical results to the pure
     counterparts; they only drop the allocation. *)
  let a = Rq.to_eval (random_rq 15) and b = Rq.to_eval (random_rq 16) in
  let fresh x = Rq.add x (Rq.zero ctx ~nprimes:4 Rq.Eval) in
  let acc = fresh a in
  Rq.add_into acc b;
  check_eq "add_into = add" (Rq.add a b) acc;
  let acc = fresh a in
  Rq.sub_into acc b;
  check_eq "sub_into = sub" (Rq.sub a b) acc;
  let dst = Rq.zero ctx ~nprimes:4 Rq.Eval in
  Rq.mul_into dst a b;
  check_eq "mul_into = mul" (Rq.mul a b) dst;
  (* Documented aliasing case: dst may be an Eval operand. *)
  let acc = fresh a in
  Rq.mul_into acc acc b;
  check_eq "mul_into aliased dst" (Rq.mul a b) acc;
  let acc = Rq.zero ctx ~nprimes:4 Rq.Eval in
  Rq.mul_add_into acc a b;
  Rq.mul_add_into acc a b;
  check_eq "mul_add_into accumulates"
    (Rq.add (Rq.mul a b) (Rq.mul a b)) acc;
  let c = Rq.to_coeff (fresh a) in
  let e = Rq.to_eval_into c in
  Alcotest.(check bool) "to_eval_into tags Eval" true (Rq.domain e = Rq.Eval);
  check_eq "to_eval_into = to_eval" (Rq.to_eval a) e

(* ------------------------------------------------------------------ *)
(* Residue kernels against the naive mod formulation                   *)
(* ------------------------------------------------------------------ *)

(* The standard preset's shape (10 × 30-bit primes) beside the 28-bit
   test chain: the branchless corrections must hold at both sizes. *)
let wide_moduli =
  Prime64.ntt_primes ~congruent_mod:(Int64.of_int (2 * n)) ~bits:30 ~count:10
  |> List.map Int64.to_int
  |> Array.of_list

let wide_ctx = Rq.context ~n ~moduli:wide_moduli ~t:65537L

(* Primes above 2^30, where the Barrett-based loops take their [mod]
   fallback, and 10-bit primes, where a long sum overflows the lazy
   bound 3m <= 2^(bits p) and takes the same fallback. *)
let chain_of ~bits ~count =
  Prime64.ntt_primes ~congruent_mod:(Int64.of_int (2 * n)) ~bits ~count
  |> List.map Int64.to_int
  |> Array.of_list

let big_moduli = chain_of ~bits:31 ~count:3
let big_ctx = Rq.context ~n ~moduli:big_moduli ~t:65537L
let small_moduli = chain_of ~bits:10 ~count:2
let small_ctx = Rq.context ~n ~moduli:small_moduli ~t:65537L

(* Random residues at every prime, with the edges 0, 1, p/2 and p - 1
   planted in the first coefficients of each component. *)
let edge_rq c moduli ~seed domain =
  let rng = Rng.of_int seed in
  Rq.of_components c domain
    (Array.map
       (fun p ->
         Array.init n (fun j ->
             match j with
             | 0 -> p - 1
             | 1 -> 0
             | 2 -> p / 2
             | 3 -> p - 1
             | 4 -> 1
             | _ -> Rng.int_below rng p))
       moduli)

let naive_map2 f a b moduli =
  Array.mapi
    (fun i p -> Array.init n (fun j -> f p (Rq.component a i).(j) (Rq.component b i).(j)))
    moduli

let check_comps msg moduli expected v =
  Array.iteri
    (fun i _ ->
      Alcotest.(check (array int))
        (Printf.sprintf "%s, prime %d" msg i)
        expected.(i) (Rq.component v i))
    moduli

let test_residue_kernels_naive () =
  List.iter
    (fun (c, moduli) ->
      List.iter
        (fun domain ->
          let dname = match domain with Rq.Coeff -> "coeff" | Rq.Eval -> "eval" in
          List.iter
            (fun seed ->
              let a = edge_rq c moduli ~seed domain in
              let b = edge_rq c moduli ~seed:(seed + 1) domain in
              (* b's edges line up with a's: p-1 + p-1, 0 - (p-1), … *)
              let msg op = Printf.sprintf "%s %s seed %d" op dname seed in
              check_comps (msg "add") moduli
                (naive_map2 (fun p x y -> (x + y) mod p) a b moduli)
                (Rq.add a b);
              check_comps (msg "sub") moduli
                (naive_map2 (fun p x y -> ((x - y) mod p + p) mod p) a b moduli)
                (Rq.sub a b);
              check_comps (msg "neg") moduli
                (naive_map2 (fun p x _ -> (p - x) mod p) a a moduli)
                (Rq.neg a);
              List.iter
                (fun s ->
                  let reduce p =
                    let p = Int64.of_int p in
                    Int64.to_int (Int64.rem (Int64.add (Int64.rem s p) p) p)
                  in
                  check_comps
                    (msg (Printf.sprintf "mul_scalar %Ld" s))
                    moduli
                    (naive_map2 (fun p x _ -> x * reduce p mod p) a a moduli)
                    (Rq.mul_scalar a s);
                  check_comps
                    (msg (Printf.sprintf "add_constant %Ld" s))
                    moduli
                    (Array.mapi
                       (fun i p ->
                         Array.mapi
                           (fun j x ->
                             (* a constant is itself at every evaluation point *)
                             if j = 0 || domain = Rq.Eval then (x + reduce p) mod p else x)
                           (Rq.component a i))
                       moduli)
                    (Rq.add_constant a s))
                [ 0L; 1L; -1L; 2L; 123456789L; Int64.max_int; Int64.min_int;
                  Int64.of_int (moduli.(0) - 1) ])
            [ 21; 22; 23 ])
        [ Rq.Coeff; Rq.Eval ])
    [ (ctx, moduli); (wide_ctx, wide_moduli); (big_ctx, big_moduli); (small_ctx, small_moduli) ]

let test_sum_sq_diff_matches_mul_add () =
  List.iter
    (fun (c, moduli, terms) ->
      let k = Array.length moduli in
      List.iter
        (fun m ->
          let ct seed = Array.init 2 (fun i -> edge_rq c moduli ~seed:(seed + i) Rq.Eval) in
          let a = Array.init m (fun j -> ct (1000 + (4 * j))) in
          let b = Array.init m (fun j -> ct (3000 + (4 * j))) in
          let acc = Array.init 3 (fun _ -> Rq.zero c ~nprimes:k Rq.Eval) in
          for j = 0 to m - 1 do
            let d = Array.map2 Rq.sub a.(j) b.(j) in
            Rq.mul_add_into acc.(0) d.(0) d.(0);
            Rq.mul_add_into acc.(1) d.(0) d.(1);
            Rq.mul_add_into acc.(1) d.(1) d.(0);
            Rq.mul_add_into acc.(2) d.(1) d.(1)
          done;
          Array.iteri
            (fun x got ->
              check_eq
                (Printf.sprintf "%d-prime chain (p0 = %d), m = %d, component %d" k
                   moduli.(0) m x)
                acc.(x) got)
            (Rq.sum_sq_diff a b))
        terms)
    [ (ctx, moduli, [ 1; 5; 40 ]);
      (wide_ctx, wide_moduli, [ 1; 32 ]);
      (big_ctx, big_moduli, [ 1; 7 ]);
      (small_ctx, small_moduli, [ 3; 5000 ]) ]

(* The running sum equals folding mul_add_into, on the lazy path, on
   primes off Barrett's fast path, and across an in-place reduction
   (5000 terms pass the lazy bound of the 10-bit primes). *)
let test_sum_matches_mul_add () =
  List.iter
    (fun (c, moduli, terms) ->
      let k = Array.length moduli in
      List.iter
        (fun m ->
          let acc = Rq.zero c ~nprimes:k Rq.Eval and sum = Rq.sum_create c ~nprimes:k in
          for j = 0 to m - 1 do
            let a = edge_rq c moduli ~seed:(5000 + j) Rq.Eval in
            let b = edge_rq c moduli ~seed:(7000 + j) Rq.Eval in
            Rq.mul_add_into acc a b;
            Rq.sum_mul_add sum a b
          done;
          check_eq (Printf.sprintf "%d-prime chain (p0 = %d), m = %d" k moduli.(0) m) acc
            (Rq.sum_value sum))
        terms)
    [ (ctx, moduli, [ 1; 5; 40 ]);
      (wide_ctx, wide_moduli, [ 1; 32 ]);
      (big_ctx, big_moduli, [ 1; 7 ]);
      (small_ctx, small_moduli, [ 3; 5000 ]) ]

(* Σₛ xˢ·aₛ as a negacyclic shift per term in the coefficient domain:
   xˢ moves coefficient j to j + s, with a sign each time it wraps past
   n.  Edge residues, on every chain, past n terms included. *)
let test_fold_monomials_naive () =
  List.iter
    (fun (c, moduli) ->
      let k = Array.length moduli in
      List.iter
        (fun m ->
          let a = Array.init m (fun s -> edge_rq c moduli ~seed:(9000 + s) Rq.Eval) in
          let expect =
            Array.mapi
              (fun i p ->
                let out = Array.make n 0 in
                Array.iteri
                  (fun s term ->
                    Array.iteri
                      (fun j v ->
                        let e = (j + s) mod (2 * n) in
                        let at, v = if e < n then (e, v) else (e - n, (p - v) mod p) in
                        out.(at) <- (out.(at) + v) mod p)
                      (Rq.component (Rq.to_coeff term) i))
                  a;
                out)
              moduli
          in
          check_eq (Printf.sprintf "%d-prime chain (p0 = %d), m = %d" k moduli.(0) m)
            (Rq.of_components c Rq.Coeff expect) (Rq.fold_monomials a))
        [ 1; 2; n - 1; n; n + 3 ])
    [ (ctx, moduli); (wide_ctx, wide_moduli); (big_ctx, big_moduli); (small_ctx, small_moduli) ]

(* One modulus-switch step per drop, as the BGV layer computed it
   before the kernel moved into the ring: Coeff-domain residues,
   w = c·t⁻¹ mod q centered, c_i <- (c_i - t·w)·q⁻¹ mod p_i. *)
let naive_switch moduli ~t comps =
  let k = Array.length comps in
  let q = moduli.(k - 1) in
  let inv p x = Int64.to_int (Mod64.inv (Int64.of_int p) (Int64.of_int x)) in
  let t_inv = inv q (Int64.to_int (Int64.rem t (Int64.of_int q))) in
  let w =
    Array.map
      (fun c ->
        let x = c * t_inv mod q in
        if x > q / 2 then x - q else x)
      comps.(k - 1)
  in
  Array.init (k - 1) (fun i ->
      let p = moduli.(i) in
      let tm = Int64.to_int (Int64.rem t (Int64.of_int p)) and qinv = inv p (q mod p) in
      Array.mapi (fun j c -> (((c - (tm * w.(j))) mod p + p) mod p) * qinv mod p) comps.(i))

(* The protocol's own chain and t: Config.standard's 10 × 30-bit
   primes under its 50-bit plaintext prime, which lies above every
   chain prime, so each t·(p_target⋯p_l)⁻¹ the switch folds into a kept
   prime starts from t reduced mod that prime. *)
let standard = (Config.standard ()).Config.bgv

let test_switch_down_naive () =
  List.iter
    (fun (c, moduli, t) ->
      let chain = Array.length moduli in
      for k = 2 to chain do
        for drops = 1 to k - 1 do
          List.iter
            (fun domain ->
              let rows =
                let v = edge_rq c moduli ~seed:(31 * k + drops) Rq.Coeff in
                Array.init k (fun i -> Rq.component v i)
              in
              (* Plant the centering boundary of the first step: residues
                 whose c·t⁻¹ mod q lands on q/2 and q/2 + 1. *)
              let q = moduli.(k - 1) in
              let tq = Int64.to_int (Int64.rem t (Int64.of_int q)) in
              rows.(k - 1).(5) <- q / 2 * tq mod q;
              rows.(k - 1).(6) <- (q / 2 + 1) * tq mod q;
              let expected = ref (Array.map Array.copy rows) in
              let v = Rq.of_components c Rq.Coeff rows in
              let v = match domain with Rq.Coeff -> v | Rq.Eval -> Rq.to_eval v in
              for _ = 1 to drops do
                expected := naive_switch moduli ~t !expected
              done;
              let got = Rq.to_coeff (Rq.switch_down v ~drops) in
              Alcotest.(check int) "level" (k - drops) (Rq.nprimes got);
              Array.iteri
                (fun i row ->
                  Alcotest.(check (array int))
                    (Printf.sprintf "t = %Ld, L%d drops %d prime %d" t k drops i)
                    row (Rq.component got i))
                !expected)
            [ Rq.Coeff; Rq.Eval ]
        done
      done)
    [ (ctx, moduli, 65537L);
      (wide_ctx, wide_moduli, 65537L);
      (big_ctx, big_moduli, 65537L);
      (standard.Params.ring, standard.Params.moduli, standard.Params.t_plain) ];
  Alcotest.check_raises "no drop" (Invalid_argument "Rq.switch_down: bad drop count")
    (fun () -> ignore (Rq.switch_down (random_rq 3) ~drops:0));
  Alcotest.check_raises "empties the chain" (Invalid_argument "Rq.switch_down: bad drop count")
    (fun () -> ignore (Rq.switch_down (random_rq 3) ~drops:4))

(* ------------------------------------------------------------------ *)
(* Samplers                                                            *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* The plaintext boundary: decode mod t and the encryption embedding    *)
(* ------------------------------------------------------------------ *)

(* Plaintext moduli of 17, 50 and 60 bits: 65537 and the largest
   primes ≡ 1 (mod 2n) of the wider sizes. *)
let boundary_ts =
  [ 65537L;
    Prime64.find_ntt_prime ~congruent_mod:(Int64.of_int (2 * n)) ~bits:50 ();
    Prime64.find_ntt_prime ~congruent_mod:(Int64.of_int (2 * n)) ~bits:60 () ]

(* 10-, 28-, 30- and 31-bit chains, and one mixing them (narrow and
   wide primes in both orders, so Garner's digits cross widths). *)
let boundary_chains =
  [ ("10-bit", small_moduli);
    ("28-bit", moduli);
    ("30-bit", wide_moduli);
    ("31-bit", big_moduli);
    ( "mixed",
      [| small_moduli.(0); big_moduli.(0); moduli.(0); wide_moduli.(0); small_moduli.(1);
         big_moduli.(1) |] ) ]

(* The centered lift's residue mod t, times [scale]: the Zint reference
   decode_mod_t replaces. *)
let reference_decode ?(scale = 1) ~t poly =
  let zt = Z.of_int64 t in
  Array.map
    (fun v -> Z.to_int_exn (Z.erem (Z.mul (Z.erem v zt) (Z.of_int scale)) zt))
    (Rq.to_zint_coeffs poly)

(* Coefficients in [0, Q) as centered values: the boundary values
   ±1, ±(Q-1)/2, (Q+1)/2, Q-1 and ±t, values within 40 of Q/2, then
   uniform ones. *)
let boundary_values rng ~q ~t =
  let half = Z.shift_right q 1 in
  let planted =
    [ Z.zero; Z.one; Z.minus_one; half; Z.neg half; Z.succ half; Z.pred q; Z.of_int64 t;
      Z.neg (Z.of_int64 t) ]
  in
  let near = List.init 41 (fun i -> Z.add half (Z.of_int (i - 20))) in
  let fixed = Array.of_list (planted @ near) in
  Array.init n (fun j ->
      if j < Array.length fixed then fixed.(j) else Z.random_below rng q)

let test_decode_matches_zint () =
  List.iter
    (fun t ->
      List.iter
        (fun (name, chain) ->
          let c = Rq.context ~n ~moduli:chain ~t in
          let rng = Rng.of_int (Array.length chain) in
          for k = 1 to Array.length chain do
            let q = Rq.modulus c ~nprimes:k in
            for round = 0 to 1 do
              let values =
                if round = 0 then boundary_values rng ~q ~t
                else Array.init n (fun _ -> Z.random_below rng q)
              in
              let poly = Rq.of_zint_coeffs c ~nprimes:k Rq.Coeff values in
              let msg what = Printf.sprintf "%s chain, t %Ld, level %d: %s" name t k what in
              let expected = reference_decode ~t poly in
              Alcotest.(check (array int)) (msg "decode") expected (Rq.decode_mod_t poly);
              Alcotest.(check (array int)) (msg "decode from Eval") expected
                (Rq.decode_mod_t (Rq.to_eval poly));
              let scale = Int64.to_int (Util.Rng.int64_below rng t) in
              Alcotest.(check (array int)) (msg "scaled decode")
                (reference_decode ~scale ~t poly)
                (Rq.decode_mod_t ~scale poly);
              let one_coeff =
                Array.init n (fun j ->
                    Rq.decode_residues_mod_t c
                      (Array.init k (fun i -> (Rq.unsafe_component poly i).(j))))
              in
              Alcotest.(check (array int)) (msg "residue vector") expected one_coeff
            done
          done)
        boundary_chains)
    boundary_ts

(* One chunked flood: per_coeff 30-bit chunks (the first [top] bits
   wide) and its value F_j = Σ chunks·2^(30·place) - 2^offset_bits. *)
let flood_of rng ~offset_bits =
  let bits = offset_bits + 1 in
  let per_coeff = (bits + 29) / 30 in
  let top = bits - (30 * (per_coeff - 1)) in
  let chunks =
    Array.init (n * per_coeff) (fun i ->
        Util.Rng.int_below rng (1 lsl (if i mod per_coeff = 0 then top else 30)))
  in
  let value j =
    let acc = ref Z.zero in
    for c = 0 to per_coeff - 1 do
      acc := Z.add (Z.shift_left !acc 30) (Z.of_int chunks.((j * per_coeff) + c))
    done;
    Z.sub !acc (Z.shift_left Z.one offset_bits)
  in
  ({ Rq.chunks; per_coeff; offset_bits }, Array.init n value)

(* Rq.embed_noise against embedding each addend, transforming it and
   adding: on 30-bit primes (sign fold, Barrett plaintext and flood),
   10-bit, 28-bit and 31-bit primes (their mod fallbacks), with bounds
   below every prime, between the two 10-bit primes, and above both. *)
let test_embed_matches_composition () =
  let t50 = List.nth boundary_ts 1 in
  List.iter
    (fun (name, chain, t) ->
      let c = Rq.context ~n ~moduli:chain ~t in
      let rng = Rng.of_int 77 in
      List.iter
        (fun bound ->
          for nprimes = 1 to Array.length chain do
            let e = Array.init n (fun _ -> Util.Rng.int_range rng (-bound) bound) in
            e.(0) <- bound;
            e.(1) <- -bound;
            let plain = Array.init n (fun _ -> Util.Rng.int64_below rng t) in
            plain.(0) <- Int64.pred t;
            let flood, fvalues = flood_of rng ~offset_bits:100 in
            let small = Rq.of_small_coeffs c ~nprimes Rq.Eval e in
            let scaled x = Rq.mul_scalar x t in
            let m = Rq.of_int64_coeffs c ~nprimes Rq.Eval plain in
            let f = Rq.of_zint_coeffs c ~nprimes Rq.Eval fvalues in
            let msg what = Printf.sprintf "%s, bound %d, %d primes: %s" name bound nprimes what in
            check_comps (msg "t·e") (Array.sub chain 0 nprimes)
              (Array.init nprimes (Rq.component (scaled small)))
              (Rq.embed_noise c ~nprimes ~bound e);
            check_comps (msg "t·e + m") (Array.sub chain 0 nprimes)
              (Array.init nprimes (Rq.component (Rq.add (scaled small) m)))
              (Rq.embed_noise ~plain c ~nprimes ~bound e);
            check_comps (msg "t·e + m + t·F") (Array.sub chain 0 nprimes)
              (Array.init nprimes (Rq.component (Rq.add (Rq.add (scaled small) m) (scaled f))))
              (Rq.embed_noise ~plain ~flood c ~nprimes ~bound e);
            List.iter
              (fun domain ->
                check_eq (msg "of_small_coeffs ~bound")
                  (Rq.of_small_coeffs c ~nprimes domain e)
                  (Rq.of_small_coeffs ~bound c ~nprimes domain e))
              [ Rq.Coeff; Rq.Eval ]
          done)
        [ 2; 700; 2000 ])
    [ ("30-bit", wide_moduli, t50);
      ("10-bit", small_moduli, 65537L);
      ("28-bit", moduli, t50);
      ("31-bit", big_moduli, t50) ]

let test_ternary_sampler () =
  let rng = Rng.of_int 12 in
  let counts = Array.make 3 0 in
  for _ = 1 to 100 do
    Array.iter
      (fun v ->
        Alcotest.(check bool) "ternary range" true (v >= -1 && v <= 1);
        counts.(v + 1) <- counts.(v + 1) + 1)
      (Sampler.ternary_coeffs rng ~n)
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool) (Printf.sprintf "value %d appears fairly" (i - 1)) true
        (c > 1600 && c < 2700))
    counts

let test_cbd_sampler () =
  let rng = Rng.of_int 13 in
  let eta = 3 in
  let sum = ref 0 and total = ref 0 in
  for _ = 1 to 200 do
    Array.iter
      (fun v ->
        Alcotest.(check bool) "cbd range" true (abs v <= eta);
        sum := !sum + v;
        incr total)
      (Sampler.cbd_coeffs rng ~n ~eta)
  done;
  let mean = float_of_int !sum /. float_of_int !total in
  Alcotest.(check bool) "centered" true (Float.abs mean < 0.1)

let test_uniform_sampler_range () =
  let u = random_rq 14 in
  for i = 0 to 3 do
    Array.iter
      (fun v -> Alcotest.(check bool) "residue range" true (v >= 0 && v < moduli.(i)))
      (Rq.component u i)
  done

let prop_mul_matches_zint_convolution =
  (* RNS/NTT multiplication agrees with exact negacyclic convolution
     over the integers followed by reduction. *)
  QCheck.Test.make ~count:30 ~name:"Rq.mul = exact negacyclic conv mod q"
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.of_int seed in
      let small () = Array.init n (fun _ -> Rng.int_range rng (-50) 50) in
      let a = small () and b = small () in
      let exact = Array.make n Z.zero in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let p = Z.of_int (a.(i) * b.(j)) in
          let k = i + j in
          if k < n then exact.(k) <- Z.add exact.(k) p
          else exact.(k - n) <- Z.sub exact.(k - n) p
        done
      done;
      let via_rq =
        Rq.mul
          (Rq.of_small_coeffs ctx ~nprimes:4 Rq.Eval a)
          (Rq.of_small_coeffs ctx ~nprimes:4 Rq.Eval b)
      in
      Rq.equal via_rq (Rq.of_zint_coeffs ctx ~nprimes:4 Rq.Eval exact))

let () =
  Alcotest.run "ring"
    [ ("crt",
       [ Alcotest.test_case "roundtrip" `Quick test_crt_roundtrip;
         Alcotest.test_case "centered" `Quick test_crt_centered;
         Alcotest.test_case "validation" `Quick test_crt_validation ]);
      ("rq",
       [ Alcotest.test_case "ring axioms" `Quick test_ring_axioms;
         Alcotest.test_case "domain conversions" `Quick test_domain_conversions;
         Alcotest.test_case "coefficient embeddings" `Quick test_coeff_embeddings_agree;
         Alcotest.test_case "scalar ops" `Quick test_scalar_ops;
         Alcotest.test_case "truncate" `Quick test_truncate_level;
         Alcotest.test_case "substitute" `Quick test_substitute;
         Alcotest.test_case "destructive variants" `Quick test_into_variants_match_pure;
         Alcotest.test_case "residue kernels = naive mod" `Quick test_residue_kernels_naive;
         Alcotest.test_case "sum_sq_diff = mul_add_into of subs" `Quick
           test_sum_sq_diff_matches_mul_add;
         Alcotest.test_case "sum = mul_add_into fold" `Quick test_sum_matches_mul_add;
         Alcotest.test_case "switch_down = naive mod" `Quick test_switch_down_naive ]);
      ("monomial", [ Alcotest.test_case "fold = negacyclic shifts" `Quick test_fold_monomials_naive ]);
      ("boundary",
       [ Alcotest.test_case "decode mod t = Crt lift + erem" `Quick test_decode_matches_zint;
         Alcotest.test_case "embed_noise = embed, transform, add" `Quick
           test_embed_matches_composition ]);
      ("samplers",
       [ Alcotest.test_case "ternary" `Quick test_ternary_sampler;
         Alcotest.test_case "cbd" `Quick test_cbd_sampler;
         Alcotest.test_case "uniform range" `Quick test_uniform_sampler_range ]);
      ("properties",
       List.map QCheck_alcotest.to_alcotest [ prop_mul_matches_zint_convolution ]) ]
