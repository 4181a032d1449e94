(* Tests for the BGV layer: parameters, plaintext packing, encryption
   round-trips, homomorphic semantics (slot-wise), modulus switching,
   relinearisation, noise accounting and ciphertext metadata. *)

module Rng = Util.Rng

let params = Params.toy ()
let tp = params.Params.t_plain
let nslots = Params.slot_count params

let rng () = Rng.of_int 1234

let keys = Bgv.keygen (rng ()) params

let random_slots seed =
  let r = Rng.of_int seed in
  Array.init nslots (fun _ -> Rng.int64_below r tp)

let enc ?seed slots =
  let r = Rng.of_int (Option.value ~default:99 seed) in
  Bgv.encrypt r keys.Bgv.pk (Plaintext.of_slots params slots)

let dec ct = Plaintext.to_slots (Bgv.decrypt keys.Bgv.sk ct)

let check_slots msg expected actual =
  Alcotest.(check (array int64)) msg expected actual

let map2 f a b = Array.init (Array.length a) (fun i -> f a.(i) b.(i))

(* ------------------------------------------------------------------ *)
(* Params                                                              *)
(* ------------------------------------------------------------------ *)

let test_params_presets () =
  List.iter
    (fun p ->
      let open Params in
      Alcotest.(check bool) (p.name ^ ": t prime") true (Prime64.is_prime p.t_plain);
      Alcotest.(check int64) (p.name ^ ": t = 1 mod 2n") 1L
        (Int64.rem p.t_plain (Int64.of_int (2 * p.n)));
      Array.iter
        (fun m ->
          Alcotest.(check bool) (p.name ^ ": chain prime") true
            (Prime64.is_prime (Int64.of_int m));
          Alcotest.(check int) (p.name ^ ": chain = 1 mod 2n") 1 (m mod (2 * p.n)))
        p.moduli;
      let distinct = List.sort_uniq compare (Array.to_list p.moduli) in
      Alcotest.(check int) (p.name ^ ": distinct") (Array.length p.moduli)
        (List.length distinct);
      Alcotest.(check bool) (p.name ^ ": log2 q > 0") true (Params.log2_q p > 0.0))
    [ Params.toy (); Params.bench_small () ]

let test_params_security_estimate () =
  (* The secure preset must report >= 128 bits; toy is nowhere near. *)
  Alcotest.(check bool) "secure >= 120" true
    (Params.security_bits (Params.secure ()) >= 120.0);
  Alcotest.(check bool) "toy is toy" true (Params.security_bits (Params.toy ()) < 32.0)

let test_params_validation () =
  Alcotest.check_raises "plain_bits too large"
    (Invalid_argument "Params.create: plain_bits > 50")
    (fun () ->
      ignore (Params.create ~name:"x" ~n:256 ~plain_bits:60 ~prime_bits:30 ~chain_len:2 ()));
  Alcotest.check_raises "n not a power of two"
    (Invalid_argument "Params.create: n not a power of two")
    (fun () ->
      ignore (Params.create ~name:"x" ~n:100 ~plain_bits:20 ~prime_bits:30 ~chain_len:2 ()))

let test_params_infeasible () =
  (* Structured infeasibility, distinct from programmer errors: these
     are legitimate empty points of a parameter search. *)
  let probe ~n ~plain_bits ~prime_bits ~chain_len =
    Params.probe ~name:"inf" ~n ~plain_bits ~prime_bits ~chain_len ()
  in
  (* Any prime = 1 mod 2n exceeds 2^plain_bits when plain_bits is
     smaller than log2(2n). *)
  (match probe ~n:4096 ~plain_bits:10 ~prime_bits:30 ~chain_len:2 with
   | exception Params.Infeasible (Params.No_plain_prime { n = 4096; plain_bits = 10 })
     -> ()
   | exception e -> Alcotest.failf "expected No_plain_prime, got %s" (Printexc.to_string e)
   | _ -> Alcotest.fail "expected No_plain_prime");
  (match probe ~n:256 ~plain_bits:20 ~prime_bits:31 ~chain_len:2 with
   | exception Params.Infeasible (Params.Prime_bits_too_large { prime_bits = 31; _ })
     -> ()
   | exception e ->
     Alcotest.failf "expected Prime_bits_too_large, got %s" (Printexc.to_string e)
   | _ -> Alcotest.fail "expected Prime_bits_too_large");
  (* The (prime_bits, 2n) window holds only finitely many NTT primes;
     ask for more than it can contain. *)
  (match probe ~n:8192 ~plain_bits:20 ~prime_bits:16 ~chain_len:8 with
   | exception Params.Infeasible (Params.Chain_exhausted { n = 8192; _ }) -> ()
   | exception e ->
     Alcotest.failf "expected Chain_exhausted, got %s" (Printexc.to_string e)
   | _ -> Alcotest.fail "expected Chain_exhausted");
  (* describe_infeasibility renders each reason. *)
  List.iter
    (fun reason ->
      Alcotest.(check bool) "description nonempty" true
        (String.length (Params.describe_infeasibility reason) > 0))
    [ Params.No_plain_prime { n = 4096; plain_bits = 10 };
      Params.Prime_bits_too_large { prime_bits = 31; limit = 30 };
      Params.Chain_exhausted { n = 8192; prime_bits = 16; chain_len = 8 } ]

let test_security_bits_monotone () =
  (* At fixed n: more modulus, fewer bits.  At fixed modulus: a larger
     ring, more bits.  Strict in-table, non-strict at the clamps. *)
  List.iter
    (fun n ->
      let prev = ref infinity in
      for q10 = 2 to 60 do
        let log2_q = float_of_int (q10 * 10) in
        let s = Params.security_bits_for ~n ~log2_q in
        Alcotest.(check bool)
          (Printf.sprintf "n=%d decreasing in q (log2 q=%g)" n log2_q)
          true
          (s <= !prev +. 1e-9);
        prev := s
      done)
    [ 256; 1024; 4096; 32768 ];
  List.iter
    (fun log2_q ->
      let prev = ref 0.0 in
      List.iter
        (fun n ->
          let s = Params.security_bits_for ~n ~log2_q in
          Alcotest.(check bool)
            (Printf.sprintf "log2 q=%g increasing in n (n=%d)" log2_q n)
            true
            (s >= !prev -. 1e-9);
          prev := s)
        [ 64; 128; 256; 512; 1024; 2048; 4096; 8192; 16384; 32768 ])
    [ 60.0; 109.0; 218.0 ];
  (* The homomorphicencryption.org anchors: at the table's (n, log2 q)
     rows the estimate is exactly 128 bits. *)
  List.iter
    (fun (n, log2_q) ->
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "anchor n=%d" n)
        128.0
        (Params.security_bits_for ~n ~log2_q))
    [ (1024, 27.0); (2048, 54.0); (4096, 109.0); (8192, 218.0); (16384, 438.0);
      (32768, 881.0) ]

let test_probe_matches_create () =
  (* of_probe (probe ...) = create ..., and probe_of_t inverts it. *)
  let spec = (256, 18, 28, 3) in
  let n, plain_bits, prime_bits, chain_len = spec in
  let p = Params.create ~name:"rt" ~n ~plain_bits ~prime_bits ~chain_len () in
  let pr = Params.probe ~name:"rt" ~n ~plain_bits ~prime_bits ~chain_len () in
  Alcotest.(check int64) "same plaintext prime" p.Params.t_plain pr.Params.pr_t_plain;
  Alcotest.(check (array int)) "same chain" p.Params.moduli pr.Params.pr_moduli;
  let back = Params.probe_of_t p in
  Alcotest.(check int64) "probe_of_t plaintext prime" pr.Params.pr_t_plain
    back.Params.pr_t_plain;
  Alcotest.(check (array int)) "probe_of_t chain" pr.Params.pr_moduli
    back.Params.pr_moduli;
  Alcotest.(check (float 1e-9)) "probe_log2_q matches" (Params.log2_q p)
    (Params.probe_log2_q pr)

(* ------------------------------------------------------------------ *)
(* Plaintext                                                           *)
(* ------------------------------------------------------------------ *)

let test_plaintext_roundtrips () =
  let slots = random_slots 1 in
  check_slots "slots roundtrip" slots (Plaintext.to_slots (Plaintext.of_slots params slots));
  let coeffs = random_slots 2 in
  Alcotest.(check (array int64)) "coeffs roundtrip" coeffs
    (Plaintext.to_coeffs (Plaintext.of_coeffs params coeffs))

let test_plaintext_constant () =
  let pt = Plaintext.constant params 42L in
  Array.iter (fun v -> Alcotest.(check int64) "const slot" 42L v) (Plaintext.to_slots pt);
  Alcotest.(check int64) "slot accessor" 42L (Plaintext.slot pt 17)

let test_plaintext_negative_input () =
  let pt = Plaintext.constant params (-1L) in
  Alcotest.(check int64) "-1 reduced" (Int64.pred tp) (Plaintext.slot pt 0)

let test_plaintext_arith () =
  let a = random_slots 3 and b = random_slots 4 in
  let pa = Plaintext.of_slots params a and pb = Plaintext.of_slots params b in
  check_slots "add" (map2 (Mod64.add tp) a b) (Plaintext.to_slots (Plaintext.add pa pb));
  check_slots "sub" (map2 (Mod64.sub tp) a b) (Plaintext.to_slots (Plaintext.sub pa pb));
  check_slots "mul" (map2 (Mod64.mul tp) a b) (Plaintext.to_slots (Plaintext.mul pa pb));
  check_slots "scale" (Array.map (fun x -> Mod64.mul tp x 7L) a)
    (Plaintext.to_slots (Plaintext.scale pa 7L))

(* ------------------------------------------------------------------ *)
(* Encryption round-trips                                              *)
(* ------------------------------------------------------------------ *)

let test_roundtrip () =
  let slots = random_slots 5 in
  check_slots "enc/dec" slots (dec (enc slots))

let test_roundtrip_edge_values () =
  let edge = Array.make nslots 0L in
  edge.(0) <- Int64.pred tp;
  edge.(1) <- 1L;
  edge.(2) <- Int64.div tp 2L;
  check_slots "edge values" edge (dec (enc edge))

let test_fresh_metadata () =
  let ct = enc (random_slots 6) in
  Alcotest.(check int) "degree" 1 (Bgv.degree ct);
  Alcotest.(check int) "level" (Params.chain_length params) (Bgv.level ct);
  Alcotest.(check bool) "budget positive" true (Bgv.noise_budget_bits ct > 0.0);
  Alcotest.(check bool) "byte size" true
    (Bgv.byte_size ct = (2 * Bgv.level ct * params.Params.n * 4) + 40)

let test_encryption_randomized () =
  (* Two encryptions of the same plaintext are different ciphertexts. *)
  let slots = random_slots 7 in
  let c1 = enc ~seed:1 slots and c2 = enc ~seed:2 slots in
  check_slots "both decrypt" (dec c1) (dec c2);
  (* Sizes equal but content differs: compare via serialised noise path —
     subtracting should give an encryption of 0 with nonzero body. *)
  let diff = dec (Bgv.sub c1 c2) in
  Array.iter (fun v -> Alcotest.(check int64) "same plaintext" 0L v) diff

(* ------------------------------------------------------------------ *)
(* Homomorphic semantics                                               *)
(* ------------------------------------------------------------------ *)

let test_add_sub_neg () =
  let a = random_slots 8 and b = random_slots 9 in
  let ca = enc a and cb = enc b in
  check_slots "hom add" (map2 (Mod64.add tp) a b) (dec (Bgv.add ca cb));
  check_slots "hom sub" (map2 (Mod64.sub tp) a b) (dec (Bgv.sub ca cb));
  check_slots "hom neg" (Array.map (Mod64.neg tp) a) (dec (Bgv.neg ca))

let test_add_plain_and_const () =
  let a = random_slots 10 and b = random_slots 11 in
  let ca = enc a in
  check_slots "add_plain" (map2 (Mod64.add tp) a b)
    (dec (Bgv.add_plain ca (Plaintext.of_slots params b)));
  check_slots "add_const" (Array.map (fun x -> Mod64.add tp x 17L) a)
    (dec (Bgv.add_const ca 17L))

let test_mul_plain_scalar () =
  let a = random_slots 12 and b = random_slots 13 in
  let ca = enc a in
  check_slots "mul_plain" (map2 (Mod64.mul tp) a b)
    (dec (Bgv.mul_plain ca (Plaintext.of_slots params b)));
  check_slots "mul_scalar" (Array.map (fun x -> Mod64.mul tp x 1000L) a)
    (dec (Bgv.mul_scalar ca 1000L))

let test_mul_relin () =
  let a = random_slots 14 and b = random_slots 15 in
  let ca = enc a and cb = enc b in
  let prod = Bgv.mul ~rlk:keys.Bgv.rlk ca cb in
  Alcotest.(check int) "relinearised to degree 1" 1 (Bgv.degree prod);
  Alcotest.(check bool) "rescaled below top level" true
    (Bgv.level prod < Params.chain_length params);
  check_slots "hom mul" (map2 (Mod64.mul tp) a b) (dec prod)

let test_mul_no_relin () =
  let a = random_slots 16 and b = random_slots 17 in
  let prod = Bgv.mul (enc a) (enc b) in
  Alcotest.(check int) "degree 2" 2 (Bgv.degree prod);
  check_slots "degree-2 decrypt" (map2 (Mod64.mul tp) a b) (dec prod)

let test_mul_depth_chain () =
  (* x, x^2, x^3, x^4 with relinearisation at every step. *)
  let a = random_slots 18 in
  let ct = enc a in
  let acc = ref ct and expect = ref (Array.copy a) in
  for _ = 2 to 4 do
    acc := Bgv.mul ~rlk:keys.Bgv.rlk !acc (Bgv.truncate_to_level ct (Bgv.level !acc));
    expect := map2 (Mod64.mul tp) !expect a;
    check_slots "power" !expect (dec !acc)
  done;
  Alcotest.(check bool) "budget still positive" true (Bgv.noise_budget_bits !acc > 0.0)

let test_mul_high_degree_no_relin () =
  (* Degree-4 ciphertext via two tensor squarings. *)
  let a = random_slots 19 in
  let ct = enc a in
  let sq = Bgv.mul ct ct in
  let quad = Bgv.mul sq (Bgv.truncate_to_level sq (Bgv.level sq)) in
  Alcotest.(check int) "degree 4" 4 (Bgv.degree quad);
  let expect = Array.map (fun x -> Mod64.pow tp x 4L) a in
  check_slots "x^4" expect (dec quad)

let test_relinearize_explicit () =
  let a = random_slots 20 in
  let ct = enc a in
  let sq = Bgv.mul ~rescale:false ct ct in
  Alcotest.(check int) "tensor degree 2" 2 (Bgv.degree sq);
  let rl = Bgv.relinearize keys.Bgv.rlk sq in
  Alcotest.(check int) "relin degree 1" 1 (Bgv.degree rl);
  check_slots "same plaintext" (dec sq) (dec rl);
  Alcotest.check_raises "wrong degree" (Invalid_argument "Bgv.relinearize: degree <> 2")
    (fun () -> ignore (Bgv.relinearize keys.Bgv.rlk ct))

(* ------------------------------------------------------------------ *)
(* The plaintext boundary against the Zint and four-NTT references    *)
(* ------------------------------------------------------------------ *)

(* The toy preset (27-bit primes, 20-bit t: the flood's mod fallback)
   and the standard preset's shape (30-bit primes, 50-bit t: every
   Barrett path). *)
let standard_shape =
  Params.create ~name:"boundary-standard" ~n:64 ~plain_bits:50 ~prime_bits:30 ~chain_len:10 ()

let boundary_sets =
  [ (params, keys); (standard_shape, Bgv.keygen (Rng.of_int 4321) standard_shape) ]

(* Residue arrays serialised as in ct_to_bytes' body: component-major,
   prime-major, 4 bytes each. *)
let body_of comps =
  let buf = Buffer.create 1024 in
  Array.iter
    (fun c ->
      for i = 0 to Rq.nprimes c - 1 do
        Array.iter (fun v -> Buffer.add_int32_le buf (Int32.of_int v)) (Rq.unsafe_component c i)
      done)
    comps;
  Buffer.to_bytes buf

let ct_header = 40

let read_rq (p : Params.t) bytes ~off ~nprimes =
  let n = p.Params.n in
  Rq.of_components p.Params.ring Rq.Eval
    (Array.init nprimes (fun i ->
         Array.init n (fun j ->
             Int32.to_int (Bytes.get_int32_le bytes (off + (4 * ((i * n) + j)))) land 0xFFFFFFFF)))

let ct_comps p ct =
  let bytes = Bgv.ct_to_bytes ct and k = Bgv.level ct in
  Array.init (Bgv.degree ct + 1) (fun c ->
      read_rq p bytes ~off:(ct_header + (4 * c * k * p.Params.n)) ~nprimes:k)

let ct_factor ct = Bytes.get_int64_le (Bgv.ct_to_bytes ct) 20

let check_body msg ct comps =
  let bytes = Bgv.ct_to_bytes ct in
  Alcotest.(check bool) msg true
    (Bytes.equal (Bytes.sub bytes ct_header (Bytes.length bytes - ct_header)) (body_of comps))

let numbits64 v =
  let rec go acc v = if Int64.equal v 0L then acc else go (acc + 1) (Int64.shift_right_logical v 1) in
  go 0 v

(* The previous encryption, from public Rq ops: u, e0, m and e1 each
   embedded and transformed on its own (four forward NTT sets), then
   c0 = b·u + t·e0 + m and c1 = a·u + t·e1. *)
let reference_encrypt (p : Params.t) pk ~nprimes rng coeffs =
  let ring = p.Params.ring and n = p.Params.n and t = p.Params.t_plain in
  let full = Params.chain_length p in
  let pkb = Bgv.pk_to_bytes pk in
  let b = Rq.truncate (read_rq p pkb ~off:20 ~nprimes:full) ~nprimes in
  let a = Rq.truncate (read_rq p pkb ~off:(20 + (4 * full * n)) ~nprimes:full) ~nprimes in
  let u = Rq.of_small_coeffs ring ~nprimes Rq.Eval (Sampler.ternary_coeffs rng ~n) in
  let noise () =
    Rq.mul_scalar
      (Rq.of_small_coeffs ring ~nprimes Rq.Eval (Sampler.cbd_coeffs rng ~n ~eta:p.Params.eta))
      t
  in
  let m = Rq.of_int64_coeffs ring ~nprimes Rq.Eval coeffs in
  let e0 = noise () in
  let e1 = noise () in
  [| Rq.add (Rq.add (Rq.mul b u) e0) m; Rq.add (Rq.mul a u) e1 |]

(* The previous flood: t·F built per prime with mod, by Horner steps
   over the 30-bit chunks, then its own forward NTT. *)
let reference_flood (p : Params.t) ~nprimes ~fb rng =
  let n = p.Params.n and t = p.Params.t_plain in
  let bits = fb + 1 in
  let nchunks = (bits + 29) / 30 in
  let top = bits - (30 * (nchunks - 1)) in
  let chunks =
    Array.init (n * nchunks) (fun i ->
        let w = if i mod nchunks = 0 then top else 30 in
        Int64.to_int (Int64.shift_right_logical (Rng.bits64 rng) (64 - w)))
  in
  let comps =
    Array.init nprimes (fun i ->
        let pi = p.Params.moduli.(i) in
        let pi64 = Int64.of_int pi in
        let offset = Int64.to_int (Mod64.pow pi64 2L (Int64.of_int fb)) in
        Array.init n (fun j ->
            let r = ref 0 in
            for c = 0 to nchunks - 1 do
              r := ((!r lsl 30) + chunks.((j * nchunks) + c)) mod pi
            done;
            let f = (!r - offset + pi) mod pi in
            Int64.to_int (Mod64.mul pi64 (Int64.of_int f) (Int64.rem t pi64))))
  in
  Rq.to_eval (Rq.of_components p.Params.ring Rq.Coeff comps)

let test_encrypt_matches_reference () =
  List.iter
    (fun ((p : Params.t), (ks : Bgv.keys)) ->
      for level = 1 to Params.chain_length p do
        List.iter
          (fun seed ->
            let coeffs =
              Array.init p.Params.n (fun j ->
                  if j = 0 then Int64.pred p.Params.t_plain
                  else Rng.int64_below (Rng.of_int (seed + j)) p.Params.t_plain)
            in
            let pt = Plaintext.of_coeffs p coeffs in
            let c = Util.Counters.create () in
            let ct = Bgv.encrypt ~counters:c ~level (Rng.of_int seed) ks.Bgv.pk pt in
            let msg = Printf.sprintf "%s L%d seed %d" p.Params.name level seed in
            check_body (msg ^ ": bytes") ct
              (reference_encrypt p ks.Bgv.pk ~nprimes:level (Rng.of_int seed) coeffs);
            Alcotest.(check int) (msg ^ ": level") level (Bgv.level ct);
            Alcotest.(check int64) (msg ^ ": factor") 1L (ct_factor ct);
            Alcotest.(check int) (msg ^ ": three forward NTT sets") 3
              (Util.Counters.op_count c Util.Counters.Op_ntt_fwd ~level))
          [ 5; 6 ]
      done)
    boundary_sets

(* rerandomize: the reference encryption of zero plus the reference
   flood on c0, scaled to the ciphertext's factor and added, on a fresh
   ciphertext and on switched ones (factor ≠ 1) at every level the flood
   fits under. *)
let test_rerandomize_matches_reference () =
  List.iter
    (fun ((p : Params.t), (ks : Bgv.keys)) ->
      let fresh = Bgv.encrypt (Rng.of_int 11) ks.Bgv.pk (Plaintext.constant p 7L) in
      let ladder = ref [ fresh ] in
      for _ = 2 to Params.chain_length p do
        ladder := Bgv.modswitch (List.hd !ladder) :: !ladder
      done;
      let t_bits = numbits64 p.Params.t_plain in
      let flood_bits = t_bits + 30 in
      let flooded = ref 0 in
      List.iter
        (fun ct ->
          let level = Bgv.level ct in
          if float_of_int flood_bits < Util.Noise_model.log2_q p.Params.noise ~level -. 1.0 then begin
            incr flooded;
            let c = Util.Counters.create () in
            let live =
              Bgv.rerandomize ~counters:c ~flood_bits (Rng.of_int (90 + level)) ks.Bgv.pk ct
            in
            let rng = Rng.of_int (90 + level) in
            let z = reference_encrypt p ks.Bgv.pk ~nprimes:level rng (Array.make p.Params.n 0L) in
            let z0 = Rq.add z.(0) (reference_flood p ~nprimes:level ~fb:(flood_bits - t_bits) rng) in
            let f = ct_factor ct in
            let comps = ct_comps p ct in
            let expected =
              [| Rq.add comps.(0) (Rq.mul_scalar z0 f); Rq.add comps.(1) (Rq.mul_scalar z.(1) f) |]
            in
            let msg = Printf.sprintf "%s L%d factor %Ld" p.Params.name level f in
            check_body (msg ^ ": bytes") live expected;
            Alcotest.(check int) (msg ^ ": no NTT set for the flood") 3
              (Util.Counters.op_count c Util.Counters.Op_ntt_fwd ~level)
          end)
        !ladder;
      Alcotest.(check bool) (p.Params.name ^ ": floods at several levels") true (!flooded > 1))
    boundary_sets

(* The Zint reference: c0 + c1·s + … lifted to (-Q/2, Q/2], reduced
   mod t with Zint, times factor⁻¹ mod t. *)
let reference_decrypt (p : Params.t) (ks : Bgv.keys) ct =
  let n = p.Params.n and t = p.Params.t_plain in
  let skb = Bgv.sk_to_bytes ks.Bgv.sk in
  let s_coeffs = Array.init n (fun i -> Bytes.get_int8 skb (16 + i)) in
  let s = Rq.of_small_coeffs p.Params.ring ~nprimes:(Bgv.level ct) Rq.Eval s_coeffs in
  let comps = ct_comps p ct in
  let acc = ref comps.(0) and power = ref s in
  for i = 1 to Array.length comps - 1 do
    acc := Rq.add !acc (Rq.mul comps.(i) !power);
    power := Rq.mul !power s
  done;
  let zt = Zint.of_int64 t in
  let f_inv = Mod64.inv t (ct_factor ct) in
  Array.map
    (fun v -> Mod64.mul t (Int64.of_int (Zint.to_int_exn (Zint.erem v zt))) f_inv)
    (Rq.to_zint_coeffs !acc)

(* Degrees 1 to 4 at every level, and switched ciphertexts (factor ≠ 1):
   each decrypts to the reference, or raises Decryption_failure exactly
   when its tracked budget is spent. *)
let test_decrypt_matches_reference () =
  List.iter
    (fun ((p : Params.t), (ks : Bgv.keys)) ->
      let raised = ref 0 and decoded = ref 0 in
      let check ct =
        let msg =
          Printf.sprintf "%s degree %d L%d factor %Ld" p.Params.name (Bgv.degree ct)
            (Bgv.level ct) (ct_factor ct)
        in
        if Bgv.noise_budget_bits ct <= 0.0 then begin
          incr raised;
          let raises f =
            try
              ignore (f ());
              false
            with Bgv.Decryption_failure _ -> true
          in
          Alcotest.(check bool) (msg ^ ": decrypt raises") true
            (raises (fun () -> Bgv.decrypt ks.Bgv.sk ct));
          Alcotest.(check bool) (msg ^ ": decrypt_coeff0 raises") true
            (raises (fun () -> Bgv.decrypt_coeff0 ks.Bgv.sk ct))
        end
        else begin
          incr decoded;
          let expected = reference_decrypt p ks ct in
          Alcotest.(check (array int64)) (msg ^ ": decrypt") expected
            (Plaintext.to_coeffs (Bgv.decrypt ks.Bgv.sk ct));
          Alcotest.(check int64) (msg ^ ": decrypt_coeff0") expected.(0)
            (Bgv.decrypt_coeff0 ks.Bgv.sk ct)
        end
      in
      for level = 1 to Params.chain_length p do
        let slots = Array.init p.Params.n (fun j -> Int64.of_int ((j * 7919) + level)) in
        let x = Bgv.encrypt ~level (Rng.of_int level) ks.Bgv.pk (Plaintext.of_slots p slots) in
        let sq = Bgv.mul ~rescale:false x x in
        let cube = Bgv.mul ~rescale:false sq x in
        let quad = Bgv.mul ~rescale:false sq sq in
        List.iter check [ x; sq; cube; quad ];
        if level >= 2 then List.iter check [ Bgv.modswitch x; Bgv.modswitch sq ]
      done;
      Alcotest.(check bool) (p.Params.name ^ ": some decrypt raises") true (!raised > 0);
      Alcotest.(check bool) (p.Params.name ^ ": some decrypt decodes") true (!decoded > 0))
    boundary_sets

(* ------------------------------------------------------------------ *)
(* Fused and chained kernels against the sequences they replace        *)
(* ------------------------------------------------------------------ *)

let chain = Params.chain_length params

let enc_at ~level seed =
  Bgv.encrypt ~level (Rng.of_int seed) keys.Bgv.pk (Plaintext.of_slots params (random_slots seed))

let check_bytes msg a b =
  Alcotest.(check bool) msg true (Bytes.equal (Bgv.ct_to_bytes a) (Bgv.ct_to_bytes b))

let test_sum_sq_diff_matches_mul_sum () =
  List.iter
    (fun level ->
      List.iter
        (fun d ->
          let a = Array.init d (fun j -> enc_at ~level (100 + j)) in
          let b = Array.init d (fun j -> enc_at ~level (200 + j)) in
          List.iter
            (fun rlk ->
              let msg =
                Printf.sprintf "d=%d L%d%s" d level (if rlk = None then "" else " relin")
              in
              let c_fused = Util.Counters.create () and c_seq = Util.Counters.create () in
              let fused = Bgv.sum_sq_diff ~counters:c_fused ?rlk a b in
              let diffs = Array.map2 (Bgv.sub ~counters:c_seq) a b in
              let seq = Bgv.mul_sum ~counters:c_seq ?rlk diffs diffs in
              check_bytes (msg ^ ": bytes") seq fused;
              Alcotest.(check bool) (msg ^ ": ledger") true
                (Util.Counters.equal_ledger c_seq c_fused))
            [ None; Some keys.Bgv.rlk ])
        [ 1; 3; 32 ])
    [ chain; 5; 2 ]

let test_sum_sq_diff_rejects () =
  let reject msg a b =
    Alcotest.check_raises msg
      (Invalid_argument "Bgv.sum_sq_diff: inputs must share params, level, factor and degree 1")
      (fun () -> ignore (Bgv.sum_sq_diff a b))
  in
  (* Same level, different factors: a modswitch leaves q⁻¹ mod t. *)
  let switched = Bgv.modswitch (enc_at ~level:chain 51) in
  let fresh = enc_at ~level:(chain - 1) 52 in
  reject "mixed factors" [| fresh; fresh |] [| fresh; switched |];
  reject "mixed factors (first operand)" [| switched |] [| fresh |];
  reject "mixed levels" [| enc_at ~level:chain 53 |] [| fresh |];
  let sq = Bgv.mul ~rescale:false fresh fresh in
  reject "degree 2" [| sq |] [| sq |];
  Alcotest.check_raises "empty" (Invalid_argument "Bgv.sum_sq_diff: empty or mismatched inputs")
    (fun () -> ignore (Bgv.sum_sq_diff [||] [||]))

(* The shared accumulator needs one factor across terms: a modswitched
   operand among fresh ones is refused, as sum_sq_diff refuses it. *)
let test_mul_sum_rejects () =
  let switched = Bgv.modswitch (enc_at ~level:chain 54) in
  let fresh = enc_at ~level:(chain - 1) 55 in
  Alcotest.check_raises "mixed factors" (Invalid_argument "Bgv.mul_sum: terms must share one factor")
    (fun () -> ignore (Bgv.mul_sum [| fresh; fresh |] [| fresh; switched |]))

(* High-noise ciphertexts of degree 1, 2 and 4 at [level], so that
   rescale_to_floor switches more than once. *)
let noisy ~level degree =
  let x = enc_at ~level (60 + level) in
  match degree with
  | 1 -> Bgv.mul_scalar (Bgv.mul_scalar x (Int64.sub tp 3L)) (Int64.sub tp 5L)
  | 2 -> Bgv.mul ~rescale:false x x
  | _ ->
    let sq = Bgv.mul ~rescale:false x x in
    Bgv.mul ~rescale:false sq sq

let test_rescale_chain_matches_modswitch () =
  let longest = ref 0 in
  List.iter
    (fun degree ->
      for level = 2 to chain do
        let ct = noisy ~level degree in
        let c_chain = Util.Counters.create () and c_seq = Util.Counters.create () in
        let chained = Bgv.rescale_to_floor ~counters:c_chain ct in
        let drops = level - Bgv.level chained in
        longest := Stdlib.max !longest drops;
        let seq = ref ct in
        for _ = 1 to drops do
          seq := Bgv.modswitch ~counters:c_seq !seq
        done;
        let msg = Printf.sprintf "degree %d from L%d (%d drops)" degree level drops in
        check_bytes msg !seq chained;
        List.iter
          (fun l ->
            Alcotest.(check int) (msg ^ Printf.sprintf ": modswitch@L%d" l)
              (Util.Counters.op_count c_seq Util.Counters.Op_modswitch ~level:l)
              (Util.Counters.op_count c_chain Util.Counters.Op_modswitch ~level:l))
          (List.init chain (fun l -> l + 1));
        (* One pair of passes per component for the whole chain: the
           inverse over the dropped primes only, the forward at the
           target level. *)
        if drops > 0 then begin
          Alcotest.(check int) (msg ^ ": ntt_inv") (degree + 1)
            (Util.Counters.op_count c_chain Util.Counters.Op_ntt_inv ~level:drops);
          Alcotest.(check int) (msg ^ ": ntt_inv total") (degree + 1)
            (Util.Counters.op_total c_chain Util.Counters.Op_ntt_inv);
          Alcotest.(check int) (msg ^ ": ntt_fwd") (degree + 1)
            (Util.Counters.op_count c_chain Util.Counters.Op_ntt_fwd ~level:(level - drops))
        end
      done)
    [ 1; 2; 4 ];
  Alcotest.(check bool) "some chain drops more than one prime" true (!longest >= 2)

let test_add_const_matches_add_plain () =
  let factor_of ct = Bytes.get_int64_le (Bgv.ct_to_bytes ct) 20 in
  let fresh = enc (random_slots 71) in
  let switched = Bgv.modswitch (Bgv.mul ~rescale:false fresh fresh) in
  Alcotest.(check bool) "switched factor is not 1" true (not (Int64.equal (factor_of switched) 1L));
  List.iter
    (fun ct ->
      List.iter
        (fun v ->
          let c_const = Util.Counters.create () in
          let viaconst = Bgv.add_const ~counters:c_const ct v in
          check_bytes (Printf.sprintf "add_const %Ld at factor %Ld" v (factor_of ct))
            (Bgv.add_plain ct (Plaintext.constant params v))
            viaconst;
          Alcotest.(check int) "no NTT pass" 0
            (Util.Counters.op_total c_const Util.Counters.Op_ntt_fwd))
        [ 0L; 17L; -5L; Int64.pred tp; tp; 123456789012L ])
    [ fresh; switched ]

(* Σⱼ rowⱼ ⊙ ptⱼ over embeddings built once and shared by every row
   equals each row's mul_plain-then-add fold byte for byte, and for one
   row the ledger too; an embedding built higher serves a lower level
   unchanged. *)
let test_mul_plain_sums_matches_fold () =
  List.iter
    (fun level ->
      List.iter
        (fun d ->
          let rows = Array.init 3 (fun r -> Array.init d (fun j -> enc_at ~level (300 + (50 * r) + j))) in
          let pts = Array.init d (fun j -> Plaintext.of_slots params (random_slots (400 + j))) in
          let msg = Printf.sprintf "d=%d L%d" d level in
          let fold ?counters row =
            let acc = ref (Bgv.mul_plain ?counters row.(0) pts.(0)) in
            for j = 1 to d - 1 do
              acc := Bgv.add ?counters !acc (Bgv.mul_plain ?counters row.(j) pts.(j))
            done;
            !acc
          in
          let calls = ref 0 in
          let fused =
            Bgv.mul_plain_sums rows (fun j ->
                incr calls;
                Bgv.embed ~level:chain pts.(j))
          in
          Alcotest.(check int) (msg ^ ": one embedding per term") d !calls;
          Array.iteri (fun r row -> check_bytes (Printf.sprintf "%s row %d" msg r) (fold row) fused.(r)) rows;
          let c_fused = Util.Counters.create () and c_seq = Util.Counters.create () in
          let one =
            Bgv.mul_plain_sums ~counters:c_fused [| rows.(0) |] (fun j ->
                Bgv.embed ~counters:c_fused ~level pts.(j))
          in
          check_bytes (msg ^ ": one row") (fold ~counters:c_seq rows.(0)) one.(0);
          Alcotest.(check bool) (msg ^ ": ledger") true (Util.Counters.equal_ledger c_seq c_fused);
          let norm = Plaintext.of_slots params (random_slots 500) in
          check_bytes (msg ^ ": add_embedded") (Bgv.add_plain one.(0) norm)
            (Bgv.add_embedded one.(0) (Bgv.embed ~level:chain norm)))
        [ 1; 3; 32 ])
    [ chain; 2 ];
  let e = Bgv.embed ~level:2 (Plaintext.of_slots params (random_slots 501)) in
  Alcotest.check_raises "above the embedding"
    (Invalid_argument "Bgv.mul_plain_sums: ciphertext above the embedding")
    (fun () -> ignore (Bgv.mul_plain_sums [| [| enc_at ~level:3 502 |] |] (fun _ -> e)));
  Alcotest.check_raises "switched factor"
    (Invalid_argument "Bgv.add_embedded: ciphertext carries a modulus-switch factor")
    (fun () -> ignore (Bgv.add_embedded (Bgv.modswitch (enc_at ~level:3 503)) e))

(* ------------------------------------------------------------------ *)
(* Monomial fold: N constants to one ciphertext by coefficient          *)
(* ------------------------------------------------------------------ *)

let nring = params.Params.n

(* [m] encryptions of constants at degree 1, or at degree 4 through two
   unrescaled products with encryptions of one. *)
let constants ~degree ~m =
  let r = Rng.of_int 77 in
  let values = Array.init m (fun _ -> Rng.int64_below r tp) in
  let one () = Bgv.encrypt r keys.Bgv.pk (Plaintext.constant params 1L) in
  let one_sq = Bgv.mul ~rescale:false (one ()) (one ()) in
  let cts =
    Array.map
      (fun v ->
        let ct = Bgv.encrypt r keys.Bgv.pk (Plaintext.constant params v) in
        if degree = 1 then ct
        else Bgv.mul ~rescale:false (Bgv.mul ~rescale:false ct (one ())) one_sq)
      values
  in
  (values, cts)

(* Coefficient s·stride decrypts to input s and the rest to 0; the
   components equal the mul_plain-by-x^{s·stride}-then-add fold's; the
   bound is the inputs' add fold in term order, above the true noise;
   the ledger holds one mul_plain and one ct_add per Horner step. *)
let test_fold_monomials () =
  List.iter
    (fun (degree, m, stride) ->
      let msg = Printf.sprintf "degree %d, %d inputs, stride %d" degree m stride in
      let values, cts = constants ~degree ~m in
      Alcotest.(check int) (msg ^ ": input degree") degree (Bgv.degree cts.(0));
      let c = Util.Counters.create () in
      let block = Bgv.fold_monomials ~counters:c ~by:(Rq.x_power params.Params.ring stride) cts in
      let expect =
        Array.init nring (fun j -> if j mod stride = 0 && j / stride < m then values.(j / stride) else 0L)
      in
      Alcotest.(check (array int64)) (msg ^ ": coefficients") expect
        (Plaintext.to_coeffs (Bgv.decrypt keys.Bgv.sk block));
      let monomial s =
        Plaintext.of_coeffs params (Array.init nring (fun j -> if j = s then 1L else 0L))
      in
      let reference = ref (Bgv.mul_plain cts.(0) (monomial 0)) in
      for s = 1 to m - 1 do
        reference := Bgv.add !reference (Bgv.mul_plain cts.(s) (monomial (s * stride)))
      done;
      let body ct = Bytes.sub_string (Bgv.ct_to_bytes ct) 40 (Bgv.byte_size ct - 40) in
      Alcotest.(check bool) (msg ^ ": components = mul_plain fold") true
        (body block = body !reference);
      let st ct =
        { Util.Noise_model.level = Bgv.level ct; degree = Bgv.degree ct; bits = Bgv.noise_bits ct }
      in
      let bound = ref (st cts.(0)) in
      for s = 1 to m - 1 do
        bound := Util.Noise_model.add !bound (st cts.(s))
      done;
      Alcotest.(check (float 0.0)) (msg ^ ": bound = add fold") !bound.Util.Noise_model.bits
        (Bgv.noise_bits block);
      Alcotest.(check bool) (msg ^ ": true noise below the bound") true
        (Bgv.actual_noise_bits keys.Bgv.sk block < Bgv.noise_bits block);
      let level = Bgv.level block in
      Alcotest.(check (list int)) (msg ^ ": ledger, no transform")
        [ m - 1; m - 1; 2 * (m - 1) ]
        [ Util.Counters.op_count c Util.Counters.Op_mul_plain ~level;
          Util.Counters.op_count c Util.Counters.Op_ct_add ~level;
          Util.Counters.ops_total c ])
    [ (1, 1, 1); (1, nring - 1, 1); (1, nring, 1); (4, 1, 1); (4, nring - 1, 1); (4, nring, 1);
      (1, 2, 3); (1, (nring + 2) / 3, 3); (4, 2, nring / 2); (1, 1, nring) ]

let test_fold_monomials_rejects () =
  let _, cts = constants ~degree:1 ~m:(nring + 1) in
  let rejects what inputs =
    match Bgv.fold_monomials ~by:(Rq.x_power params.Params.ring 1) inputs with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ()
  in
  rejects "no input" [||];
  rejects "more inputs than coefficients" cts;
  (match Rq.x_power params.Params.ring 0 with
   | _ -> Alcotest.fail "stride 0: accepted"
   | exception Invalid_argument _ -> ());
  List.iter
    (fun (what, stride, m) ->
      match Bgv.fold_monomials ~by:(Rq.x_power params.Params.ring stride) (Array.sub cts 0 m) with
      | _ -> Alcotest.failf "%s: accepted" what
      | exception Invalid_argument _ -> ())
    [ ("last shift at the ring degree", nring / 2, 3); ("last shift past the ring degree", nring, 2) ];
  let three = Array.sub cts 0 3 in
  let with_last ct = Array.append (Array.sub three 0 2) [| ct |] in
  rejects "mixed level" (with_last (Bgv.truncate_to_level three.(2) (chain - 1)));
  rejects "mixed degree" (with_last (Bgv.mul ~rescale:false three.(2) three.(2)));
  let switched = Bgv.modswitch three.(2) in
  rejects "mixed factor"
    (Array.append
       (Array.map (fun c -> Bgv.truncate_to_level c (chain - 1)) (Array.sub three 0 2))
       [| switched |])

let test_mul_sum_relinearises_once () =
  let a = Array.init 8 (fun j -> enc (random_slots (80 + j))) in
  let b = Array.init 8 (fun j -> enc (random_slots (90 + j))) in
  let c = Util.Counters.create () in
  let relin = Bgv.mul_sum ~counters:c ~rlk:keys.Bgv.rlk a b in
  let plain = Bgv.mul_sum a b in
  Alcotest.(check int) "degree 1" 1 (Bgv.degree relin);
  Alcotest.(check int) "one key switch" 1 (Util.Counters.op_total c Util.Counters.Op_key_switch);
  check_slots "same plaintext as the unrelinearised sum" (dec plain) (dec relin)

(* Encrypting at a level draws what a top-level encryption draws, and
   residues are per prime: the result is that encryption truncated. *)
let test_encrypt_at_level () =
  let pt = Plaintext.of_slots params (random_slots 504) in
  for level = 1 to chain do
    let r = Rng.of_int (600 + level) in
    let at = Bgv.encrypt ~level (Rng.copy r) keys.Bgv.pk pt in
    check_bytes (Printf.sprintf "L%d" level)
      (Bgv.truncate_to_level (Bgv.encrypt r keys.Bgv.pk pt) level)
      at
  done

let test_modswitch () =
  let a = random_slots 21 in
  let ct = enc a in
  let sw = Bgv.modswitch ct in
  Alcotest.(check int) "level dropped" (Bgv.level ct - 1) (Bgv.level sw);
  check_slots "plaintext preserved (factor tracked)" a (dec sw);
  let sw2 = Bgv.modswitch (Bgv.modswitch sw) in
  check_slots "three switches" a (dec sw2)

let test_modswitch_reduces_noise () =
  let a = random_slots 22 in
  let prod = Bgv.mul ~rescale:false (enc a) (enc a) in
  let sw = Bgv.modswitch prod in
  Alcotest.(check bool) "noise decreased" true (Bgv.noise_bits sw < Bgv.noise_bits prod)

let test_truncate () =
  let a = random_slots 23 in
  let ct = enc a in
  let tr = Bgv.truncate_to_level ct (Bgv.level ct - 2) in
  Alcotest.(check int) "level" (Bgv.level ct - 2) (Bgv.level tr);
  check_slots "truncation exact" a (dec tr);
  Alcotest.check_raises "cannot raise"
    (Invalid_argument "Bgv.truncate_to_level: cannot raise level")
    (fun () -> ignore (Bgv.truncate_to_level tr (Bgv.level ct)))

let test_mixed_level_ops () =
  (* Operations between ciphertexts at different levels must align. *)
  let a = random_slots 24 and b = random_slots 25 in
  let ca = enc a in
  let cb = Bgv.modswitch (Bgv.modswitch (enc b)) in
  check_slots "add across levels" (map2 (Mod64.add tp) a b) (dec (Bgv.add ca cb));
  check_slots "mul across levels" (map2 (Mod64.mul tp) a b)
    (dec (Bgv.mul ~rlk:keys.Bgv.rlk ca cb))

let test_eval_poly () =
  let a = random_slots 26 in
  let ct = enc a in
  let horner coeffs x =
    let d = Array.length coeffs - 1 in
    let acc = ref coeffs.(d) in
    for i = d - 1 downto 0 do
      acc := Mod64.add tp (Mod64.mul tp !acc x) coeffs.(i)
    done;
    !acc
  in
  List.iter
    (fun coeffs ->
      let expected = Array.map (horner coeffs) a in
      let with_relin = Bgv.eval_poly ~rlk:keys.Bgv.rlk ~lead_bits:8.0 ~coeffs ct in
      check_slots
        (Printf.sprintf "poly deg %d (relin)" (Array.length coeffs - 1))
        expected (dec with_relin);
      let without = Bgv.eval_poly ~lead_bits:8.0 ~coeffs ct in
      check_slots
        (Printf.sprintf "poly deg %d (no relin)" (Array.length coeffs - 1))
        expected (dec without))
    [ [| 7L |]; [| 3L; 5L |]; [| 1L; 2L; 3L |]; [| 11L; 0L; 5L; 2L |] ]

let test_counters () =
  let c = Util.Counters.create () in
  let a = random_slots 27 in
  let r = Rng.of_int 7 in
  let ct = Bgv.encrypt ~counters:c r keys.Bgv.pk (Plaintext.of_slots params a) in
  let ct2 = Bgv.mul ~counters:c ~rlk:keys.Bgv.rlk ct ct in
  ignore (Bgv.add ~counters:c ct2 ct2);
  ignore (Bgv.decrypt ~counters:c keys.Bgv.sk ct2);
  Alcotest.(check int) "encryptions" 1 (Util.Counters.encryptions c);
  Alcotest.(check int) "decryptions" 1 (Util.Counters.decryptions c);
  Alcotest.(check int) "muls" 1 (Util.Counters.hom_muls c);
  Alcotest.(check int) "relins" 1 (Util.Counters.hom_relins c);
  Alcotest.(check bool) "modswitches happened" true (Util.Counters.hom_modswitches c > 0);
  Alcotest.(check int) "adds" 1 (Util.Counters.hom_adds c)

let test_homomorphic_distance_pattern () =
  (* The exact pattern the protocol uses: sum over dimensions of
     (p_i - q_i)^2, slot-packed, then an order-preserving polynomial. *)
  let d = 4 in
  let point_slots = Array.init d (fun j -> Array.init nslots (fun i -> Int64.of_int ((i + (3 * j)) mod 50))) in
  let query = Array.init d (fun j -> Int64.of_int (7 * j)) in
  let cts = Array.map enc point_slots in
  let acc = ref None in
  Array.iteri
    (fun j ct ->
      let diff = Bgv.add_const ct (Int64.neg query.(j)) in
      let sq = Bgv.mul diff diff in
      acc := Some (match !acc with None -> sq | Some a -> Bgv.add a sq))
    cts;
  let dist_ct = Option.get !acc in
  let expected =
    Array.init nslots (fun i ->
        let s = ref 0L in
        for j = 0 to d - 1 do
          let diff = Mod64.sub tp point_slots.(j).(i) (Mod64.reduce tp query.(j)) in
          s := Mod64.add tp !s (Mod64.mul tp diff diff)
        done;
        !s)
  in
  check_slots "packed squared distances" expected (dec dist_ct);
  let masked = Bgv.eval_poly ~rlk:keys.Bgv.rlk ~lead_bits:8.0 ~coeffs:[| 3L; 7L; 2L |] dist_ct in
  let mask x = Mod64.add tp 3L (Mod64.add tp (Mod64.mul tp 7L x) (Mod64.mul tp 2L (Mod64.mul tp x x))) in
  check_slots "masked distances" (Array.map mask expected) (dec masked)

let test_rerandomize () =
  let a = random_slots 35 in
  let ct = enc a in
  let r = Rng.of_int 4242 in
  let flood_bits = int_of_float (Float.ceil (Bgv.noise_bits ct)) + 8 in
  let ct' = Bgv.rerandomize ~flood_bits r keys.Bgv.pk ct in
  check_slots "same plaintext" a (dec ct');
  Alcotest.(check int) "level preserved" (Bgv.level ct) (Bgv.level ct');
  (* Fresh randomness: the difference decrypts to zero but the wire
     bytes differ. *)
  Alcotest.(check bool) "bytes differ" true
    (Bgv.ct_to_bytes ct <> Bgv.ct_to_bytes ct')

(* Noise flooding keeps the plaintext at every level the flood fits
   under, the tracked bound stays sound against the true noise and
   covers the flood, and the flood really is that wide. *)
let test_flood_every_level () =
  let a = random_slots 38 in
  let ct = enc a in
  let t_bits = Int64.to_int (Int64.of_float (Float.ceil (log (Int64.to_float tp) /. log 2.0))) in
  let flood_bits = t_bits + 20 in
  let flooded = ref 0 in
  for lvl = Params.chain_length params downto 1 do
    let c = Bgv.truncate_to_level ct lvl in
    let r = Rng.of_int (4300 + lvl) in
    if float_of_int flood_bits >= Util.Noise_model.log2_q params.Params.noise ~level:lvl -. 1.0
    then
      Alcotest.(check bool)
        (Printf.sprintf "level %d: flood that does not fit raises" lvl)
        true
        (try
           ignore (Bgv.rerandomize ~flood_bits r keys.Bgv.pk c);
           false
         with Invalid_argument _ -> true)
    else begin
      incr flooded;
      let f = Bgv.rerandomize ~flood_bits r keys.Bgv.pk c in
      let label what = Printf.sprintf "level %d: %s" lvl what in
      check_slots (label "same plaintext") a (dec f);
      Alcotest.(check int) (label "level kept") lvl (Bgv.level f);
      let actual = Bgv.actual_noise_bits keys.Bgv.sk f in
      Alcotest.(check bool)
        (Printf.sprintf "level %d: actual %.0f <= tracked %.1f bits" lvl actual
           (Bgv.noise_bits f))
        true
        (actual <= Bgv.noise_bits f);
      Alcotest.(check bool) (label "tracked bound covers the flood") true
        (Bgv.noise_bits f >= float_of_int flood_bits);
      Alcotest.(check bool)
        (Printf.sprintf "level %d: flood is %d bits wide (actual %.0f)" lvl flood_bits actual)
        true
        (actual >= float_of_int (flood_bits - 4))
    end
  done;
  Alcotest.(check bool) "some level floods" true (!flooded > 0);
  Alcotest.(check bool) "some level refuses" true (!flooded < Params.chain_length params)

let test_flood_rejects () =
  let ct = enc (random_slots 39) in
  let raises flood_bits =
    try
      ignore (Bgv.rerandomize ~flood_bits (Rng.of_int 1) keys.Bgv.pk ct);
      false
    with Invalid_argument _ -> true
  in
  let log2_q = Util.Noise_model.log2_q params.Params.noise ~level:(Bgv.level ct) in
  Alcotest.(check bool) "flood wider than the modulus" true
    (raises (int_of_float (Float.ceil log2_q)));
  Alcotest.(check bool) "flood narrower than t" true (raises 2);
  Alcotest.(check bool) "a flood that fits" false
    (raises (int_of_float (Float.ceil (Bgv.noise_bits ct)) + 8))

let test_noise_exhaustion_raises () =
  (* Repeated unrescaled squaring doubles the noise bits each time and
     must eventually make decryption refuse rather than return garbage. *)
  let ct = ref (enc (random_slots 36)) in
  let blew_up = ref false in
  (try
     for _ = 1 to 8 do
       ct := Bgv.mul ~rescale:false !ct !ct;
       ignore (Bgv.decrypt keys.Bgv.sk !ct)
     done
   with Bgv.Decryption_failure msg ->
     blew_up := true;
     let contains hay needle =
       let lh = String.length hay and ln = String.length needle in
       let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
       go 0
     in
     Alcotest.(check bool) "helpful message" true (contains msg "noise"));
  Alcotest.(check bool) "budget exhaustion detected" true !blew_up

(* ------------------------------------------------------------------ *)
(* Galois automorphisms                                                *)
(* ------------------------------------------------------------------ *)

let test_plaintext_substitute () =
  (* m(x) = x: substitution by k gives x^k (with the negacyclic sign). *)
  let coeffs = Array.make nslots 0L in
  coeffs.(1) <- 1L;
  let pt = Plaintext.of_coeffs params coeffs in
  let s3 = Plaintext.to_coeffs (Plaintext.substitute pt ~k:3) in
  Alcotest.(check int64) "x -> x^3" 1L s3.(3);
  let sneg = Plaintext.to_coeffs (Plaintext.substitute pt ~k:((2 * nslots) - 1)) in
  (* x^(2n-1) = x^(n-1) * x^n = -x^(n-1). *)
  Alcotest.(check int64) "x -> -x^(n-1)" (Int64.pred tp) sneg.(nslots - 1);
  Alcotest.(check bool) "identity" true
    (Plaintext.equal pt (Plaintext.substitute pt ~k:1));
  Alcotest.check_raises "even k" (Invalid_argument "Plaintext.substitute: k must be odd")
    (fun () -> ignore (Plaintext.substitute pt ~k:2))

let test_plaintext_substitute_permutes_slots () =
  let slots = random_slots 40 in
  let pt = Plaintext.of_slots params slots in
  let rotated = Plaintext.to_slots (Plaintext.substitute pt ~k:3) in
  let sort a = let c = Array.copy a in Array.sort compare c; c in
  Alcotest.(check (array int64)) "slot multiset preserved" (sort slots) (sort rotated);
  Alcotest.(check bool) "actually moved" true (rotated <> slots)

let test_apply_galois_matches_plaintext () =
  let slots = random_slots 41 in
  let pt = Plaintext.of_slots params slots in
  let ct = enc slots in
  List.iter
    (fun elt ->
      let gk = Bgv.galois_keygen (Rng.of_int (1000 + elt)) keys.Bgv.sk ~elt in
      Alcotest.(check int) "elt accessor" elt (Bgv.galois_elt gk);
      let rotated_ct = Bgv.apply_galois gk ct in
      let expected = Plaintext.substitute pt ~k:elt in
      check_slots (Printf.sprintf "galois %d" elt)
        (Plaintext.to_slots expected)
        (dec rotated_ct))
    [ 3; 9; (2 * nslots) - 1; 5 ]

let test_apply_galois_composes () =
  (* sigma_3 . sigma_3 = sigma_9. *)
  let slots = random_slots 42 in
  let ct = enc slots in
  let g3 = Bgv.galois_keygen (Rng.of_int 2001) keys.Bgv.sk ~elt:3 in
  let g9 = Bgv.galois_keygen (Rng.of_int 2002) keys.Bgv.sk ~elt:9 in
  let twice = Bgv.apply_galois g3 (Bgv.apply_galois g3 ct) in
  let once = Bgv.apply_galois g9 ct in
  check_slots "composition" (dec once) (dec twice)

let test_apply_galois_after_ops () =
  (* Rotation commutes with slot-wise arithmetic. *)
  let a = random_slots 43 and b = random_slots 44 in
  let g3 = Bgv.galois_keygen (Rng.of_int 2003) keys.Bgv.sk ~elt:3 in
  let lhs = Bgv.apply_galois g3 (Bgv.add (enc a) (enc b)) in
  let rhs = Bgv.add (Bgv.apply_galois g3 (enc a)) (Bgv.apply_galois g3 (enc b)) in
  check_slots "commutes with add" (dec lhs) (dec rhs);
  Alcotest.(check bool) "budget still positive" true (Bgv.noise_budget_bits lhs > 0.0)

let test_apply_galois_validation () =
  let g3 = Bgv.galois_keygen (Rng.of_int 2004) keys.Bgv.sk ~elt:3 in
  let deg2 = Bgv.mul (enc (random_slots 45)) (enc (random_slots 46)) in
  Alcotest.check_raises "degree 2 refused"
    (Invalid_argument "Bgv.apply_galois: degree <> 1 (relinearise first)")
    (fun () -> ignore (Bgv.apply_galois g3 deg2));
  Alcotest.check_raises "even elt" (Invalid_argument "Bgv.galois_keygen: elt must be odd")
    (fun () -> ignore (Bgv.galois_keygen (Rng.of_int 1) keys.Bgv.sk ~elt:4))

let test_sum_slots () =
  let slots = random_slots 47 in
  let expected =
    Array.fold_left (fun acc v -> Mod64.add tp acc v) 0L slots
  in
  let gks = Bgv.slot_sum_keys (Rng.of_int 3001) keys.Bgv.sk in
  Alcotest.(check bool) "log2 n keys" true
    (List.length gks <= 1 + int_of_float (log (float_of_int nslots) /. log 2.0));
  let summed = Bgv.sum_slots gks (enc slots) in
  Array.iter
    (fun v -> Alcotest.(check int64) "every slot holds the total" expected v)
    (dec summed);
  Alcotest.(check bool) "budget survives" true (Bgv.noise_budget_bits summed > 0.0)

(* ------------------------------------------------------------------ *)
(* Serialisation                                                       *)
(* ------------------------------------------------------------------ *)

let test_ct_serialisation_roundtrip () =
  let a = random_slots 30 in
  let ct = enc a in
  let bytes = Bgv.ct_to_bytes ct in
  Alcotest.(check int) "exact byte_size" (Bgv.byte_size ct) (Bytes.length bytes);
  let ct' = Bgv.ct_of_bytes params bytes in
  check_slots "decrypts identically" a (dec ct');
  Alcotest.(check int) "degree preserved" (Bgv.degree ct) (Bgv.degree ct');
  Alcotest.(check int) "level preserved" (Bgv.level ct) (Bgv.level ct')

let test_ct_serialisation_after_ops () =
  (* Modulus-switched and tensored ciphertexts carry factor and degree
     metadata that must survive the wire. *)
  let a = random_slots 31 and b = random_slots 32 in
  let ct = Bgv.modswitch (Bgv.mul (enc a) (enc b)) in
  let ct' = Bgv.ct_of_bytes params (Bgv.ct_to_bytes ct) in
  check_slots "product roundtrip" (map2 (Mod64.mul tp) a b) (dec ct');
  Alcotest.(check (float 0.001)) "noise metadata" (Bgv.noise_bits ct) (Bgv.noise_bits ct')

(* Every decoder ends malformed input in its own typed exception, never
   a bare Failure. *)
let malformed decode bytes =
  match decode bytes with
  | () -> false
  | exception Bgv.Malformed _ -> true

let test_ct_serialisation_rejects_garbage () =
  let ct = enc (random_slots 33) in
  let other = Params.bench_small () in
  let pk = Bgv.pk_to_bytes keys.Bgv.pk and sk = Bgv.sk_to_bytes keys.Bgv.sk in
  List.iter
    (fun (what, bytes, decode, decode_other) ->
      let flipped = Bytes.copy bytes in
      Bytes.set flipped 0 'X';
      Alcotest.(check bool) (what ^ ": bad magic") true (malformed decode flipped);
      let truncated = Bytes.sub bytes 0 (Bytes.length bytes - 7) in
      Alcotest.(check bool) (what ^ ": truncated") true (malformed decode truncated);
      let padded = Bytes.cat bytes (Bytes.make 3 '\000') in
      Alcotest.(check bool) (what ^ ": trailing bytes") true (malformed decode padded);
      Alcotest.(check bool) (what ^ ": wrong params") true (malformed decode_other bytes))
    [ ("ciphertext", Bgv.ct_to_bytes ct, (fun b -> ignore (Bgv.ct_of_bytes params b)),
       fun b -> ignore (Bgv.ct_of_bytes other b));
      ("public key", pk, (fun b -> ignore (Bgv.pk_of_bytes params b)),
       fun b -> ignore (Bgv.pk_of_bytes other b));
      ("secret key", sk, (fun b -> ignore (Bgv.sk_of_bytes params b)),
       fun b -> ignore (Bgv.sk_of_bytes other b)) ]

let test_key_serialisation () =
  let r = Rng.of_int 5555 in
  let pk' = Bgv.pk_of_bytes params (Bgv.pk_to_bytes keys.Bgv.pk) in
  let sk' = Bgv.sk_of_bytes params (Bgv.sk_to_bytes keys.Bgv.sk) in
  let a = random_slots 34 in
  (* Encrypt under the deserialised pk, decrypt under the deserialised
     sk: full key material survives the wire. *)
  let ct = Bgv.encrypt r pk' (Plaintext.of_slots params a) in
  check_slots "pk/sk wire roundtrip" a (Plaintext.to_slots (Bgv.decrypt sk' ct));
  check_slots "old sk agrees" a (dec ct)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let arb_slots =
  QCheck.make ~print:(fun a -> Int64.to_string a.(0))
    QCheck.Gen.(
      let* seed = int_range 0 max_int in
      return (random_slots seed))

let prop_noise_bound_sound =
  (* The tracked noise bound dominates the true noise on random
     circuits: a random sequence of adds, muls, plain ops, switches. *)
  QCheck.Test.make ~count:15 ~name:"tracked noise bound >= actual noise"
    QCheck.(pair (int_range 0 100000) (int_range 1 6))
    (fun (seed, steps) ->
      let r = Rng.of_int seed in
      let ct = ref (enc ~seed (random_slots seed)) in
      let sound = ref (Bgv.actual_noise_bits keys.Bgv.sk !ct <= Bgv.noise_bits !ct) in
      for _ = 1 to steps do
        (match Rng.int_below r 6 with
         | 0 -> ct := Bgv.add !ct !ct
         | 1 -> ct := Bgv.mul_scalar !ct (Int64.of_int (Rng.int_range r 1 1000))
         | 2 -> ct := Bgv.add_const !ct 12345L
         | 3 ->
           if Bgv.noise_budget_bits !ct > 60.0 && Bgv.degree !ct <= 2 then
             ct := Bgv.mul ~rlk:keys.Bgv.rlk !ct (Bgv.truncate_to_level (enc (random_slots (seed + 1))) (Bgv.level !ct))
         | 4 -> if Bgv.level !ct > 2 then ct := Bgv.modswitch !ct
         | _ -> ct := Bgv.sub !ct (Bgv.truncate_to_level (enc (random_slots (seed + 2))) (Bgv.level !ct)));
        sound := !sound && Bgv.actual_noise_bits keys.Bgv.sk !ct <= Bgv.noise_bits !ct
      done;
      !sound)

let prop_add_homomorphic =
  QCheck.Test.make ~count:20 ~name:"Dec(Enc a + Enc b) = a + b"
    (QCheck.pair arb_slots arb_slots)
    (fun (a, b) -> dec (Bgv.add (enc a) (enc b)) = map2 (Mod64.add tp) a b)

let prop_mul_homomorphic =
  QCheck.Test.make ~count:10 ~name:"Dec(Enc a * Enc b) = a * b"
    (QCheck.pair arb_slots arb_slots)
    (fun (a, b) -> dec (Bgv.mul ~rlk:keys.Bgv.rlk (enc a) (enc b)) = map2 (Mod64.mul tp) a b)

let prop_distributivity =
  QCheck.Test.make ~count:8 ~name:"(a+b)*c = a*c + b*c homomorphically"
    (QCheck.triple arb_slots arb_slots arb_slots)
    (fun (a, b, c) ->
      let ca = enc a and cb = enc b and cc = enc c in
      let lhs = Bgv.mul ~rlk:keys.Bgv.rlk (Bgv.add ca cb) cc in
      let rhs = Bgv.add (Bgv.mul ~rlk:keys.Bgv.rlk ca cc) (Bgv.mul ~rlk:keys.Bgv.rlk cb cc) in
      dec lhs = dec rhs)

(* ------------------------------------------------------------------ *)
(* Slot algebra (the packed protocol path's contract)                  *)
(* ------------------------------------------------------------------ *)

(* Keyed slot-algebra checks run on the presets the keyed suite already
   uses (toy, bench_small); the pure plaintext roundtrip covers every
   preset, bench and secure included. *)
let keyed_presets =
  let tbl = Hashtbl.create 4 in
  fun () ->
    List.map
      (fun p ->
        let name = p.Params.name in
        match Hashtbl.find_opt tbl name with
        | Some kp -> kp
        | None ->
          let kp = (p, Bgv.keygen (Rng.of_int 4242) p) in
          Hashtbl.add tbl name kp;
          kp)
      [ Params.toy (); Params.bench_small () ]

let random_slots_for p seed =
  let r = Rng.of_int seed in
  Array.init (Params.slot_count p) (fun _ -> Rng.int64_below r p.Params.t_plain)

let prop_slots_roundtrip_all_presets =
  QCheck.Test.make ~count:6 ~name:"of_slots/to_slots roundtrip (all presets)"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      List.for_all
        (fun p ->
          let slots = random_slots_for p seed in
          Plaintext.to_slots (Plaintext.of_slots p slots) = slots)
        [ Params.toy (); Params.bench_small (); Params.bench (); Params.secure () ])

let prop_mul_plain_slotwise =
  (* mul_plain against the packed plaintext acts independently per slot —
     exactly the scalar model the packed distance circuit assumes. *)
  QCheck.Test.make ~count:6 ~name:"mul_plain = slot-wise scalar model (keyed presets)"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      List.for_all
        (fun (p, k) ->
          let tp = p.Params.t_plain in
          let a = random_slots_for p seed and b = random_slots_for p (seed + 1) in
          let ct = Bgv.encrypt (Rng.of_int (seed + 2)) k.Bgv.pk (Plaintext.of_slots p a) in
          let prod = Bgv.mul_plain ct (Plaintext.of_slots p b) in
          Plaintext.to_slots (Bgv.decrypt k.Bgv.sk prod)
          = Array.init (Params.slot_count p) (fun i -> Mod64.mul tp a.(i) b.(i)))
        (keyed_presets ()))

let test_sum_slots_every_level () =
  (* The rotate-and-sum reduction leaves the total slot sum in every
     slot at whichever chain level the input sits — walked from the
     fresh top of the chain down as far as the noise budget admits
     (key-switching noise eventually exhausts the last prime). *)
  List.iter
    (fun ((p : Params.t), k) ->
      let tp = p.Params.t_plain in
      let slots = random_slots_for p 881 in
      let expected = Array.fold_left (Mod64.add tp) 0L slots in
      let gks = Bgv.slot_sum_keys (Rng.of_int 883) k.Bgv.sk in
      let fresh = Bgv.encrypt (Rng.of_int 884) k.Bgv.pk (Plaintext.of_slots p slots) in
      let verified = ref 0 in
      for lvl = Bgv.level fresh downto 1 do
        let summed = Bgv.sum_slots gks (Bgv.truncate_to_level fresh lvl) in
        if Bgv.noise_budget_bits summed > 0.0 then begin
          incr verified;
          Array.iter
            (fun v ->
              Alcotest.(check int64)
                (Printf.sprintf "%s level %d: slot holds total" p.Params.name lvl)
                expected v)
            (Plaintext.to_slots (Bgv.decrypt k.Bgv.sk summed))
        end
      done;
      Alcotest.(check bool)
        (p.Params.name ^ ": sum sound at several levels")
        true (!verified >= 2))
    (keyed_presets ())

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_add_homomorphic; prop_mul_homomorphic; prop_distributivity;
      prop_noise_bound_sound; prop_slots_roundtrip_all_presets;
      prop_mul_plain_slotwise ]

let () =
  Alcotest.run "bgv"
    [ ("params",
       [ Alcotest.test_case "presets valid" `Quick test_params_presets;
         Alcotest.test_case "security estimate" `Slow test_params_security_estimate;
         Alcotest.test_case "validation" `Quick test_params_validation;
         Alcotest.test_case "structured infeasibility" `Quick test_params_infeasible;
         Alcotest.test_case "security monotone" `Quick test_security_bits_monotone;
         Alcotest.test_case "probe matches create" `Quick test_probe_matches_create ]);
      ("plaintext",
       [ Alcotest.test_case "roundtrips" `Quick test_plaintext_roundtrips;
         Alcotest.test_case "constant" `Quick test_plaintext_constant;
         Alcotest.test_case "negative input" `Quick test_plaintext_negative_input;
         Alcotest.test_case "slot arithmetic" `Quick test_plaintext_arith ]);
      ("encryption",
       [ Alcotest.test_case "roundtrip" `Quick test_roundtrip;
         Alcotest.test_case "edge values" `Quick test_roundtrip_edge_values;
         Alcotest.test_case "fresh metadata" `Quick test_fresh_metadata;
         Alcotest.test_case "randomised" `Quick test_encryption_randomized;
         Alcotest.test_case "rerandomize" `Quick test_rerandomize;
         Alcotest.test_case "flood at every level" `Quick test_flood_every_level;
         Alcotest.test_case "flood that does not fit" `Quick test_flood_rejects;
         Alcotest.test_case "noise exhaustion raises" `Quick test_noise_exhaustion_raises ]);
      ("evaluation",
       [ Alcotest.test_case "add/sub/neg" `Quick test_add_sub_neg;
         Alcotest.test_case "add_plain/const" `Quick test_add_plain_and_const;
         Alcotest.test_case "mul_plain/scalar" `Quick test_mul_plain_scalar;
         Alcotest.test_case "mul with relin" `Quick test_mul_relin;
         Alcotest.test_case "mul without relin" `Quick test_mul_no_relin;
         Alcotest.test_case "depth chain" `Quick test_mul_depth_chain;
         Alcotest.test_case "degree 4 no relin" `Quick test_mul_high_degree_no_relin;
         Alcotest.test_case "explicit relinearize" `Quick test_relinearize_explicit;
         Alcotest.test_case "eval_poly" `Quick test_eval_poly ]);
      ("fused kernels",
       [ Alcotest.test_case "sum_sq_diff = mul_sum of subs" `Quick
           test_sum_sq_diff_matches_mul_sum;
         Alcotest.test_case "sum_sq_diff rejects mixed inputs" `Quick test_sum_sq_diff_rejects;
         Alcotest.test_case "mul_sum rejects mixed factors" `Quick test_mul_sum_rejects;
         Alcotest.test_case "rescale chain = repeated modswitch" `Quick
           test_rescale_chain_matches_modswitch;
         Alcotest.test_case "add_const = add_plain constant" `Quick
           test_add_const_matches_add_plain;
         Alcotest.test_case "mul_sum relinearises once" `Quick test_mul_sum_relinearises_once;
         Alcotest.test_case "mul_plain_sums = mul_plain fold" `Quick
           test_mul_plain_sums_matches_fold ]);
      ("monomial fold",
       [ Alcotest.test_case "coefficient s is input s" `Quick test_fold_monomials;
         Alcotest.test_case "rejects mixed inputs" `Quick test_fold_monomials_rejects ]);
      ("boundary kernels",
       [ Alcotest.test_case "encrypt = four-NTT reference" `Quick test_encrypt_matches_reference;
         Alcotest.test_case "rerandomize = reference + flood" `Quick
           test_rerandomize_matches_reference;
         Alcotest.test_case "decrypt = Zint reference" `Quick test_decrypt_matches_reference ]);
      ("levels",
       [ Alcotest.test_case "modswitch" `Quick test_modswitch;
         Alcotest.test_case "modswitch reduces noise" `Quick test_modswitch_reduces_noise;
         Alcotest.test_case "truncate" `Quick test_truncate;
         Alcotest.test_case "encrypt at level = truncate" `Quick test_encrypt_at_level;
         Alcotest.test_case "mixed levels" `Quick test_mixed_level_ops ]);
      ("galois",
       [ Alcotest.test_case "plaintext substitute" `Quick test_plaintext_substitute;
         Alcotest.test_case "slot permutation" `Quick test_plaintext_substitute_permutes_slots;
         Alcotest.test_case "matches plaintext" `Quick test_apply_galois_matches_plaintext;
         Alcotest.test_case "composes" `Quick test_apply_galois_composes;
         Alcotest.test_case "commutes with add" `Quick test_apply_galois_after_ops;
         Alcotest.test_case "validation" `Quick test_apply_galois_validation;
         Alcotest.test_case "rotate-and-sum" `Quick test_sum_slots;
         Alcotest.test_case "rotate-and-sum at every level" `Quick
           test_sum_slots_every_level ]);
      ("serialisation",
       [ Alcotest.test_case "ct roundtrip" `Quick test_ct_serialisation_roundtrip;
         Alcotest.test_case "ct after ops" `Quick test_ct_serialisation_after_ops;
         Alcotest.test_case "rejects garbage" `Quick test_ct_serialisation_rejects_garbage;
         Alcotest.test_case "keys" `Quick test_key_serialisation ]);
      ("protocol pattern",
       [ Alcotest.test_case "packed distance + mask" `Quick test_homomorphic_distance_pattern;
         Alcotest.test_case "counters" `Quick test_counters ]);
      ("properties", qsuite) ]
