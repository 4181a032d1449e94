(* Microbenchmarks for the ring kernels: NTT forward/inverse, the
   pointwise product kernels, Rq.mul, the fused Bgv.mul_sum,
   Algorithm 1's distance kernels (Bgv.sum_sq_diff and the rescale
   chain) and BGV's plaintext boundary (encrypt, decrypt,
   rerandomize).  Used by the standalone [kernels] executable and
   embedded as the ["kernels"] block of the protocol bench JSON, so
   kernel-level regressions are visible without a full protocol run. *)

type result = {
  name : string;      (* kernel name, e.g. "ntt-forward" *)
  ring_n : int;       (* transform size *)
  prime_bits : int;   (* modulus size (0 when spanning a chain) *)
  ns_per_op : float;  (* mean wall time per operation, nanoseconds *)
  reps : int;         (* measured repetitions *)
}

(* Grow the repetition count until the timed loop runs for [target]
   seconds, then report the mean.  Two untimed calls warm the code and
   touch the working set first. *)
let measure ~target f =
  f ();
  f ();
  let rec go reps =
    let t0 = Util.Timer.now () in
    for _ = 1 to reps do
      f ()
    done;
    let elapsed = Util.Timer.now () -. t0 in
    if elapsed >= target || reps >= 100_000_000 then
      (elapsed /. float_of_int reps *. 1e9, reps)
    else go (reps * 4)
  in
  go 1

let deterministic_residues rng ~n ~p = Array.init n (fun _ -> Util.Rng.int_below rng p)

let ntt_suite ~target rng ~n ~bits =
  let p =
    Int64.to_int
      (Prime64.find_ntt_prime ~congruent_mod:(Int64.of_int (2 * n)) ~bits ())
  in
  let tbl = Ntt.make_table ~p ~n in
  let a = deterministic_residues rng ~n ~p in
  let b = deterministic_residues rng ~n ~p in
  let dst = Array.make n 0 in
  let acc = Array.make n 0 in
  let bench name f =
    let ns, reps = measure ~target f in
    { name; ring_n = n; prime_bits = bits; ns_per_op = ns; reps }
  in
  [ bench "ntt-forward" (fun () -> Ntt.forward tbl a);
    bench "ntt-inverse" (fun () -> Ntt.inverse tbl a);
    bench "pointwise-mul" (fun () -> Ntt.pointwise_mul tbl dst a b);
    bench "pointwise-mul-acc" (fun () -> Ntt.pointwise_mul_acc tbl acc a b) ]

let rq_suite ~target rng ~n ~bits ~chain =
  let moduli =
    Prime64.ntt_primes ~congruent_mod:(Int64.of_int (2 * n)) ~bits ~count:chain
    |> List.map Int64.to_int |> Array.of_list
  in
  let ctx = Rq.context ~n ~moduli ~t:65537L in
  let rand_rq () =
    Rq.of_int64_coeffs ctx ~nprimes:chain Rq.Eval
      (Array.init n (fun _ -> Util.Rng.int64_below rng 1024L))
  in
  let a = rand_rq () and b = rand_rq () in
  let acc = Rq.zero ctx ~nprimes:chain Rq.Eval in
  let bench name f =
    let ns, reps = measure ~target f in
    { name; ring_n = n; prime_bits = bits; ns_per_op = ns; reps }
  in
  [ bench "rq-mul" (fun () -> ignore (Rq.mul a b));
    bench "rq-mul-add-into" (fun () -> Rq.mul_add_into acc a b) ]

let mul_sum_suite ~target rng ~d =
  let params = Params.toy () in
  let keys = Bgv.keygen rng params in
  let enc v =
    Bgv.encrypt rng keys.Bgv.pk (Plaintext.constant params (Int64.of_int v))
  in
  let a = Array.init d (fun i -> enc (i + 1)) in
  let b = Array.init d (fun i -> enc (2 * i)) in
  let ns, reps = measure ~target (fun () -> ignore (Bgv.mul_sum ~jobs:1 a b)) in
  [ { name = Printf.sprintf "bgv-mul-sum-d%d" d;
      ring_n = params.Params.n;
      prime_bits = 0;
      ns_per_op = ns;
      reps } ]

(* Algorithm 1's per-point distance kernels at the standard preset's
   shape (N = 64, 10 × 30-bit primes):
   - the fused square-sum over d = 32 coordinate pairs, beside
     bgv-mul-sum-d32's plain inner product, on one hot pair of arrays;
   - the same against one query, cycling over a fig3-shaped database
     of 429 points (~140 MB, one point per call), so each point's rows
     come from memory as they do in a query.  A hot pair cannot show
     the square-sum's loop order; this row can (DESIGN §3a.11);
   - the degree-2 rescale chain from L10 to L7 that follows it, and the
     degree-2 mask's 5-component chain from L7 to L4. *)
let distance_suite ~target rng =
  let params =
    Params.create ~name:"kernel-standard" ~n:64 ~plain_bits:50 ~prime_bits:30 ~chain_len:10 ()
  in
  let keys = Bgv.keygen rng params in
  let enc v = Bgv.encrypt rng keys.Bgv.pk (Plaintext.constant params (Int64.of_int v)) in
  let a = Array.init 32 (fun i -> enc (i + 1)) in
  let b = Array.init 32 (fun i -> enc (2 * i)) in
  let points = Array.init 429 (fun p -> Array.init 32 (fun i -> enc ((p + i) land 255))) in
  let next = ref 0 in
  let sum = Bgv.sum_sq_diff a b in
  let dist = Bgv.rescale_to_floor sum in
  (* a2·x² + a1·x before its rescale, as Bgv.eval_poly forms it. *)
  let masked = Bgv.mul ~rescale:false (Bgv.add_const (Bgv.mul_scalar dist 255L) 7L) dist in
  let bench name f =
    let ns, reps = measure ~target f in
    { name; ring_n = params.Params.n; prime_bits = 0; ns_per_op = ns; reps }
  in
  [ bench "bgv-sum-sq-diff-d32" (fun () -> ignore (Bgv.sum_sq_diff a b));
    bench "bgv-sum-sq-diff-d32-n429" (fun () ->
        ignore (Bgv.sum_sq_diff points.(!next) b);
        next := (!next + 1) mod Array.length points);
    bench "bgv-rescale-chain" (fun () -> ignore (Bgv.rescale_to_floor sum));
    bench "bgv-rescale-chain-deg4" (fun () -> ignore (Bgv.rescale_to_floor masked)) ]

(* BGV's plaintext boundary at the standard preset's shape (N = 64,
   10 × 30-bit primes, 50-bit t): encryption at the full chain and at
   the packed paths' indicator level, the client's decrypt-and-unpack
   of a returned block, Party B's coefficient-0 decrypt, and Party A's
   flood.  Kept apart from ntt_suite and rq_suite, whose numbers the
   protocol benchmark reads. *)
let boundary_suite ~target rng =
  let params =
    Params.create ~name:"kernel-standard" ~n:64 ~plain_bits:50 ~prime_bits:30 ~chain_len:10 ()
  in
  let keys = Bgv.keygen rng params in
  let pt = Plaintext.of_slots params (Array.init 64 (fun i -> Int64.of_int (i + 1))) in
  let at level = Bgv.encrypt ~level rng keys.Bgv.pk pt in
  let l4 = at 4 and l6 = at 6 in
  let flood_bits = Util.Noise_model.block_flood_bits params.Params.noise in
  let bench name f =
    let ns, reps = measure ~target f in
    { name; ring_n = params.Params.n; prime_bits = 0; ns_per_op = ns; reps }
  in
  [ bench "bgv-encrypt-L6" (fun () -> ignore (Bgv.encrypt ~level:6 rng keys.Bgv.pk pt));
    bench "bgv-encrypt-L10" (fun () -> ignore (Bgv.encrypt rng keys.Bgv.pk pt));
    bench "bgv-decrypt-unpack-L6" (fun () ->
        ignore (Plaintext.to_slots (Bgv.decrypt keys.Bgv.sk l6)));
    bench "bgv-decrypt-coeff0-L4" (fun () -> ignore (Bgv.decrypt_coeff0 keys.Bgv.sk l4));
    bench "bgv-rerandomize-L6" (fun () ->
        ignore (Bgv.rerandomize ~flood_bits rng keys.Bgv.pk l6)) ]

(* Slot-packing kernels behind the SIMD protocol path: CRT packing and
   unpacking (one NTT over t each way) and the Galois machinery whose
   key-switch cost dominates any rotation-based variant. *)
let slot_suite ~target rng =
  let params = Params.toy () in
  let keys = Bgv.keygen rng params in
  let tp = params.Params.t_plain in
  let slots =
    Array.init (Params.slot_count params) (fun _ -> Util.Rng.int64_below rng tp)
  in
  let pt = Plaintext.of_slots params slots in
  let ct = Bgv.encrypt rng keys.Bgv.pk pt in
  let gk = Bgv.galois_keygen rng keys.Bgv.sk ~elt:3 in
  let gks = Bgv.slot_sum_keys rng keys.Bgv.sk in
  let bench name f =
    let ns, reps = measure ~target f in
    { name; ring_n = params.Params.n; prime_bits = 0; ns_per_op = ns; reps }
  in
  [ bench "plaintext-of-slots" (fun () -> ignore (Plaintext.of_slots params slots));
    bench "plaintext-to-slots" (fun () -> ignore (Plaintext.to_slots pt));
    bench "apply-galois" (fun () -> ignore (Bgv.apply_galois gk ct));
    bench "sum-slots" (fun () -> ignore (Bgv.sum_slots gks ct)) ]

let run ?(quick = false) () =
  let target = if quick then 0.05 else 0.4 in
  let rng = Util.Rng.create 42L in
  let sizes = if quick then [ 64; 1024 ] else [ 64; 1024; 4096 ] in
  List.concat_map (fun n -> ntt_suite ~target rng ~n ~bits:30) sizes
  @ rq_suite ~target rng ~n:64 ~bits:30 ~chain:10
  @ rq_suite ~target rng ~n:1024 ~bits:30 ~chain:4
  @ mul_sum_suite ~target rng ~d:32
  @ distance_suite ~target rng
  @ boundary_suite ~target rng
  @ slot_suite ~target rng

let pp_results ppf results =
  Format.fprintf ppf "%-24s %8s %6s %14s %10s@." "kernel" "n" "bits" "ns/op" "reps";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-24s %8d %6d %14.1f %10d@." r.name r.ring_n r.prime_bits
        r.ns_per_op r.reps)
    results

(* One result as the JSON record both the kernels CLI and the protocol
   bench's "kernels" block write. *)
let result_json r =
  Util.Json.(
    Obj
      [ ("kernel", Str r.name);
        ("n", Int r.ring_n);
        ("prime_bits", Int r.prime_bits);
        ("ns_per_op", Float r.ns_per_op);
        ("reps", Int r.reps) ])

(* Re-export: the library name matches this main module, so siblings are
   only reachable through it. *)
module Calibration = Calibration
