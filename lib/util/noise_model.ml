(* Log2-domain noise bounds for the BGV chain, over plain numeric
   parameters.  This is the one copy of every formula: Bgv derives each
   ciphertext's tracked bound, budget and size from these ops, and the
   forecaster, the planner and Cost_model walk the same ops on states
   before any ciphertext exists.  Float operations stay in one fixed
   order, so a branch on a bound takes the same decision live and in a
   walk. *)

type params = {
  n : int;              (* ring degree *)
  t_bits : float;       (* log2 of the plaintext modulus *)
  moduli_bits : float array; (* log2 of each RNS chain prime, in order *)
  eta : float;          (* CBD noise parameter *)
}

type state = {
  level : int;   (* active RNS primes *)
  degree : int;  (* ciphertext degree (components - 1) *)
  bits : float;  (* log2 bound on the decryption noise term *)
}

let log2 x = log x /. log 2.0

let log2_add a b =
  let hi = Float.max a b and lo = Float.min a b in
  hi +. log2 (1.0 +. (2.0 ** (lo -. hi)))

let log2_n p = log2 (float_of_int p.n)

(* Bound on a fresh ciphertext's |m + t(e·u + e1 + e2·s)|. *)
let fresh_noise_bits p =
  let n = float_of_int p.n in
  p.t_bits +. log2 (0.5 +. (p.eta *. ((2.0 *. n) +. 1.0)))

(* Additive rounding term of one modulus switch at ciphertext degree d:
   (t/2) * sum_{i<=d} n^i. *)
let switch_floor_bits p ~degree =
  let n = float_of_int p.n in
  let rec sum acc i = if i > degree then acc else sum (acc +. (n ** float_of_int i)) (i + 1) in
  p.t_bits -. 1.0 +. log2 (sum 0.0 0)

let log2_q p ~level =
  let acc = ref 0.0 in
  for i = 0 to Stdlib.min level (Array.length p.moduli_bits) - 1 do
    acc := !acc +. p.moduli_bits.(i)
  done;
  !acc

let headroom p st = log2_q p ~level:st.level -. 1.0 -. st.bits

let chain_length p = Array.length p.moduli_bits

(* Serialised size: (degree+1) residue polynomials per active prime at
   4 bytes a coefficient, plus the 40-byte header. *)
let ct_bytes p st = ((st.degree + 1) * st.level * p.n * 4) + 40

let fresh_at p ~level = { level; degree = 1; bits = fresh_noise_bits p }
let fresh p = fresh_at p ~level:(chain_length p)

let add a b =
  { level = Stdlib.min a.level b.level;
    degree = Stdlib.max a.degree b.degree;
    bits = log2_add a.bits b.bits }

let add_plain p st = { st with bits = log2_add st.bits (p.t_bits -. 1.0) }
let mul_plain p st = { st with bits = st.bits +. log2_n p +. p.t_bits -. 1.0 }
let mul_scalar st ~bits = { st with bits = st.bits +. Float.max 0.0 bits }

let mul p a b =
  { level = Stdlib.min a.level b.level;
    degree = a.degree + b.degree;
    bits = log2_n p +. a.bits +. b.bits }

(* Σᵢ aᵢ·bᵢ over m uniform terms, folded in term order exactly as
   Bgv.mul_sum folds its tracked bound (the same float, not a bound on
   it, which is what keeps branch decisions on it in step with live). *)
let mul_sum p a b ~terms =
  if terms < 1 then invalid_arg "Noise_model.mul_sum: terms must be positive";
  let one = mul p a b in
  let bits = ref one.bits in
  for _ = 2 to terms do
    bits := log2_add !bits one.bits
  done;
  { one with bits = !bits }

let modswitch p st =
  if st.level <= 1 then invalid_arg "Noise_model.modswitch: already at the last level";
  { st with
    level = st.level - 1;
    bits =
      log2_add
        (st.bits -. p.moduli_bits.(st.level - 1))
        (switch_floor_bits p ~degree:st.degree) }

(* A modulus switch pays off while it cuts the bound by half a bit. *)
let switch_helps p st = st.level > 1 && (modswitch p st).bits < st.bits -. 0.5

(* Bgv.rescale_to_floor's loop.  [switch] performs each step (the cost
   walk passes one that also records the ledger). *)
let rescale_to_floor ?(switch = modswitch) p st =
  let rec go st = if switch_helps p st then go (switch p st) else st in
  go st

(* Digit-decomposition key switching (relinearisation or a Galois
   automorphism) back to a degree-1 ciphertext: adds
   t · ndigits · n · 2^w · eta. *)
let key_switch p st ~ndigits ~w =
  let added =
    p.t_bits +. log2 (float_of_int ndigits) +. log2_n p +. float_of_int w +. log2 p.eta
  in
  { st with degree = 1; bits = log2_add st.bits added }

let truncate st ~level =
  if level < 1 || level > st.level then invalid_arg "Noise_model.truncate: bad level";
  { st with level }

(* The flood width of the packed paths' Return-kNN: the bound of a
   fresh ciphertext after one plain product (a block indicator times
   Party A's plaintext block), plus 40 bits of statistical margin.  It
   depends on the parameters alone. *)
let flood_bits p = int_of_float (Float.ceil (mul_plain p (fresh p)).bits) + 40

(* What Bgv.rerandomize ~flood_bits adds: a fresh encryption of zero
   whose c0 also carries the flood. *)
let flooded_zero p ~level ~flood_bits =
  { (fresh_at p ~level) with bits = log2_add (fresh_noise_bits p) (float_of_int flood_bits) }

let flood p st ~flood_bits = add st (flooded_zero p ~level:st.level ~flood_bits)

(* ------------------------------------------------------------------ *)
(* Level-drop rules                                                    *)
(* ------------------------------------------------------------------ *)

(* Party A's distances are one product deep, so their bound sits far
   below the full modulus.  Each rule below predicts the masked bound
   and keeps the fewest RNS primes whose modulus clears it with 17 bits
   of slack, never below the return level; the spare primes go in one
   cheap truncation instead of a modswitch chain.  The live circuit and
   the symbolic walk both call these, on the same floats. *)

(* The lowest level, walking at most [below] primes, whose modulus
   exceeds [need] bits; [None] when even [below] primes fall short. *)
let level_for_need p ~return_level ~below ~need =
  let lvl = ref 0 and bits = ref 0.0 in
  while !bits <= need && !lvl < below do
    bits := !bits +. p.moduli_bits.(!lvl);
    incr lvl
  done;
  if !bits > need then Some (Stdlib.max !lvl return_level) else None

(* The inner-product circuit, per point: ED at [level] with noise
   [bits], about to take the affine mask (a scalar below t).  [Some lvl]
   when [lvl <= level] primes clear it; at [lvl = level] there is
   nothing to drop. *)
let distance_level p ~return_level ~level ~bits =
  match level_for_need p ~return_level ~below:level ~need:(bits +. p.t_bits +. 17.0) with
  | Some lvl when lvl <= level -> Some lvl
  | _ -> None

(* The inner-product query's level, from the fresh bound alone, so the
   client can encrypt there: the ED of a fresh stored point and norm
   against a fresh query, as the circuit combines them without
   relinearisation, then distance_level's need.  Every op's increment is
   level-independent, so an ED computed at this level carries the bound
   the full chain would, and it is its own distance level. *)
let inner_product_query_level p ~return_level =
  let fresh = fresh p in
  let ed = add (add fresh fresh) (mul_scalar (mul p fresh fresh) ~bits:1.0) in
  level_for_need p ~return_level ~below:(chain_length p) ~need:(ed.bits +. p.t_bits +. 17.0)

(* Packed path: the level of the query ciphertexts, from the fresh
   bound alone, so the client can encrypt there.  Every later op's
   noise increment is level-independent, so a query at this level ends
   the circuit at the same bound with all the per-batch work on the
   short chain.  The masked bound is d plain products summed, the ED
   combine, then the mask. *)
let packed_query_level p ~return_level ~d =
  let q_bits = fresh_noise_bits p in
  let ip = q_bits +. log2_n p +. p.t_bits -. 1.0 +. log2 (float_of_int (Stdlib.max 1 d)) in
  let ed = log2_add (log2_add q_bits (p.t_bits -. 1.0)) (ip +. 1.0) in
  level_for_need p ~return_level ~below:(chain_length p) ~need:(ed +. p.t_bits +. 17.0)

(* ------------------------------------------------------------------ *)
(* Forecast traces                                                     *)
(* ------------------------------------------------------------------ *)

type step = { op : string; s_level : int; s_bits : float; s_headroom : float }

type report = {
  steps : step list;
  min_headroom_bits : float;
  margin_bits : float;
  below_margin : bool;
}

type trace = { t_params : params; mutable rev_steps : step list }

let start p = { t_params = p; rev_steps = [] }

let step tr op st =
  tr.rev_steps <-
    { op; s_level = st.level; s_bits = st.bits; s_headroom = headroom tr.t_params st }
    :: tr.rev_steps;
  st

let report ?(margin_bits = 4.0) tr =
  let steps = List.rev tr.rev_steps in
  let min_headroom_bits =
    List.fold_left (fun m s -> Float.min m s.s_headroom) infinity steps
  in
  { steps; min_headroom_bits; margin_bits; below_margin = min_headroom_bits < margin_bits }

let pp_report ppf r =
  Format.fprintf ppf "@[<v>noise forecast (margin %.1f bits):@," r.margin_bits;
  List.iter
    (fun s ->
      Format.fprintf ppf "  %-28s level=%-2d noise=%7.1f headroom=%7.1f@," s.op s.s_level
        s.s_bits s.s_headroom)
    r.steps;
  Format.fprintf ppf "  min headroom %.1f bits — %s@]" r.min_headroom_bits
    (if r.below_margin then "BELOW MARGIN" else "ok")
