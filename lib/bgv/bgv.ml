module Rng = Util.Rng
module Counters = Util.Counters
module NM = Util.Noise_model
module Z = Zint

type secret_key = {
  sk_params : Params.t;
  s_coeffs : int array;
  mutable s_powers : Rq.t list; (* [s^1; s^2; …], Eval domain, full chain *)
  sp_lock : Mutex.t; (* guards s_powers: decryptions may run in parallel *)
}

type public_key = { pk_params : Params.t; pk_b : Rq.t; pk_a : Rq.t }

type relin_key = {
  rk_params : Params.t;
  rk_digit_bits : int;
  rk_rows : (Rq.t * Rq.t) array; (* (b_j, a_j) with b_j + a_j s = t e_j + 2^{jw} s^2 *)
}

type galois_key = {
  gk_params : Params.t;
  gk_elt : int;                  (* the automorphism x -> x^elt, odd mod 2n *)
  gk_digit_bits : int;
  gk_rows : (Rq.t * Rq.t) array; (* b_j + a_j s = t e_j + 2^{jw} s(x^elt) *)
}

type keys = { sk : secret_key; pk : public_key; rlk : relin_key }

type ct = {
  params : Params.t;
  comps : Rq.t array; (* Eval domain invariant; degree = length - 1 *)
  factor : int64;     (* decrypt yields factor * m; undone in decrypt *)
  log_noise : float;  (* bits: conservative bound on |c0 + c1 s + …| *)
}

(* Ledger recording: one op-kind × level cell per primary operation,
   plus the whole-polynomial NTT passes it triggers.  Where the number
   of passes depends on a value's current domain, the census uses
   [Rq.needs_transform] so counts stay exact by construction rather
   than by convention. *)
let record_op c op ~level =
  match c with None -> () | Some c -> Counters.record_op c op ~level

let record_op_n c op ~level k =
  match c with None -> () | Some c -> Counters.record_op_n c op ~level k

(* Count the Eval→Coeff pass [rq] would need to present coefficients. *)
let record_inv_census c rq ~level =
  if Rq.needs_transform rq Rq.Coeff then record_op c Counters.Op_ntt_inv ~level

let degree ct = Array.length ct.comps - 1
let level ct = Rq.nprimes ct.comps.(0)

(* The ciphertext as the noise model sees it.  Every op derives its
   tracked bound by applying the model's op to these states. *)
let state ct = { NM.level = level ct; degree = degree ct; bits = ct.log_noise }
let nm ct = ct.params.Params.noise

let noise_bits ct = ct.log_noise
let noise_budget_bits ct = NM.headroom (nm ct) (state ct)
let byte_size ct = NM.ct_bytes (nm ct) (state ct)

let pp_ct ppf ct =
  Format.fprintf ppf "<ct deg=%d level=%d noise=%.0f budget=%.0f factor=%Ld>"
    (degree ct) (level ct) ct.log_noise (noise_budget_bits ct) ct.factor

let params_of_sk sk = sk.sk_params
let params_of_pk pk = pk.pk_params

(* ------------------------------------------------------------------ *)
(* Key generation                                                      *)
(* ------------------------------------------------------------------ *)

let keygen rng (p : Params.t) =
  let ring = p.Params.ring in
  let full = Array.length p.Params.moduli in
  let n = p.Params.n in
  let s_coeffs = Sampler.ternary_coeffs rng ~n in
  let s = Rq.of_small_coeffs ~bound:1 ring ~nprimes:full Rq.Eval s_coeffs in
  let t = p.Params.t_plain in
  let eta = p.Params.eta in
  let rlwe_pair ~extra =
    (* (b, a) with b + a·s = t·e + extra. *)
    let a = Sampler.uniform rng ring ~nprimes:full in
    let e = Rq.of_small_coeffs ~bound:eta ring ~nprimes:full Rq.Eval (Sampler.cbd_coeffs rng ~n ~eta) in
    let b = Rq.add (Rq.neg (Rq.mul a s)) (Rq.mul_scalar e t) in
    let b = match extra with None -> b | Some x -> Rq.add b x in
    (b, a)
  in
  let pk_b, pk_a = rlwe_pair ~extra:None in
  let s2 = Rq.mul s s in
  let w = p.Params.relin_digit_bits in
  let q_bits = Z.numbits (Rq.modulus ring ~nprimes:full) in
  let ndigits = (q_bits + w - 1) / w in
  let rk_rows =
    Array.init ndigits (fun j ->
        let gadget = Z.shift_left Z.one (j * w) in
        rlwe_pair ~extra:(Some (Rq.mul_scalar_zint s2 gadget)))
  in
  { sk = { sk_params = p; s_coeffs; s_powers = [ s ]; sp_lock = Mutex.create () };
    pk = { pk_params = p; pk_b; pk_a };
    rlk = { rk_params = p; rk_digit_bits = w; rk_rows } }

let s_power sk i =
  if i < 1 then invalid_arg "Bgv.s_power";
  match i, sk.s_powers with
  | 1, s :: _ -> s (* degree-1 fast path: s itself never changes *)
  | _ ->
    Mutex.protect sk.sp_lock (fun () ->
        let rec extend powers =
          if List.length powers >= i then powers
          else begin
            let top = List.nth powers (List.length powers - 1) in
            let s1 = List.nth powers 0 in
            extend (powers @ [ Rq.mul top s1 ])
          end
        in
        sk.s_powers <- extend sk.s_powers;
        List.nth sk.s_powers (i - 1))

(* c0 + c1·s + c2·s² + … — the decryption dot product, fused into one
   owned accumulator.  Residue addition mod p is exact and commutative,
   so the result is bit-identical to the mul-then-add fold. *)
let sk_dot sk ct =
  let k = level ct in
  if degree ct = 0 then ct.comps.(0)
  else begin
    let acc = Rq.mul ct.comps.(1) (Rq.truncate (s_power sk 1) ~nprimes:k) in
    Rq.add_into acc ct.comps.(0);
    for i = 2 to degree ct do
      Rq.mul_add_into acc ct.comps.(i) (Rq.truncate (s_power sk i) ~nprimes:k)
    done;
    acc
  end

(* ------------------------------------------------------------------ *)
(* Encrypt / decrypt                                                   *)
(* ------------------------------------------------------------------ *)

(* c0 = b·u + NTT(t·e0 + m [+ t·F]) and c1 = a·u + NTT(t·e1): three
   forward NTT sets (u and the two fused embeddings).  The NTT is linear
   mod p, so the residues equal b·u + t·NTT(e0) + NTT(m) [+ NTT(t·F)].
   Every draw comes first, in the order u, e0, e1, then the flood's
   chunks. *)
let encrypt_gen ?counters ?plain ?flood ~nprimes rng pk =
  let p = pk.pk_params in
  let ring = p.Params.ring in
  record_op counters Counters.Op_encrypt ~level:nprimes;
  record_op_n counters Counters.Op_ntt_fwd ~level:nprimes 3;
  let n = p.Params.n and eta = p.Params.eta in
  let u = Rq.of_small_coeffs ~bound:1 ring ~nprimes Rq.Eval (Sampler.ternary_coeffs rng ~n) in
  let e0 = Sampler.cbd_coeffs rng ~n ~eta in
  let e1 = Sampler.cbd_coeffs rng ~n ~eta in
  let flood = Option.map (fun draw -> draw rng) flood in
  let b = Rq.truncate pk.pk_b ~nprimes and a = Rq.truncate pk.pk_a ~nprimes in
  (* The products are freshly owned, so the additions can be in-place. *)
  let c0 = Rq.mul b u in
  Rq.add_into c0 (Rq.embed_noise ?plain ?flood ring ~nprimes ~bound:eta e0);
  let c1 = Rq.mul a u in
  Rq.add_into c1 (Rq.embed_noise ring ~nprimes ~bound:eta e1);
  { params = p; comps = [| c0; c1 |]; factor = 1L;
    log_noise = (NM.fresh_at p.Params.noise ~level:nprimes).NM.bits }

let encrypt ?counters ?level rng pk pt =
  let p = pk.pk_params in
  if Plaintext.params pt != p then invalid_arg "Bgv.encrypt: parameter mismatch";
  let full = Array.length p.Params.moduli in
  let nprimes =
    match level with
    | None -> full
    | Some l ->
      if l < 1 || l > full then invalid_arg "Bgv.encrypt: level out of range";
      l
  in
  encrypt_gen ?counters ~plain:(Plaintext.to_coeffs pt) ~nprimes rng pk

exception Decryption_failure of string

let check_budget op ct =
  if noise_budget_bits ct <= 0.0 then
    raise
      (Decryption_failure
         (Format.asprintf "Bgv.%s: noise budget exhausted (%a)" op pp_ct ct))

(* The public factor's inverse mod t, as the decode's [scale]: none
   when the factor is 1. *)
let factor_inverse ct =
  if Int64.equal ct.factor 1L then None
  else Some (Int64.to_int (Mod64.inv ct.params.Params.t_plain ct.factor))

let decrypt ?counters sk ct =
  record_op counters Counters.Op_decrypt ~level:(level ct);
  let p = sk.sk_params in
  check_budget "decrypt" ct;
  let acc = sk_dot sk ct in
  record_inv_census counters acc ~level:(level ct);
  (* sk_dot hands back the ciphertext's own component at degree 0:
     transform a copy there, the owned accumulator in place otherwise. *)
  let acc = if degree ct = 0 then Rq.to_coeff acc else Rq.to_coeff_into acc in
  let m = Rq.decode_mod_t ?scale:(factor_inverse ct) acc in
  Plaintext.of_coeffs p (Array.map Int64.of_int m)

let decrypt_coeff0 ?counters sk ct =
  (* Reads the evaluation-domain residues directly: no NTT pass. *)
  record_op counters Counters.Op_decrypt ~level:(level ct);
  let p = sk.sk_params in
  check_budget "decrypt_coeff0" ct;
  let acc = sk_dot sk ct in
  (* Constant coefficient of the negacyclic inverse transform:
     a_0 = n^{-1} * sum of the evaluation-domain values (the odd psi
     powers sum to zero except at j = 0). *)
  let k = level ct in
  let n = p.Params.n in
  let moduli = p.Params.moduli in
  let ring = ct.params.Params.ring in
  let residues =
    Array.init k (fun i ->
        let pi = moduli.(i) in
        let comp = Rq.unsafe_component acc i in
        let s = ref 0 in
        for j = 0 to n - 1 do
          (* Branchless conditional subtract: after the add, s is in
             [0, 2*pi); pi - 1 - s is negative exactly when s >= pi, so
             the arithmetic shift yields an all-ones mask selecting pi.
             Keeps the accumulation loop free of secret-dependent
             branches (pi < 2^31, so no overflow on 63-bit ints). *)
          s := !s + comp.(j);
          s := !s - (pi land ((pi - 1 - !s) asr 62))
        done;
        (* s · n^-1 mod pi, a Shoup product by the table's constant. *)
        let ni = Rq.n_inv ring i in
        let x = !s in
        let q = ((ni.Shoup.hi * x) + ((ni.Shoup.lo * x) lsr 31)) lsr 31 in
        let r = (ni.Shoup.w * x) - (q * pi) in
        r - (pi land ((pi - 1 - r) asr 62)))
  in
  Int64.of_int (Rq.decode_residues_mod_t ?scale:(factor_inverse ct) ring residues)

(* ------------------------------------------------------------------ *)
(* Level and factor management                                         *)
(* ------------------------------------------------------------------ *)

let truncate_to_level ?counters ct k =
  if k > level ct then invalid_arg "Bgv.truncate_to_level: cannot raise level";
  if k = level ct then ct
  else begin
    record_op counters Counters.Op_level_drop ~level:k;
    { ct with comps = Array.map (fun c -> Rq.truncate c ~nprimes:k) ct.comps }
  end

let align a b =
  let k = Stdlib.min (level a) (level b) in
  (truncate_to_level a k, truncate_to_level b k)

let scalar_bits ~t_plain v =
  let c = Mod64.centered t_plain (Mod64.reduce t_plain v) in
  NM.log2 (Float.max 1.0 (Int64.to_float (Int64.abs c)))

(* Multiply all components by a scalar (changes the raw plaintext).
   The bound grows by [bits], the scalar's own width unless the caller
   charges a public bound on it. *)
let scale_raw ?bits ct v =
  let bits =
    match bits with Some b -> b | None -> scalar_bits ~t_plain:ct.params.Params.t_plain v
  in
  { ct with
    comps = Array.map (fun c -> Rq.mul_scalar c v) ct.comps;
    log_noise = (NM.mul_scalar (state ct) ~bits).NM.bits }

let match_factor target ct =
  if Int64.equal ct.factor target then ct
  else begin
    let t = ct.params.Params.t_plain in
    let adjust = Mod64.mul t target (Mod64.inv t ct.factor) in
    let ct = scale_raw ct adjust in
    { ct with factor = target }
  end

(* ------------------------------------------------------------------ *)
(* Linear operations                                                   *)
(* ------------------------------------------------------------------ *)

let pad comps k ring nprimes =
  (* Extend a component array with zeros up to k entries. *)
  Array.init k (fun i ->
      if i < Array.length comps then comps.(i)
      else Rq.zero ring ~nprimes Rq.Eval)

let add2 op f a b =
  if a.params != b.params then invalid_arg (op ^ ": parameter mismatch");
  let a, b = align a b in
  let b = match_factor a.factor b in
  let k = Stdlib.max (Array.length a.comps) (Array.length b.comps) in
  let ring = a.params.Params.ring in
  let ca = pad a.comps k ring (level a) and cb = pad b.comps k ring (level b) in
  { params = a.params;
    comps = Array.init k (fun i -> f ca.(i) cb.(i));
    factor = a.factor;
    log_noise = (NM.add (state a) (state b)).NM.bits }

let add ?counters a b =
  record_op counters Counters.Op_ct_add ~level:(Stdlib.min (level a) (level b));
  add2 "Bgv.add" Rq.add a b

let sub ?counters a b =
  record_op counters Counters.Op_ct_add ~level:(Stdlib.min (level a) (level b));
  add2 "Bgv.sub" Rq.sub a b

let neg ct = { ct with comps = Array.map Rq.neg ct.comps }

(* A plaintext embedded Coeff→Eval once, at a level: what add_plain
   and mul_plain build per call, kept for reuse across products. *)
type embedded = { e_params : Params.t; e_rq : Rq.t }

let embed ?counters ~level pt =
  let p = Plaintext.params pt in
  if level < 1 || level > Array.length p.Params.moduli then
    invalid_arg "Bgv.embed: level out of range";
  record_op counters Counters.Op_ntt_fwd ~level;
  { e_params = p;
    e_rq = Rq.of_int64_coeffs p.Params.ring ~nprimes:level Rq.Eval (Plaintext.to_coeffs pt) }

(* The embedding at [ct]'s level: residues are per prime, so dropping
   the upper primes is exact. *)
let embedded_at op ct e =
  if e.e_params != ct.params then invalid_arg (op ^ ": parameter mismatch");
  if level ct > Rq.nprimes e.e_rq then invalid_arg (op ^ ": ciphertext above the embedding");
  Rq.truncate e.e_rq ~nprimes:(level ct)

(* Adds [e] to the raw plaintext factor·m as it stands. *)
let add_raw ?counters ct e =
  record_op counters Counters.Op_ct_add ~level:(level ct);
  let comps = Array.copy ct.comps in
  comps.(0) <- Rq.add comps.(0) (embedded_at "Bgv.add_embedded" ct e);
  { ct with comps; log_noise = (NM.add_plain (nm ct) (state ct)).NM.bits }

let add_embedded ?counters ct e =
  if not (Int64.equal ct.factor 1L) then
    invalid_arg "Bgv.add_embedded: ciphertext carries a modulus-switch factor";
  add_raw ?counters ct e

let add_plain ?counters ct pt =
  if Plaintext.params pt != ct.params then invalid_arg "Bgv.add_plain: parameter mismatch";
  (* The stored raw plaintext is factor·m, so scale the addend too. *)
  add_raw ?counters ct (embed ?counters ~level:(level ct) (Plaintext.scale pt ct.factor))

(* add_plain (Plaintext.constant v) without the embedding: the scaled
   addend factor·v mod t is a constant polynomial, whose evaluation
   form is that constant at every point, so no transform runs. *)
let add_const ?counters ct v =
  record_op counters Counters.Op_ct_add ~level:(level ct);
  let t = ct.params.Params.t_plain in
  let c = Mod64.mul t (Mod64.reduce t v) (Mod64.reduce t ct.factor) in
  let comps = Array.copy ct.comps in
  comps.(0) <- Rq.add_constant comps.(0) c;
  { ct with comps; log_noise = (NM.add_plain (nm ct) (state ct)).NM.bits }

(* Σⱼ rowⱼ ⊙ e j for every row, j outer: embedding j is requested
   once, added into every row's running sums (Rq.sum_mul_add) and
   dropped, so one embedding lives at a time.  Each row's bound folds
   NM.mul_plain then NM.add in term order, as the mul_plain-then-add
   sequence would. *)
let mul_plain_sums ?counters rows e =
  let nrows = Array.length rows in
  if nrows = 0 || Array.length rows.(0) = 0 then invalid_arg "Bgv.mul_plain_sums: no terms";
  let terms = Array.length rows.(0) in
  let x = rows.(0).(0) in
  let lvl = level x in
  let same c = level c = lvl && degree c = degree x && Int64.equal c.factor x.factor in
  if not (Array.for_all (fun row -> Array.length row = terms && Array.for_all same row) rows)
  then invalid_arg "Bgv.mul_plain_sums: terms must share count, level, degree and factor";
  record_op_n counters Counters.Op_mul_plain ~level:lvl (nrows * terms);
  record_op_n counters Counters.Op_ct_add ~level:lvl (nrows * (terms - 1));
  let ring = x.params.Params.ring in
  let sums =
    Array.init nrows (fun _ -> Array.init (degree x + 1) (fun _ -> Rq.sum_create ring ~nprimes:lvl))
  in
  for j = 0 to terms - 1 do
    let m = embedded_at "Bgv.mul_plain_sums" x (e j) in
    Array.iteri
      (fun r row -> Array.iteri (fun i c -> Rq.sum_mul_add sums.(r).(i) c m) row.(j).comps)
      rows
  done;
  Array.mapi
    (fun r row ->
      let term j = NM.mul_plain (nm x) (state row.(j)) in
      let bound = ref (term 0) in
      for j = 1 to terms - 1 do
        bound := NM.add !bound (term j)
      done;
      { x with comps = Array.map Rq.sum_value sums.(r); log_noise = !bound.NM.bits })
    rows

let mul_plain ?counters ct pt =
  if Plaintext.params pt != ct.params then invalid_arg "Bgv.mul_plain: parameter mismatch";
  (mul_plain_sums ?counters [| [| ct |] |] (fun _ -> embed ?counters ~level:(level ct) pt)).(0)

let mul_scalar ?counters ct v =
  (* Pointwise scalar pass over the residues: no plaintext embed. *)
  record_op counters Counters.Op_mul_plain ~level:(level ct);
  scale_raw ct v

(* Σₛ x^{s·w}·ctₛ for [by] = x^w, one Rq.fold_monomials per
   component.  A product by a monomial permutes the decryption's
   coefficients up to sign, so the block's bound is the inputs' sum:
   the add fold in term order.  Each Horner step is one mul_plain and
   one ct_add cell; x^w's transform was built before the fold, so no
   NTT pass is recorded. *)
let fold_monomials ?counters ~by cts =
  let m = Array.length cts in
  if m = 0 then invalid_arg "Bgv.fold_monomials: no ciphertexts";
  let x = cts.(0) in
  if (m - 1) * Rq.exponent by >= x.params.Params.n then
    invalid_arg "Bgv.fold_monomials: the last term's shift leaves the ring degree";
  let lvl = level x in
  let same c =
    c.params == x.params && level c = lvl && degree c = degree x && Int64.equal c.factor x.factor
  in
  if not (Array.for_all same cts) then
    invalid_arg "Bgv.fold_monomials: inputs must share params, level, degree and factor";
  record_op_n counters Counters.Op_mul_plain ~level:lvl (m - 1);
  record_op_n counters Counters.Op_ct_add ~level:lvl (m - 1);
  let bound = ref (state x) in
  for s = 1 to m - 1 do
    bound := NM.add !bound (state cts.(s))
  done;
  let comps =
    Array.init (degree x + 1) (fun i ->
        Rq.fold_monomials ~by (Array.map (fun c -> c.comps.(i)) cts))
  in
  { x with comps; log_noise = !bound.NM.bits }

(* ------------------------------------------------------------------ *)
(* Modulus switching                                                   *)
(* ------------------------------------------------------------------ *)

(* [drops] modulus switches as one Rq.switch_down per component.  The
   ledger keeps one modswitch cell per prime dropped; the NTT census is
   one pair of passes per component for the whole chain: an inverse
   pass over the [drops] dropped primes (when the component is not
   already Coeff), recorded at level [drops], and a forward pass at the
   target level.  Factor and noise bound step exactly as single
   switches would. *)
let switch_down ?counters ct ~drops =
  let k = level ct in
  let moduli = ct.params.Params.moduli in
  let t = ct.params.Params.t_plain in
  let factor = ref ct.factor and st = ref (state ct) in
  for s = 0 to drops - 1 do
    record_op counters Counters.Op_modswitch ~level:(k - s);
    let drop = Int64.of_int moduli.(k - 1 - s) in
    factor := Mod64.mul t !factor (Mod64.inv t (Mod64.reduce t drop));
    st := NM.modswitch (nm ct) !st
  done;
  Array.iter (fun c -> record_inv_census counters c ~level:drops) ct.comps;
  record_op_n counters Counters.Op_ntt_fwd ~level:(k - drops) (Array.length ct.comps);
  { ct with
    comps = Array.map (fun c -> Rq.switch_down c ~drops) ct.comps;
    factor = !factor;
    log_noise = !st.NM.bits }

let modswitch ?counters ct =
  if level ct <= 1 then invalid_arg "Bgv.modswitch: already at the last level";
  switch_down ?counters ct ~drops:1

(* The trip count comes first, from the same Noise_model decisions a
   switch-at-a-time loop would make; the switches then run as one
   chain. *)
let rescale_to_floor ?counters ct =
  let nm = nm ct in
  let rec trips st j = if NM.switch_helps nm st then trips (NM.modswitch nm st) (j + 1) else j in
  match trips (state ct) 0 with
  | 0 -> ct
  | drops -> switch_down ?counters ct ~drops

(* ------------------------------------------------------------------ *)
(* Multiplication and relinearisation                                  *)
(* ------------------------------------------------------------------ *)

(* Digit-decomposition key switching, shared by relinearisation and the
   Galois automorphisms: given a target polynomial and gadget rows with
   b_j + a_j·s = t·e_j + 2^{jw}·S, returns (delta0, delta1, ndigits)
   such that delta0 + delta1·s = target·S + (t · small). *)
let key_switch_digits ?counters p ~w ~rows ~level:k target =
  let ring = p.Params.ring in
  let n = p.Params.n in
  let q_bits = Z.numbits (Rq.modulus ring ~nprimes:k) in
  let ndigits = Stdlib.min (Array.length rows) ((q_bits + w - 1) / w) in
  record_inv_census counters target ~level:k;
  record_op_n counters Counters.Op_ntt_fwd ~level:k ndigits;
  let coeffs = Rq.to_zint_coeffs target in
  (* Signed base-2^w digits of the centered coefficients. *)
  let digit_mask = Z.pred (Z.shift_left Z.one w) in
  let digit_polys =
    Array.init ndigits (fun j ->
        let digits =
          Array.init n (fun idx ->
              let v = coeffs.(idx) in
              let m = Z.shift_right (Z.abs v) (j * w) in
              let d = Z.to_int_exn (Z.erem m (Z.succ digit_mask)) in
              if Z.sign v < 0 then -d else d)
        in
        Rq.of_small_coeffs ~bound:(1 lsl w) ring ~nprimes:k Rq.Eval digits)
  in
  let d0 = Rq.zero ring ~nprimes:k Rq.Eval and d1 = Rq.zero ring ~nprimes:k Rq.Eval in
  for j = 0 to ndigits - 1 do
    let b_j, a_j = rows.(j) in
    Rq.mul_add_into d0 digit_polys.(j) (Rq.truncate b_j ~nprimes:k);
    Rq.mul_add_into d1 digit_polys.(j) (Rq.truncate a_j ~nprimes:k)
  done;
  (d0, d1, ndigits)

let relinearize ?counters rlk ct =
  if degree ct <> 2 then invalid_arg "Bgv.relinearize: degree <> 2";
  if rlk.rk_params != ct.params then invalid_arg "Bgv.relinearize: parameter mismatch";
  record_op counters Counters.Op_key_switch ~level:(level ct);
  let w = rlk.rk_digit_bits in
  let d0, d1, ndigits =
    key_switch_digits ?counters ct.params ~w ~rows:rlk.rk_rows ~level:(level ct) ct.comps.(2)
  in
  { ct with
    comps = [| Rq.add ct.comps.(0) d0; Rq.add ct.comps.(1) d1 |];
    log_noise = (NM.key_switch (nm ct) (state ct) ~ndigits ~w).NM.bits }

let mul ?counters ?rlk ?(rescale = true) a b =
  record_op counters Counters.Op_ct_mul ~level:(Stdlib.min (level a) (level b));
  if a.params != b.params then invalid_arg "Bgv.mul: parameter mismatch";
  let a, b = align a b in
  let da = Array.length a.comps and db = Array.length b.comps in
  let ring = a.params.Params.ring in
  let lvl = level a in
  (* Tensor straight into owned Eval accumulators: no intermediate
     product or sum values, and the same exact residues as before. *)
  let comps = Array.init (da + db - 1) (fun _ -> Rq.zero ring ~nprimes:lvl Rq.Eval) in
  for i = 0 to da - 1 do
    for j = 0 to db - 1 do
      Rq.mul_add_into comps.(i + j) a.comps.(i) b.comps.(j)
    done
  done;
  let t = a.params.Params.t_plain in
  let ct =
    { params = a.params;
      comps;
      factor = Mod64.mul t a.factor b.factor;
      log_noise = (NM.mul (nm a) (state a) (state b)).NM.bits }
  in
  let ct =
    match rlk with
    | Some rlk when degree ct = 2 -> relinearize ?counters rlk ct
    | Some _ | None -> ct
  in
  if rescale then rescale_to_floor ?counters ct else ct

(* ------------------------------------------------------------------ *)
(* Fused inner products                                                *)
(* ------------------------------------------------------------------ *)

(* Σᵢ aᵢ·bᵢ without rescaling between terms.  The fused path tensors
   each pair directly into a shared accumulator (Rq.mul_add_into),
   cutting the intermediate Rq allocations the mul-then-add fold pays
   per term — this is Return-kNN's row selection and k-means'
   coordinate sums.  Chunks may run on separate domains: residue addition
   mod p is associative and commutative, so the components are
   bit-identical for every job count, and the noise bound is folded
   sequentially in term order for the same reason.  With [rlk] the
   degree-2 sum is relinearised once, never term by term. *)
let mul_sum ?counters ?jobs ?rlk a b =
  let m = Array.length a in
  if m = 0 || Array.length b <> m then invalid_arg "Bgv.mul_sum: empty or mismatched inputs";
  let p = a.(0).params in
  let check c = if c.params != p then invalid_arg "Bgv.mul_sum: parameter mismatch" in
  Array.iter check a;
  Array.iter check b;
  let t = p.Params.t_plain in
  let lvl =
    let mn acc c = Stdlib.min acc (level c) in
    Array.fold_left mn (Array.fold_left mn (level a.(0)) a) b
  in
  let a = Array.map (fun c -> truncate_to_level c lvl) a in
  let b = Array.map (fun c -> truncate_to_level c lvl) b in
  let f0 = Mod64.mul t a.(0).factor b.(0).factor in
  for i = 1 to m - 1 do
    if not (Int64.equal (Mod64.mul t a.(i).factor b.(i).factor) f0) then
      invalid_arg "Bgv.mul_sum: terms must share one factor"
  done;
  record_op_n counters Counters.Op_ct_mul ~level:lvl m;
  record_op_n counters Counters.Op_ct_add ~level:lvl (m - 1);
  let ring = p.Params.ring in
  let width =
    let w = ref 0 in
    for i = 0 to m - 1 do
      w := Stdlib.max !w (Array.length a.(i).comps + Array.length b.(i).comps - 1)
    done;
    !w
  in
  let partials = ref [] in
  ignore
    (Util.Pool.map_local ?jobs
       ~make:(fun () -> Array.init width (fun _ -> Rq.zero ring ~nprimes:lvl Rq.Eval))
       ~merge:(fun acc -> partials := acc :: !partials)
       ~f:(fun acc i () ->
         let ca = a.(i).comps and cb = b.(i).comps in
         for x = 0 to Array.length ca - 1 do
           for y = 0 to Array.length cb - 1 do
             Rq.mul_add_into acc.(x + y) ca.(x) cb.(y)
           done
         done)
       (Array.make m ()));
  let comps =
    match List.rev !partials with
    | [] -> assert false
    | first :: rest ->
      List.fold_left (fun acc part -> Array.map2 Rq.add acc part) first rest
  in
  let log_noise =
    let term i = NM.mul p.Params.noise (state a.(i)) (state b.(i)) in
    let acc = ref (term 0) in
    for i = 1 to m - 1 do
      acc := NM.add !acc (term i)
    done;
    !acc.NM.bits
  in
  let sum = { params = p; comps; factor = f0; log_noise } in
  match rlk with
  | Some rlk when degree sum = 2 -> relinearize ?counters rlk sum
  | Some _ | None -> sum

(* Σⱼ (aⱼ - bⱼ)², Algorithm 1's per-coordinate distance, as
   mul_sum (sub a b) (sub a b) computes it but without the difference
   ciphertexts: Rq.sum_sq_diff forms d0², d0·d1 and d1² per term and
   sums them straight into the three components.  Residue arithmetic is
   exact, so the components, factor and tracked bound (the same
   term-order fold) equal that sequence's, and so does the ledger. *)
let sum_sq_diff ?counters ?rlk a b =
  let m = Array.length a in
  if m = 0 || Array.length b <> m then
    invalid_arg "Bgv.sum_sq_diff: empty or mismatched inputs";
  let x = a.(0) in
  let lvl = level x in
  let same c =
    c.params == x.params && level c = lvl && Int64.equal c.factor x.factor && degree c = 1
  in
  if not (Array.for_all same a && Array.for_all same b) then
    invalid_arg "Bgv.sum_sq_diff: inputs must share params, level, factor and degree 1";
  (* The m differences, then mul_sum's m products and m - 1 additions. *)
  record_op_n counters Counters.Op_ct_add ~level:lvl m;
  record_op_n counters Counters.Op_ct_mul ~level:lvl m;
  record_op_n counters Counters.Op_ct_add ~level:lvl (m - 1);
  let comps = Rq.sum_sq_diff (Array.map (fun c -> c.comps) a) (Array.map (fun c -> c.comps) b) in
  let log_noise =
    let term j =
      let d = NM.add (state a.(j)) (state b.(j)) in
      NM.mul (nm x) d d
    in
    let bound = ref (term 0) in
    for j = 1 to m - 1 do
      bound := NM.add !bound (term j)
    done;
    !bound.NM.bits
  in
  let t = x.params.Params.t_plain in
  let sum = { params = x.params; comps; factor = Mod64.mul t x.factor x.factor; log_noise } in
  match rlk with Some rlk -> relinearize ?counters rlk sum | None -> sum

(* ------------------------------------------------------------------ *)
(* Polynomial evaluation (the protocol's EvalPoly)                     *)
(* ------------------------------------------------------------------ *)

let eval_poly ?counters ?rlk ~lead_bits ~coeffs ct =
  let d = Array.length coeffs - 1 in
  if d < 0 then invalid_arg "Bgv.eval_poly: empty coefficient list";
  if d = 0 then add_const ?counters (mul_scalar ?counters ct 0L) coeffs.(0)
  else begin
    if scalar_bits ~t_plain:ct.params.Params.t_plain coeffs.(d) > lead_bits then
      invalid_arg "Bgv.eval_poly: leading coefficient above its bound";
    (* Horner: acc = a_d; acc = acc·x + a_i.  The leading coefficient
       is charged at its public bound, so the bound, and every rescale
       decided on it, is the same for every drawn polynomial. *)
    record_op counters Counters.Op_mul_plain ~level:(level ct);
    let acc = ref (scale_raw ~bits:lead_bits ct coeffs.(d)) in
    for i = d - 1 downto 0 do
      if i < d - 1 then begin
        let x = truncate_to_level ct (level !acc) in
        acc := mul ?counters ?rlk !acc x
      end;
      acc := add_const ?counters !acc coeffs.(i)
    done;
    !acc
  end

(* ------------------------------------------------------------------ *)
(* Serialisation                                                       *)
(*                                                                     *)
(* Layout (little-endian):                                             *)
(*   magic(4) n(4) t(8) degree(2) level(2) factor(8) noise(8)          *)
(*   moduli-fingerprint(4) then 4 bytes per residue, component-major.  *)
(* ------------------------------------------------------------------ *)

let ct_magic = 0x42475631l (* "BGV1" *)
let pk_magic = 0x42475650l (* "BGVP" *)
let sk_magic = 0x42475653l (* "BGVS" *)

let moduli_fingerprint p k =
  let acc = ref 0 in
  for i = 0 to k - 1 do
    acc := !acc lxor (p.Params.moduli.(i) * (i + 1))
  done;
  Int32.of_int (!acc land 0x3FFFFFFF)

let put_rq buf rq =
  let rq = Rq.to_eval rq in
  for i = 0 to Rq.nprimes rq - 1 do
    let comp = Rq.unsafe_component rq i in
    Array.iter (fun v -> Buffer.add_int32_le buf (Int32.of_int v)) comp
  done

exception Malformed of string

let decode_error what = raise (Malformed (Printf.sprintf "Bgv: malformed %s" what))

type reader = { data : Bytes.t; mutable pos : int }

let need r n what = if r.pos + n > Bytes.length r.data then decode_error (what ^ " (truncated)")

let get_i32 r what =
  need r 4 what;
  let v = Bytes.get_int32_le r.data r.pos in
  r.pos <- r.pos + 4;
  v

let get_i64 r what =
  need r 8 what;
  let v = Bytes.get_int64_le r.data r.pos in
  r.pos <- r.pos + 8;
  v

let get_u16 r what =
  need r 2 what;
  let v = Bytes.get_uint16_le r.data r.pos in
  r.pos <- r.pos + 2;
  v

let get_rq r p ~nprimes what =
  let n = p.Params.n in
  let comps =
    Array.init nprimes (fun i ->
        let m = p.Params.moduli.(i) in
        Array.init n (fun _ ->
            let v = Int32.to_int (get_i32 r what) land 0xFFFFFFFF in
            if v >= m then decode_error (what ^ " (residue out of range)");
            v))
  in
  Rq.of_components p.Params.ring Rq.Eval comps

let ct_to_bytes ct =
  let buf = Buffer.create (byte_size ct) in
  Buffer.add_int32_le buf ct_magic;
  Buffer.add_int32_le buf (Int32.of_int ct.params.Params.n);
  Buffer.add_int64_le buf ct.params.Params.t_plain;
  Buffer.add_uint16_le buf (degree ct);
  Buffer.add_uint16_le buf (level ct);
  Buffer.add_int64_le buf ct.factor;
  Buffer.add_int64_le buf (Int64.bits_of_float ct.log_noise);
  Buffer.add_int32_le buf (moduli_fingerprint ct.params (level ct));
  Array.iter (fun c -> put_rq buf c) ct.comps;
  Buffer.to_bytes buf

let check_params_header r p ~magic what =
  if not (Int32.equal (get_i32 r (what ^ " magic")) magic) then decode_error (what ^ " magic");
  if Int32.to_int (get_i32 r (what ^ " n")) <> p.Params.n then
    decode_error (what ^ " (ring degree mismatch)");
  if not (Int64.equal (get_i64 r (what ^ " t")) p.Params.t_plain) then
    decode_error (what ^ " (plaintext modulus mismatch)")

let ct_of_bytes p data =
  let r = { data; pos = 0 } in
  check_params_header r p ~magic:ct_magic "ciphertext";
  let deg = get_u16 r "degree" in
  let lvl = get_u16 r "level" in
  if lvl < 1 || lvl > Array.length p.Params.moduli then decode_error "ciphertext (level)";
  if deg < 1 || deg > 64 then decode_error "ciphertext (degree)";
  let factor = get_i64 r "factor" in
  let log_noise = Int64.float_of_bits (get_i64 r "noise") in
  if not (Int32.equal (get_i32 r "fingerprint") (moduli_fingerprint p lvl)) then
    decode_error "ciphertext (modulus chain mismatch)";
  let comps = Array.init (deg + 1) (fun _ -> get_rq r p ~nprimes:lvl "ciphertext body") in
  if r.pos <> Bytes.length data then decode_error "ciphertext (trailing bytes)";
  { params = p; comps; factor; log_noise }

let pk_to_bytes pk =
  let p = pk.pk_params in
  let buf = Buffer.create 64 in
  Buffer.add_int32_le buf pk_magic;
  Buffer.add_int32_le buf (Int32.of_int p.Params.n);
  Buffer.add_int64_le buf p.Params.t_plain;
  Buffer.add_int32_le buf (moduli_fingerprint p (Array.length p.Params.moduli));
  put_rq buf pk.pk_b;
  put_rq buf pk.pk_a;
  Buffer.to_bytes buf

let pk_of_bytes p data =
  let r = { data; pos = 0 } in
  check_params_header r p ~magic:pk_magic "public key";
  let full = Array.length p.Params.moduli in
  if not (Int32.equal (get_i32 r "fingerprint") (moduli_fingerprint p full)) then
    decode_error "public key (modulus chain mismatch)";
  let b = get_rq r p ~nprimes:full "public key b" in
  let a = get_rq r p ~nprimes:full "public key a" in
  if r.pos <> Bytes.length data then decode_error "public key (trailing bytes)";
  { pk_params = p; pk_b = b; pk_a = a }

let sk_to_bytes sk =
  let p = sk.sk_params in
  let buf = Buffer.create (p.Params.n + 16) in
  Buffer.add_int32_le buf sk_magic;
  Buffer.add_int32_le buf (Int32.of_int p.Params.n);
  Buffer.add_int64_le buf p.Params.t_plain;
  Array.iter
    (fun c ->
      (* ternary coefficients: one signed byte each *)
      Buffer.add_int8 buf c)
    sk.s_coeffs;
  Buffer.to_bytes buf

let sk_of_bytes p data =
  let r = { data; pos = 0 } in
  check_params_header r p ~magic:sk_magic "secret key";
  need r p.Params.n "secret key body";
  let s_coeffs =
    Array.init p.Params.n (fun i ->
        let v = Bytes.get_int8 data (r.pos + i) in
        if v < -1 || v > 1 then decode_error "secret key (non-ternary coefficient)";
        v)
  in
  r.pos <- r.pos + p.Params.n;
  if r.pos <> Bytes.length data then decode_error "secret key (trailing bytes)";
  let full = Array.length p.Params.moduli in
  { sk_params = p;
    s_coeffs;
    s_powers = [ Rq.of_small_coeffs ~bound:1 p.Params.ring ~nprimes:full Rq.Eval s_coeffs ];
    sp_lock = Mutex.create () }


(* ------------------------------------------------------------------ *)
(* Galois automorphisms                                                *)
(* ------------------------------------------------------------------ *)

let galois_elt gk = gk.gk_elt

let galois_keygen rng sk ~elt =
  let p = sk.sk_params in
  let n = p.Params.n in
  let elt = ((elt mod (2 * n)) + (2 * n)) mod (2 * n) in
  if elt land 1 = 0 then invalid_arg "Bgv.galois_keygen: elt must be odd";
  let ring = p.Params.ring in
  let full = Array.length p.Params.moduli in
  let t = p.Params.t_plain in
  let s = Rq.of_small_coeffs ~bound:1 ring ~nprimes:full Rq.Eval sk.s_coeffs in
  let s_sigma =
    Rq.to_eval
      (Rq.substitute (Rq.of_small_coeffs ~bound:1 ring ~nprimes:full Rq.Coeff sk.s_coeffs) ~k:elt)
  in
  let w = p.Params.relin_digit_bits in
  let q_bits = Z.numbits (Rq.modulus ring ~nprimes:full) in
  let ndigits = (q_bits + w - 1) / w in
  let rows =
    Array.init ndigits (fun j ->
        let gadget = Z.shift_left Z.one (j * w) in
        let a = Sampler.uniform rng ring ~nprimes:full in
        let e =
          Rq.of_small_coeffs ~bound:p.Params.eta ring ~nprimes:full Rq.Eval
            (Sampler.cbd_coeffs rng ~n ~eta:p.Params.eta)
        in
        let b =
          Rq.add
            (Rq.add (Rq.neg (Rq.mul a s)) (Rq.mul_scalar e t))
            (Rq.mul_scalar_zint s_sigma gadget)
        in
        (b, a))
  in
  { gk_params = p; gk_elt = elt; gk_digit_bits = w; gk_rows = rows }

let apply_galois ?counters gk ct =
  if gk.gk_params != ct.params then invalid_arg "Bgv.apply_galois: parameter mismatch";
  if degree ct <> 1 then invalid_arg "Bgv.apply_galois: degree <> 1 (relinearise first)";
  let k = level ct in
  record_op counters Counters.Op_key_switch ~level:k;
  (* (c0(x^e), c1(x^e)) decrypts under s(x^e); key-switch back to s.
     Each substitution works in the coefficient domain, so every
     component pays an inverse pass (when Eval) and a forward pass. *)
  Array.iter (fun c -> record_inv_census counters c ~level:k) ct.comps;
  record_op_n counters Counters.Op_ntt_fwd ~level:k 2;
  let c0s = Rq.to_eval (Rq.substitute ct.comps.(0) ~k:gk.gk_elt) in
  let c1s = Rq.to_eval (Rq.substitute ct.comps.(1) ~k:gk.gk_elt) in
  let w = gk.gk_digit_bits in
  let d0, d1, ndigits = key_switch_digits ?counters ct.params ~w ~rows:gk.gk_rows ~level:k c1s in
  { ct with
    comps = [| Rq.add c0s d0; d1 |];
    log_noise = (NM.key_switch (nm ct) (state ct) ~ndigits ~w).NM.bits }

(* Rotate-and-sum slot reduction: the Galois group of the power-of-two
   cyclotomic is <3> x <-1> and acts simply transitively on the slots,
   so folding the ciphertext with sigma_{3^(2^i)} for each i and finally
   with the conjugation sigma_{-1} leaves the total slot sum in every
   slot — log2(n) automorphisms instead of n. *)
let slot_sum_keys rng sk =
  let n = sk.sk_params.Params.n in
  let m = 2 * n in
  let rec squares acc elt count =
    if count = 0 then List.rev acc
    else squares (elt :: acc) (elt * elt mod m) (count - 1)
  in
  let steps =
    let rec log2i x = if x <= 1 then 0 else 1 + log2i (x / 2) in
    log2i (n / 2)
  in
  let elts = squares [] 3 steps @ [ m - 1 ] in
  List.map (fun elt -> galois_keygen rng sk ~elt) elts

let sum_slots ?counters gks ct =
  List.fold_left
    (fun acc gk -> add ?counters acc (apply_galois ?counters gk acc))
    ct gks

(* Debug oracle: the true noise magnitude, for validating the tracked
   bound (requires the secret key; never used by the protocols). *)
let actual_noise_bits sk ct =
  let acc = ref (sk_dot sk ct) in
  let coeffs = Rq.to_zint_coeffs !acc in
  let worst =
    Array.fold_left (fun m v -> Stdlib.max m (Z.numbits (Z.abs v))) 0 coeffs
  in
  float_of_int worst

(* F's draw: coefficients uniform in [-2^fb, 2^fb), as fb + 1 uniform
   bits per coefficient in 30-bit chunks, most significant first.  Each
   prime reduces them by Horner steps inside Rq.embed_noise, so no
   coefficient is ever materialised as a big integer. *)
let flood_draw ~n ~fb rng =
  let bits = fb + 1 in
  let per_coeff = (bits + 29) / 30 in
  let top = bits - (30 * (per_coeff - 1)) in
  let chunks = Array.make (n * per_coeff) 0 in
  for j = 0 to n - 1 do
    for c = 0 to per_coeff - 1 do
      let w = if c = 0 then top else 30 in
      chunks.((j * per_coeff) + c) <-
        Int64.to_int (Int64.shift_right_logical (Rng.bits64 rng) (64 - w))
    done
  done;
  { Rq.chunks; per_coeff; offset_bits = fb }

let numbits64 v =
  let rec go acc v = if Int64.equal v 0L then acc else go (acc + 1) (Int64.shift_right_logical v 1) in
  go 0 v

(* Flooded re-randomisation: add a fresh encryption of zero whose c0
   also carries t·F with |t·F| < 2^flood_bits.  When [flood_bits]
   exceeds the ciphertext's noise bound by a statistical margin, the
   result's noise is (statistically) independent of how the ciphertext
   was computed — the decryptor learns the plaintext and nothing about
   the operands.  The caller supplies a width derived from public
   bounds, never one read off a ciphertext. *)
let rerandomize ?counters ~flood_bits rng pk ct =
  let p = pk.pk_params in
  let lvl = level ct in
  let fb = flood_bits - numbits64 p.Params.t_plain in
  if fb < 0 then invalid_arg "Bgv.rerandomize: flood narrower than the plaintext modulus";
  if float_of_int flood_bits >= NM.log2_q p.Params.noise ~level:lvl -. 1.0 then
    invalid_arg "Bgv.rerandomize: flood does not fit under the level's modulus";
  (* An encryption of zero whose c0 embedding also carries t·F. *)
  let z = encrypt_gen ?counters ~flood:(flood_draw ~n:p.Params.n ~fb) ~nprimes:lvl rng pk in
  add ?counters ct
    { z with log_noise = (NM.flooded_zero p.Params.noise ~level:lvl ~flood_bits).NM.bits }
