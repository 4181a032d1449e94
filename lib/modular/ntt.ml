type table = {
  p : int;
  n : int;
  psi_rev : int array;      (* psi^brv(i), forward twiddles *)
  psi_hi : int array;       (* Shoup companions of psi_rev, 31-bit split *)
  psi_lo : int array;
  psi_inv_rev : int array;  (* psi^-brv(i), inverse twiddles *)
  psi_inv_hi : int array;
  psi_inv_lo : int array;
  n_inv : int;
  n_inv_hi : int;
  n_inv_lo : int;
  br : Barrett.t;
  lazy_ok : bool;           (* p < 2^30: lazy butterflies + Barrett apply *)
}

let prime t = t.p
let degree t = t.n
let barrett t = t.br
let n_inv t = { Shoup.w = t.n_inv; hi = t.n_inv_hi; lo = t.n_inv_lo }

let is_pow2 n = n > 0 && n land (n - 1) = 0

let bit_reverse ~bits i =
  let r = ref 0 and i = ref i in
  for _ = 1 to bits do
    r := (!r lsl 1) lor (!i land 1);
    i := !i lsr 1
  done;
  !r

(* Table construction runs once per modulus, never on the hot path:
   the mod-based twiddle powers here are the documented whitelisted
   site of the no-division rule. *)
let[@sknn.allow "no-division"] make_table ~p ~n =
  if not (is_pow2 n) then invalid_arg "Ntt.make_table: n not a power of two";
  if p >= 1 lsl 31 then invalid_arg "Ntt.make_table: p >= 2^31";
  let p64 = Int64.of_int p in
  if not (Prime64.is_prime p64) then invalid_arg "Ntt.make_table: p not prime";
  if (p - 1) mod (2 * n) <> 0 then invalid_arg "Ntt.make_table: p <> 1 mod 2n";
  let psi = Int64.to_int (Prime64.root_of_unity ~p:p64 ~order:(Int64.of_int (2 * n))) in
  let psi_inv = Int64.to_int (Mod64.inv p64 (Int64.of_int psi)) in
  let bits =
    let rec go b m = if m = 1 then b else go (b + 1) (m lsr 1) in
    go 0 n
  in
  let powers base =
    (* tbl.(i) = base^brv(i) mod p *)
    let direct = Array.make n 1 in
    for i = 1 to n - 1 do
      direct.(i) <- direct.(i - 1) * base mod p
    done;
    Array.init n (fun i -> direct.(bit_reverse ~bits i))
  in
  let companions ws =
    let hi = Array.make n 0 and lo = Array.make n 0 in
    Array.iteri
      (fun i w ->
        let s = Shoup.of_int ~p w in
        hi.(i) <- s.Shoup.hi;
        lo.(i) <- s.Shoup.lo)
      ws;
    (hi, lo)
  in
  let psi_rev = powers psi and psi_inv_rev = powers psi_inv in
  let psi_hi, psi_lo = companions psi_rev in
  let psi_inv_hi, psi_inv_lo = companions psi_inv_rev in
  let n_inv = Int64.to_int (Mod64.inv p64 (Int64.of_int n)) in
  let sn = Shoup.of_int ~p n_inv in
  { p; n; psi_rev; psi_hi; psi_lo; psi_inv_rev; psi_inv_hi; psi_inv_lo;
    n_inv; n_inv_hi = sn.Shoup.hi; n_inv_lo = sn.Shoup.lo;
    br = Barrett.create ~p; lazy_ok = p < 1 lsl 30 }

(* ------------------------------------------------------------------ *)
(* Division-free path, p < 2^30.

   Butterfly values are kept lazily in [0, 2p): with p < 2^30 every
   such value is below 2^31, so it is a valid input to the Shoup
   quotient estimate (exact floor, see shoup.ml) and sums of two stay
   below 2^32 — far inside the 63-bit int.  A trailing O(n) pass (the
   inverse folds it into the 1/n scaling) restores the fully-reduced
   [0, p) representation, so outputs are bit-identical to the naive
   mod-based transform. *)
(* ------------------------------------------------------------------ *)

(* The transforms below index only within [0, n): the length check in
   [forward]/[inverse] plus the power-of-two stage structure make every
   access in range, so the inner loops use unsafe accessors — at the
   protocol's n = 64 the bounds checks would otherwise rival the
   arithmetic. *)

let forward_lazy t a =
  let p = t.p and n = t.n in
  let twop = 2 * p in
  let w = t.psi_rev and whi = t.psi_hi and wlo = t.psi_lo in
  let len = ref n and m = ref 1 in
  while !m < n lsr 1 do
    let half = !len lsr 1 in
    let mm = !m in
    for i = 0 to mm - 1 do
      let j1 = 2 * i * half in
      let idx = mm + i in
      let sw = Array.unsafe_get w idx in
      let shi = Array.unsafe_get whi idx in
      let slo = Array.unsafe_get wlo idx in
      for j = j1 to j1 + half - 1 do
        let u = Array.unsafe_get a j in
        let x = Array.unsafe_get a (j + half) in
        let q = ((shi * x) + ((slo * x) lsr 31)) lsr 31 in
        let v = (sw * x) - (q * p) in
        let s = u + v in
        Array.unsafe_set a j (s - (twop land ((twop - 1 - s) asr 62)));
        let d = u - v + twop in
        Array.unsafe_set a (j + half) (d - (twop land ((twop - 1 - d) asr 62)))
      done
    done;
    len := half;
    m := mm * 2
  done;
  (* Last stage (half = 1) flattened, with the final reduction to
     [0, p) folded into its outputs: inputs are in [0, 2p), so
     u + v < 4p and u - v + 2p < 4p need two conditional subtractions
     each — the same count as butterfly-then-pass, minus a full sweep
     of loads and stores. *)
  if n >= 2 then begin
    let hn = n lsr 1 in
    for i = 0 to hn - 1 do
      let idx = hn + i in
      let sw = Array.unsafe_get w idx in
      let shi = Array.unsafe_get whi idx in
      let slo = Array.unsafe_get wlo idx in
      let j = 2 * i in
      let u = Array.unsafe_get a j in
      let x = Array.unsafe_get a (j + 1) in
      let q = ((shi * x) + ((slo * x) lsr 31)) lsr 31 in
      let v = (sw * x) - (q * p) in
      let s = u + v in
      let s = s - (twop land ((twop - 1 - s) asr 62)) in
      Array.unsafe_set a j (s - (p land ((p - 1 - s) asr 62)));
      let d = u - v + twop in
      let d = d - (twop land ((twop - 1 - d) asr 62)) in
      Array.unsafe_set a (j + 1) (d - (p land ((p - 1 - d) asr 62)))
    done
  end
  else begin
    let x = Array.unsafe_get a 0 in
    if x >= p then Array.unsafe_set a 0 (x - p)
  end

let inverse_lazy t a =
  let p = t.p and n = t.n in
  let twop = 2 * p in
  let w = t.psi_inv_rev and whi = t.psi_inv_hi and wlo = t.psi_inv_lo in
  (* First stage (len = 1) flattened: adjacent pairs, one twiddle per
     butterfly, no inner loop to set up. *)
  if n >= 2 then begin
    let hn = n lsr 1 in
    for i = 0 to hn - 1 do
      let idx = hn + i in
      let sw = Array.unsafe_get w idx in
      let shi = Array.unsafe_get whi idx in
      let slo = Array.unsafe_get wlo idx in
      let j = 2 * i in
      let u = Array.unsafe_get a j in
      let v = Array.unsafe_get a (j + 1) in
      let s = u + v in
      Array.unsafe_set a j (s - (twop land ((twop - 1 - s) asr 62)));
      let d = u - v + twop in
      let d = d - (twop land ((twop - 1 - d) asr 62)) in
      let q = ((shi * d) + ((slo * d) lsr 31)) lsr 31 in
      Array.unsafe_set a (j + 1) ((sw * d) - (q * p))
    done
  end;
  let len = ref 2 and m = ref (n lsr 1) in
  while !m > 1 do
    let h = !m lsr 1 in
    let ll = !len in
    let j1 = ref 0 in
    for i = 0 to h - 1 do
      let idx = h + i in
      let sw = Array.unsafe_get w idx in
      let shi = Array.unsafe_get whi idx in
      let slo = Array.unsafe_get wlo idx in
      let lo = !j1 in
      for j = lo to lo + ll - 1 do
        let u = Array.unsafe_get a j in
        let v = Array.unsafe_get a (j + ll) in
        let s = u + v in
        Array.unsafe_set a j (s - (twop land ((twop - 1 - s) asr 62)));
        let d = u - v + twop in
        let d = d - (twop land ((twop - 1 - d) asr 62)) in
        let q = ((shi * d) + ((slo * d) lsr 31)) lsr 31 in
        Array.unsafe_set a (j + ll) ((sw * d) - (q * p))
      done;
      j1 := lo + (2 * ll)
    done;
    len := ll * 2;
    m := h
  done;
  let ninv = t.n_inv and nhi = t.n_inv_hi and nlo = t.n_inv_lo in
  for j = 0 to n - 1 do
    let x = Array.unsafe_get a j in
    let q = ((nhi * x) + ((nlo * x) lsr 31)) lsr 31 in
    let r = (ninv * x) - (q * p) in
    Array.unsafe_set a j (r - (p land ((p - 1 - r) asr 62)))
  done

(* Fallback for p >= 2^30 (never produced by Params, but make_table's
   documented domain is p < 2^31): the original mod-based loops. *)

let[@sknn.allow "no-division"] forward_generic t a =
  let p = t.p and n = t.n and w = t.psi_rev in
  let len = ref n and m = ref 1 in
  while !m < n do
    len := !len / 2;
    for i = 0 to !m - 1 do
      let j1 = 2 * i * !len in
      let s = w.(!m + i) in
      for j = j1 to j1 + !len - 1 do
        let u = a.(j) in
        let v = a.(j + !len) * s mod p in
        let x = u + v in
        a.(j) <- (if x >= p then x - p else x);
        let y = u - v in
        a.(j + !len) <- (if y < 0 then y + p else y)
      done
    done;
    m := !m * 2
  done

let[@sknn.allow "no-division"] inverse_generic t a =
  let p = t.p and n = t.n and w = t.psi_inv_rev in
  let len = ref 1 and m = ref n in
  while !m > 1 do
    let h = !m / 2 in
    let j1 = ref 0 in
    for i = 0 to h - 1 do
      let s = w.(h + i) in
      for j = !j1 to !j1 + !len - 1 do
        let u = a.(j) in
        let v = a.(j + !len) in
        let x = u + v in
        a.(j) <- (if x >= p then x - p else x);
        let y = u - v in
        let y = if y < 0 then y + p else y in
        a.(j + !len) <- y * s mod p
      done;
      j1 := !j1 + (2 * !len)
    done;
    len := !len * 2;
    m := h
  done;
  let ninv = t.n_inv in
  for j = 0 to n - 1 do
    a.(j) <- a.(j) * ninv mod p
  done

let forward t a =
  if Array.length a <> t.n then invalid_arg "Ntt.forward: wrong length";
  if t.lazy_ok then forward_lazy t a else forward_generic t a

let inverse t a =
  if Array.length a <> t.n then invalid_arg "Ntt.inverse: wrong length";
  if t.lazy_ok then inverse_lazy t a else inverse_generic t a

let check3 t name x y z =
  if Array.length x <> t.n || Array.length y <> t.n || Array.length z <> t.n
  then invalid_arg name

let pointwise_mul t dst a b =
  check3 t "Ntt.pointwise_mul: wrong length" dst a b;
  let p = t.p and n = t.n in
  if t.lazy_ok then begin
    let mu = t.br.Barrett.mu and s1 = t.br.Barrett.s1 and s2 = t.br.Barrett.s2 in
    for i = 0 to n - 1 do
      let m = Array.unsafe_get a i * Array.unsafe_get b i in
      let q = ((m lsr s1) * mu) lsr s2 in
      let r = m - (q * p) in
      let r = r - (p land ((p - 1 - r) asr 62)) in
      Array.unsafe_set dst i (r - (p land ((p - 1 - r) asr 62)))
    done
  end
  else
    (for i = 0 to n - 1 do
       dst.(i) <- a.(i) * b.(i) mod p
     done)
    [@sknn.allow "no-division" (* generic fallback branch, p >= 2^30 *)]

let pointwise_mul_acc t acc a b =
  check3 t "Ntt.pointwise_mul_acc: wrong length" acc a b;
  let p = t.p and n = t.n in
  if t.lazy_ok then begin
    let mu = t.br.Barrett.mu and s1 = t.br.Barrett.s1 and s2 = t.br.Barrett.s2 in
    for i = 0 to n - 1 do
      let m = Array.unsafe_get a i * Array.unsafe_get b i in
      let q = ((m lsr s1) * mu) lsr s2 in
      let r = m - (q * p) in
      let r = r - (p land ((p - 1 - r) asr 62)) in
      let r = r - (p land ((p - 1 - r) asr 62)) in
      let v = Array.unsafe_get acc i + r in
      Array.unsafe_set acc i (v - (p land ((p - 1 - v) asr 62)))
    done
  end
  else
    (for i = 0 to n - 1 do
       acc.(i) <- (acc.(i) + (a.(i) * b.(i) mod p)) mod p
     done)
    [@sknn.allow "no-division" (* generic fallback branch, p >= 2^30 *)]

let negacyclic_mul t a b =
  let fa = Array.copy a in
  Util.Arena.with_array t.n (fun fb ->
      Array.blit b 0 fb 0 t.n;
      forward t fa;
      forward t fb;
      pointwise_mul t fa fa fb;
      inverse t fa);
  fa
