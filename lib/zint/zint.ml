(* Sign-magnitude bignums, little-endian limbs in base 2^31.

   Base 2^31 is chosen so that on 64-bit OCaml every limb product
   (< 2^62) plus a limb-sized carry still fits in the native 63-bit int,
   which keeps the schoolbook inner loops allocation-free and simple.

   Invariants: [mag] has no leading (most-significant) zero limb;
   [sign = 0] iff [mag = [||]]; otherwise [sign] is 1 or -1. *)

let limb_bits = 31
let base = 1 lsl limb_bits (* 2^31 *)
let mask = base - 1

type t = { sign : int; mag : int array }

let zero = { sign = 0; mag = [||] }

(* ------------------------------------------------------------------ *)
(* Magnitude helpers (unsigned little-endian limb arrays).             *)
(* ------------------------------------------------------------------ *)

let mag_normalize a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do decr n done;
  if !n = Array.length a then a else Array.sub a 0 !n

let mag_compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)

let mag_add a b =
  let la = Array.length a and lb = Array.length b in
  let lr = (if la > lb then la else lb) + 1 in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 2 do
    let x = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- x land mask;
    carry := x lsr limb_bits
  done;
  r.(lr - 1) <- !carry;
  mag_normalize r

(* Requires a >= b. *)
let mag_sub a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let x = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if x < 0 then begin
      r.(i) <- x + base;
      borrow := 1
    end
    else begin
      r.(i) <- x;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  mag_normalize r

let mag_mul_schoolbook a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          (* ai*b.(j) < 2^62; + r + carry stays < 2^63. *)
          let x = (ai * b.(j)) + r.(i + j) + !carry in
          r.(i + j) <- x land mask;
          carry := x lsr limb_bits
        done;
        let k = ref (i + lb) in
        while !carry <> 0 do
          let x = r.(!k) + !carry in
          r.(!k) <- x land mask;
          carry := x lsr limb_bits;
          incr k
        done
      end
    done;
    mag_normalize r
  end

let karatsuba_threshold = 32

let mag_low a n = mag_normalize (Array.sub a 0 (Stdlib.min n (Array.length a)))

let mag_high a n =
  let la = Array.length a in
  if la <= n then [||] else Array.sub a n (la - n)

let mag_shift_limbs a k =
  let la = Array.length a in
  if la = 0 then [||]
  else begin
    let r = Array.make (la + k) 0 in
    Array.blit a 0 r k la;
    r
  end

let rec mag_mul a b =
  let la = Array.length a and lb = Array.length b in
  if la < karatsuba_threshold || lb < karatsuba_threshold then mag_mul_schoolbook a b
  else begin
    (* Karatsuba: a = a1*B^h + a0, b = b1*B^h + b0. *)
    let h = (Stdlib.max la lb + 1) / 2 in
    let a0 = mag_low a h and a1 = mag_high a h in
    let b0 = mag_low b h and b1 = mag_high b h in
    let z0 = mag_mul a0 b0 in
    let z2 = mag_mul a1 b1 in
    let z1 =
      (* (a0+a1)(b0+b1) - z0 - z2 *)
      let s = mag_mul (mag_add a0 a1) (mag_add b0 b1) in
      mag_sub (mag_sub s z0) z2
    in
    mag_add (mag_add z0 (mag_shift_limbs z1 h)) (mag_shift_limbs z2 (2 * h))
  end

(* Shift magnitude left by s bits, 0 <= s. *)
let mag_shift_left a s =
  if Array.length a = 0 || s = 0 then Array.copy a
  else begin
    let limb_shift = s / limb_bits and bit_shift = s mod limb_bits in
    let la = Array.length a in
    let r = Array.make (la + limb_shift + 1) 0 in
    if bit_shift = 0 then Array.blit a 0 r limb_shift la
    else begin
      let carry = ref 0 in
      for i = 0 to la - 1 do
        let x = (a.(i) lsl bit_shift) lor !carry in
        r.(i + limb_shift) <- x land mask;
        carry := x lsr limb_bits
      done;
      r.(la + limb_shift) <- !carry
    end;
    mag_normalize r
  end

let mag_shift_right a s =
  if Array.length a = 0 || s = 0 then Array.copy a
  else begin
    let limb_shift = s / limb_bits and bit_shift = s mod limb_bits in
    let la = Array.length a in
    if limb_shift >= la then [||]
    else begin
      let lr = la - limb_shift in
      let r = Array.make lr 0 in
      if bit_shift = 0 then Array.blit a limb_shift r 0 lr
      else begin
        for i = 0 to lr - 1 do
          let lo = a.(i + limb_shift) lsr bit_shift in
          let hi =
            if i + limb_shift + 1 < la then
              (a.(i + limb_shift + 1) lsl (limb_bits - bit_shift)) land mask
            else 0
          in
          r.(i) <- lo lor hi
        done
      end;
      mag_normalize r
    end
  end

(* Divide magnitude by a single limb; returns (quotient, remainder limb). *)
let mag_divmod_limb a v =
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let x = (!r lsl limb_bits) lor a.(i) in
    q.(i) <- x / v;
    r := x mod v
  done;
  (mag_normalize q, !r)

let bits_in_limb x =
  (* Number of significant bits in a limb (0 < x < 2^31). *)
  let rec go n x = if x = 0 then n else go (n + 1) (x lsr 1) in
  go 0 x

(* Knuth Algorithm D. Requires |u| >= |v|, Array.length v >= 2. *)
let mag_divmod_knuth u v =
  let n = Array.length v in
  let m = Array.length u - n in
  let s = limb_bits - bits_in_limb v.(n - 1) in
  let vn = mag_shift_left v s in
  let vn = if Array.length vn < n then Array.append vn (Array.make (n - Array.length vn) 0) else vn in
  (* un gets an extra high limb. *)
  let un_shifted = mag_shift_left u s in
  let un = Array.make (Array.length u + 1) 0 in
  Array.blit un_shifted 0 un 0 (Array.length un_shifted);
  let q = Array.make (m + 1) 0 in
  for j = m downto 0 do
    let num = (un.(j + n) lsl limb_bits) lor un.(j + n - 1) in
    let qhat = ref (num / vn.(n - 1)) in
    let rhat = ref (num mod vn.(n - 1)) in
    let adjust = ref true in
    while !adjust do
      if !qhat >= base
         || (n >= 2 && !qhat * vn.(n - 2) > (!rhat lsl limb_bits) lor un.(j + n - 2))
      then begin
        decr qhat;
        rhat := !rhat + vn.(n - 1);
        if !rhat >= base then adjust := false
      end
      else adjust := false
    done;
    (* Multiply and subtract: un[j..j+n] -= qhat * vn. *)
    let borrow = ref 0 in
    for i = 0 to n - 1 do
      let p = (!qhat * vn.(i)) + !borrow in
      let sub = un.(i + j) - (p land mask) in
      if sub < 0 then begin
        un.(i + j) <- sub + base;
        borrow := (p lsr limb_bits) + 1
      end
      else begin
        un.(i + j) <- sub;
        borrow := p lsr limb_bits
      end
    done;
    let sub = un.(j + n) - !borrow in
    if sub < 0 then begin
      (* qhat was one too large: add back. *)
      un.(j + n) <- (sub + base) land mask;
      decr qhat;
      let carry = ref 0 in
      for i = 0 to n - 1 do
        let x = un.(i + j) + vn.(i) + !carry in
        un.(i + j) <- x land mask;
        carry := x lsr limb_bits
      done;
      un.(j + n) <- (un.(j + n) + !carry) land mask
    end
    else un.(j + n) <- sub;
    q.(j) <- !qhat
  done;
  let r = mag_shift_right (mag_normalize (Array.sub un 0 n)) s in
  (mag_normalize q, r)

let mag_divmod u v =
  match Array.length v with
  | 0 -> raise Division_by_zero
  | _ when mag_compare u v < 0 -> ([||], Array.copy u)
  | 1 ->
    let q, r = mag_divmod_limb u v.(0) in
    (q, if r = 0 then [||] else [| r |])
  | _ -> mag_divmod_knuth u v

(* ------------------------------------------------------------------ *)
(* Signed layer.                                                       *)
(* ------------------------------------------------------------------ *)

let make sign mag =
  let mag = mag_normalize mag in
  if Array.length mag = 0 then zero else { sign; mag }

let of_int n =
  if n = 0 then zero
  else begin
    let sign = if n > 0 then 1 else -1 in
    (* limbs conses the most significant limb first; magnitudes are
       little-endian, so one reversal. *)
    let rec limbs acc n = if n = 0 then acc else limbs ((n land mask) :: acc) (n lsr limb_bits) in
    let mag =
      if n = min_int then
        (* |min_int| = 2^62 has no positive int: limbs [0; 0; 1] in base 2^31. *)
        [| 0; 0; 1 |]
      else Array.of_list (List.rev (limbs [] (abs n)))
    in
    make sign mag
  end

let of_int64 n =
  if Int64.compare n 0L = 0 then zero
  else begin
    let sign = if Int64.compare n 0L > 0 then 1 else -1 in
    let mag_of_u64 u =
      (* u treated as unsigned 64-bit. *)
      let l0 = Int64.to_int (Int64.logand u 0x7FFFFFFFL) in
      let l1 = Int64.to_int (Int64.logand (Int64.shift_right_logical u 31) 0x7FFFFFFFL) in
      let l2 = Int64.to_int (Int64.shift_right_logical u 62) in
      [| l0; l1; l2 |]
    in
    let u = if sign > 0 then n else Int64.neg n in
    (* Int64.neg min_int = min_int, whose logical bits are exactly 2^63. *)
    make sign (mag_of_u64 u)
  end

let one = of_int 1
let two = of_int 2
let minus_one = of_int (-1)

let sign t = t.sign
let is_zero t = t.sign = 0
let is_even t = t.sign = 0 || t.mag.(0) land 1 = 0
let is_odd t = not (is_even t)

let compare a b =
  if a.sign <> b.sign then Stdlib.compare a.sign b.sign
  else if a.sign >= 0 then mag_compare a.mag b.mag
  else mag_compare b.mag a.mag

let equal a b = compare a b = 0
let is_one t = equal t one
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let neg t = if t.sign = 0 then zero else { t with sign = -t.sign }
let abs t = if t.sign < 0 then neg t else t

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then make a.sign (mag_add a.mag b.mag)
  else begin
    let c = mag_compare a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then make a.sign (mag_sub a.mag b.mag)
    else make b.sign (mag_sub b.mag a.mag)
  end

let sub a b = add a (neg b)
let succ a = add a one
let pred a = sub a one

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else make (a.sign * b.sign) (mag_mul a.mag b.mag)

let mul_int a n = mul a (of_int n)
let sqr a = mul a a

let divmod a b =
  if b.sign = 0 then raise Division_by_zero;
  if a.sign = 0 then (zero, zero)
  else begin
    let qm, rm = mag_divmod a.mag b.mag in
    let q = make (a.sign * b.sign) qm in
    let r = make a.sign rm in
    (q, r)
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let ediv_rem a b =
  let q, r = divmod a b in
  if r.sign >= 0 then (q, r)
  else if b.sign > 0 then (pred q, add r b)
  else (succ q, sub r b)

let erem a b = snd (ediv_rem a b)

let pow x n =
  if n < 0 then invalid_arg "Zint.pow: negative exponent";
  let rec go acc base n =
    if n = 0 then acc
    else go (if n land 1 = 1 then mul acc base else acc) (sqr base) (n lsr 1)
  in
  go one x n

let shift_left t s =
  if s < 0 then invalid_arg "Zint.shift_left";
  if t.sign = 0 then zero else make t.sign (mag_shift_left t.mag s)

let shift_right t s =
  if s < 0 then invalid_arg "Zint.shift_right";
  if t.sign = 0 then zero else make t.sign (mag_shift_right t.mag s)

let numbits t =
  let l = Array.length t.mag in
  if l = 0 then 0 else ((l - 1) * limb_bits) + bits_in_limb t.mag.(l - 1)

let testbit t i =
  if i < 0 then invalid_arg "Zint.testbit";
  let limb = i / limb_bits and bit = i mod limb_bits in
  limb < Array.length t.mag && (t.mag.(limb) lsr bit) land 1 = 1

let to_int_opt t =
  if t.sign = 0 then Some 0
  else if numbits t <= 62 then begin
    let v = ref 0 in
    for i = Array.length t.mag - 1 downto 0 do
      v := (!v lsl limb_bits) lor t.mag.(i)
    done;
    Some (t.sign * !v)
  end
  else None

let to_int_exn t =
  match to_int_opt t with
  | Some n -> n
  | None -> failwith "Zint.to_int_exn: value out of native int range"

let to_int64_opt t =
  if t.sign = 0 then Some 0L
  else if numbits t <= 62 then Some (Int64.of_int (to_int_exn t))
  else if numbits t = 63 then begin
    let v = ref 0L in
    for i = Array.length t.mag - 1 downto 0 do
      v := Int64.logor (Int64.shift_left !v limb_bits) (Int64.of_int t.mag.(i))
    done;
    if t.sign > 0 then (if Int64.compare !v 0L >= 0 then Some !v else None)
    else Some (Int64.neg !v)
  end
  else if numbits t = 64 && t.sign < 0 then begin
    (* Only -2^63 representable. *)
    let m = t.mag in
    if Array.length m = 3 && m.(0) = 0 && m.(1) = 0 && m.(2) = 4 then Some Int64.min_int
    else None
  end
  else None

let to_float t =
  let f = ref 0.0 in
  for i = Array.length t.mag - 1 downto 0 do
    f := (!f *. 2147483648.0) +. float_of_int t.mag.(i)
  done;
  float_of_int t.sign *. !f

(* ------------------------------------------------------------------ *)
(* Radix-10 I/O via 10^9-sized chunks.                                 *)
(* ------------------------------------------------------------------ *)

let chunk = 1_000_000_000

let to_string t =
  if t.sign = 0 then "0"
  else begin
    let buf = Buffer.create 32 in
    let rec go mag acc =
      if Array.length mag = 0 then acc
      else begin
        let q, r = mag_divmod_limb mag chunk in
        go q (r :: acc)
      end
    in
    (match go t.mag [] with
     | [] -> assert false
     | first :: rest ->
       if t.sign < 0 then Buffer.add_char buf '-';
       Buffer.add_string buf (string_of_int first);
       List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest);
    Buffer.contents buf
  end

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Zint.of_string: empty";
  let negative = s.[0] = '-' in
  let start = if negative || s.[0] = '+' then 1 else 0 in
  if start >= len then invalid_arg "Zint.of_string: no digits";
  let acc = ref zero in
  let i = ref start in
  while !i < len do
    let stop = Stdlib.min len (!i + 9) in
    let piece = String.sub s !i (stop - !i) in
    String.iter (fun c -> if c < '0' || c > '9' then invalid_arg "Zint.of_string: bad digit") piece;
    let width = stop - !i in
    let scale = int_of_float (10.0 ** float_of_int width) in
    acc := add (mul_int !acc scale) (of_int (int_of_string piece));
    i := stop
  done;
  if negative then neg !acc else !acc

let pp ppf t = Format.pp_print_string ppf (to_string t)

(* ------------------------------------------------------------------ *)
(* Number theory.                                                      *)
(* ------------------------------------------------------------------ *)

let gcd a b =
  let rec go a b = if is_zero b then a else go b (erem a b) in
  go (abs a) (abs b)

let egcd a b =
  (* Iterative extended Euclid on (a, b); returns (g, u, v), u*a+v*b=g. *)
  let rec go r0 r1 s0 s1 t0 t1 =
    if is_zero r1 then (r0, s0, t0)
    else begin
      let q = div r0 r1 in
      go r1 (sub r0 (mul q r1)) s1 (sub s0 (mul q s1)) t1 (sub t0 (mul q t1))
    end
  in
  let g, u, v = go a b one zero zero one in
  if sign g < 0 then (neg g, neg u, neg v) else (g, u, v)

let modinv a m =
  let g, u, _ = egcd a m in
  if not (is_one g) then failwith "Zint.modinv: not invertible";
  erem u m

let powmod_generic b e m =
  let b = erem b m in
  let result = ref one and base = ref b in
  let nb = numbits e in
  for i = 0 to nb - 1 do
    if testbit e i then result := erem (mul !result !base) m;
    if i < nb - 1 then base := erem (sqr !base) m
  done;
  !result

(* ------------------------------------------------------------------ *)
(* Montgomery exponentiation (odd moduli).                             *)
(*                                                                     *)
(* Each Montgomery step replaces a full Knuth division by a fused CIOS *)
(* multiply-reduce, which is what makes Paillier usable from a pure-   *)
(* OCaml bignum layer.  R = 2^(31k) for a k-limb modulus.              *)
(* ------------------------------------------------------------------ *)

(* Inverse of an odd limb mod 2^31 by Newton iteration (x = m0 is
   already an inverse mod 8; each step doubles the valid bits). *)
let inv_limb_mod_base m0 =
  let x = ref m0 in
  for _ = 1 to 5 do
    x := !x * (2 - (m0 * !x)) land mask
  done;
  !x land mask

let mont_mul k mmag m0' a b =
  let t = Array.make (k + 2) 0 in
  let la = Array.length a and lb = Array.length b in
  for i = 0 to k - 1 do
    let ai = if i < la then a.(i) else 0 in
    (* t += ai * b *)
    let c = ref 0 in
    for j = 0 to k - 1 do
      let bj = if j < lb then b.(j) else 0 in
      let x = t.(j) + (ai * bj) + !c in
      t.(j) <- x land mask;
      c := x lsr limb_bits
    done;
    let x = t.(k) + !c in
    t.(k) <- x land mask;
    t.(k + 1) <- t.(k + 1) + (x lsr limb_bits);
    (* t += u * m with u chosen to zero the low limb, then shift. *)
    let u = t.(0) * m0' land mask in
    let x = t.(0) + (u * mmag.(0)) in
    let c = ref (x lsr limb_bits) in
    for j = 1 to k - 1 do
      let x = t.(j) + (u * mmag.(j)) + !c in
      t.(j - 1) <- x land mask;
      c := x lsr limb_bits
    done;
    let x = t.(k) + !c in
    t.(k - 1) <- x land mask;
    let x = t.(k + 1) + (x lsr limb_bits) in
    t.(k) <- x land mask;
    t.(k + 1) <- x lsr limb_bits
  done;
  (* t < 2m: one conditional subtraction. *)
  let r = Array.sub t 0 (k + 1) in
  let rn = mag_normalize r in
  if mag_compare rn mmag >= 0 then mag_sub rn mmag else rn

let powmod_mont b e m =
  let mmag = m.mag in
  let k = Array.length mmag in
  let m0' = (base - inv_limb_mod_base mmag.(0)) land mask in
  let to_mont x =
    (* x * R mod m *)
    snd (mag_divmod (mag_shift_limbs x k) mmag)
  in
  let one_mont = to_mont [| 1 |] in
  let base_mont = ref (to_mont (erem b m).mag) in
  let result = ref one_mont in
  let nb = numbits e in
  for i = 0 to nb - 1 do
    if testbit e i then result := mont_mul k mmag m0' !result !base_mont;
    if i < nb - 1 then base_mont := mont_mul k mmag m0' !base_mont !base_mont
  done;
  make 1 (mont_mul k mmag m0' !result [| 1 |])

let powmod b e m =
  if sign e < 0 then invalid_arg "Zint.powmod: negative exponent";
  if sign m <= 0 then invalid_arg "Zint.powmod: modulus <= 0";
  if is_one m then zero
  else if is_odd m && Array.length m.mag >= 2 then powmod_mont b e m
  else powmod_generic b e m

let lcm a b =
  if is_zero a || is_zero b then zero
  else abs (div (mul a b) (gcd a b))

(* ------------------------------------------------------------------ *)
(* Randomness and primality.                                           *)
(* ------------------------------------------------------------------ *)

let random_bits rng bits =
  if bits < 0 then invalid_arg "Zint.random_bits";
  if bits = 0 then zero
  else begin
    let nlimbs = (bits + limb_bits - 1) / limb_bits in
    let mag = Array.init nlimbs (fun _ -> Int64.to_int (Util.Rng.int64_below rng (Int64.of_int base))) in
    let top_bits = bits - ((nlimbs - 1) * limb_bits) in
    mag.(nlimbs - 1) <- mag.(nlimbs - 1) land ((1 lsl top_bits) - 1);
    make 1 mag
  end

let random_below rng bound =
  if sign bound <= 0 then invalid_arg "Zint.random_below: bound <= 0";
  let bits = numbits bound in
  let rec loop () =
    let candidate = random_bits rng bits in
    if compare candidate bound < 0 then candidate else loop ()
  in
  loop ()

let small_primes =
  [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47; 53; 59; 61; 67;
    71; 73; 79; 83; 89; 97; 101; 103; 107; 109; 113; 127; 131; 137; 139; 149;
    151; 157; 163; 167; 173; 179; 181; 191; 193; 197; 199; 211; 223; 227; 229 ]

let is_probable_prime ?(rounds = 24) rng n =
  let n = abs n in
  if compare n two < 0 then false
  else if List.exists (fun p -> equal n (of_int p)) small_primes then true
  else if List.exists (fun p -> is_zero (erem n (of_int p))) small_primes then false
  else begin
    (* n - 1 = 2^r * d with d odd. *)
    let n1 = pred n in
    let rec split r d = if is_even d then split (r + 1) (shift_right d 1) else (r, d) in
    let r, d = split 0 n1 in
    let witness a =
      let x = ref (powmod a d n) in
      if is_one !x || equal !x n1 then true
      else begin
        let ok = ref false in
        let i = ref 1 in
        while (not !ok) && !i < r do
          x := erem (sqr !x) n;
          if equal !x n1 then ok := true;
          incr i
        done;
        !ok
      end
    in
    let rec trial k =
      if k = 0 then true
      else begin
        let a = add two (random_below rng (sub n (of_int 4))) in
        if witness a then trial (k - 1) else false
      end
    in
    trial rounds
  end

let random_prime rng ~bits =
  if bits < 2 then invalid_arg "Zint.random_prime: bits < 2";
  let rec loop () =
    let candidate = random_bits rng bits in
    (* Force top bit (exact width) and bottom bit (odd). *)
    let candidate = add candidate (shift_left one (bits - 1)) in
    let candidate = if is_even candidate then succ candidate else candidate in
    let candidate =
      if numbits candidate > bits then sub candidate two else candidate
    in
    if numbits candidate = bits && is_probable_prime rng candidate then candidate
    else loop ()
  in
  if bits = 2 then (if Util.Rng.bool rng then of_int 2 else of_int 3)
  else loop ()

let next_prime rng n =
  let start = if compare n two < 0 then two else succ n in
  let start = if is_even start && not (equal start two) then succ start else start in
  let rec go c = if is_probable_prime rng c then c else go (add c two) in
  if equal start two then two else go start
