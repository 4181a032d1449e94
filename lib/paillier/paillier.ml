module Z = Zint
module Counters = Util.Counters

type public_key = { n : Z.t; n2 : Z.t; bits : int }
type secret_key = { pk : public_key; lambda : Z.t; mu : Z.t }

(* Paillier has no modulus chain: its ops fill the ledger's level-less
   row 0. *)
let record c op = match c with None -> () | Some c -> Counters.record_op c op ~level:0

let keygen ?(modulus_bits = 512) rng =
  if modulus_bits < 16 then invalid_arg "Paillier.keygen: modulus too small";
  let half = modulus_bits / 2 in
  let rec pick () =
    let p = Z.random_prime rng ~bits:half in
    let q = Z.random_prime rng ~bits:(modulus_bits - half) in
    if Z.equal p q then pick ()
    else begin
      let n = Z.mul p q in
      (* g = n+1 requires gcd(n, (p-1)(q-1)) = 1, true for distinct
         primes of equal size. *)
      (p, q, n)
    end
  in
  let p, q, n = pick () in
  let n2 = Z.mul n n in
  let lambda = Z.lcm (Z.pred p) (Z.pred q) in
  (* mu = (L(g^lambda mod n^2))^{-1} mod n, with g = n+1:
     (1+n)^lambda = 1 + lambda*n mod n^2, so L(...) = lambda mod n. *)
  let mu = Z.modinv (Z.erem lambda n) n in
  let pk = { n; n2; bits = modulus_bits } in
  ({ pk; lambda; mu }, pk)

let public_of_secret sk = sk.pk
let modulus pk = pk.n
let modulus_bits pk = pk.bits

type ct = Z.t

let encrypt ?counters rng pk m =
  record counters Counters.Op_encrypt;
  if Z.sign m < 0 || Z.compare m pk.n >= 0 then
    invalid_arg "Paillier.encrypt: message out of range";
  (* (1+n)^m = 1 + m*n (mod n^2), avoiding one full exponentiation. *)
  let gm = Z.erem (Z.add Z.one (Z.mul m pk.n)) pk.n2 in
  let rec random_unit () =
    let r = Z.random_below rng pk.n in
    if Z.is_zero r || not (Z.is_one (Z.gcd r pk.n)) then random_unit () else r
  in
  let r = random_unit () in
  Z.erem (Z.mul gm (Z.powmod r pk.n pk.n2)) pk.n2

let encrypt_int ?counters rng pk m = encrypt ?counters rng pk (Z.of_int m)

let decrypt ?counters sk c =
  record counters Counters.Op_decrypt;
  let pk = sk.pk in
  let x = Z.powmod c sk.lambda pk.n2 in
  let l = Z.div (Z.pred x) pk.n in
  Z.erem (Z.mul l sk.mu) pk.n

let decrypt_int ?counters sk c = Z.to_int_exn (decrypt ?counters sk c)

let add ?counters pk c1 c2 =
  record counters Counters.Op_ct_add;
  Z.erem (Z.mul c1 c2) pk.n2

let mul_plain ?counters pk c k =
  record counters Counters.Op_mul_plain;
  Z.powmod c (Z.erem k pk.n) pk.n2

let sub ?counters pk c1 c2 =
  record counters Counters.Op_ct_add;
  (* c1 * c2^(n-1) = E(m1 - m2). *)
  Z.erem (Z.mul c1 (Z.powmod c2 (Z.pred pk.n) pk.n2)) pk.n2

let add_plain ?counters pk c m =
  record counters Counters.Op_ct_add;
  let gm = Z.erem (Z.add Z.one (Z.mul (Z.erem m pk.n) pk.n)) pk.n2 in
  Z.erem (Z.mul c gm) pk.n2

let rerandomize ?counters rng pk c =
  record counters Counters.Op_ct_add;
  let rec random_unit () =
    let r = Z.random_below rng pk.n in
    if Z.is_zero r || not (Z.is_one (Z.gcd r pk.n)) then random_unit () else r
  in
  let r = random_unit () in
  Z.erem (Z.mul c (Z.powmod r pk.n pk.n2)) pk.n2

let byte_size pk = pk.bits / 4
