(** The Paillier cryptosystem — the additively homomorphic encryption
    underlying the Yousef et al. (ICDE 2014) baseline.

    Textbook construction with the standard [g = n + 1] simplification:
    [Enc(m) = (1+n)^m · r^n mod n²], [Dec(c) = L(c^λ mod n²) · μ mod n]
    with [L(x) = (x−1)/n], [λ = lcm(p−1, q−1)].

    Homomorphic API: addition of plaintexts by ciphertext
    multiplication, plaintext subtraction, multiplication by a plaintext
    scalar by exponentiation, and re-randomisation.  Message space is
    [Z_n]; the baseline protocols keep all values far below [n/4] so
    masked additions never wrap.

    With [?counters], every op records one cell in the ledger's
    level-less row 0 ({!Util.Counters}): [Op_encrypt], [Op_decrypt],
    [Op_ct_add] (add, sub, add_plain, rerandomize) or [Op_mul_plain].

    Key sizes: benchmark presets default to small moduli (pure-OCaml
    bignum exponentiation is the bottleneck of the baseline, exactly as
    Paillier is the bottleneck of the original system); pass
    [~modulus_bits:2048] for production-shaped keys. *)

type public_key
type secret_key

val keygen : ?modulus_bits:int -> Util.Rng.t -> secret_key * public_key
(** Default [modulus_bits] 512. *)

val public_of_secret : secret_key -> public_key
val modulus : public_key -> Zint.t
val modulus_bits : public_key -> int

type ct = Zint.t
(** Ciphertexts are elements of Z_{n²} (kept abstract-by-convention). *)

val encrypt : ?counters:Util.Counters.t -> Util.Rng.t -> public_key -> Zint.t -> ct
(** @raise Invalid_argument if the message is outside [\[0, n)]. *)

val encrypt_int : ?counters:Util.Counters.t -> Util.Rng.t -> public_key -> int -> ct

val decrypt : ?counters:Util.Counters.t -> secret_key -> ct -> Zint.t
val decrypt_int : ?counters:Util.Counters.t -> secret_key -> ct -> int

val add : ?counters:Util.Counters.t -> public_key -> ct -> ct -> ct
(** [Dec(add c1 c2) = m1 + m2 mod n]. *)

val sub : ?counters:Util.Counters.t -> public_key -> ct -> ct -> ct
val add_plain : ?counters:Util.Counters.t -> public_key -> ct -> Zint.t -> ct
val mul_plain : ?counters:Util.Counters.t -> public_key -> ct -> Zint.t -> ct
(** [Dec(mul_plain c k) = k·m mod n]. *)

val rerandomize : ?counters:Util.Counters.t -> Util.Rng.t -> public_key -> ct -> ct

val byte_size : public_key -> int
(** Serialised ciphertext size (2·modulus bits, in bytes). *)
