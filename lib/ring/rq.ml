
module Z = Zint

type domain = Coeff | Eval

(* The constants of one BGV modulus-switch step from level k to k - 1:
   divide out [drop] = p_{k-1} while preserving residues mod t. *)
type switch_step = {
  drop : int;
  t_inv_drop : Shoup.t;     (* t^-1 mod drop *)
  drop_inv : Shoup.t array; (* drop^-1 mod p_i, for each prime i < k - 1 *)
}

(* The constants that fold a whole chain down to level [target] into
   its kept primes i < target, indexed by the last prime l >= target
   the chain drops: with P = p_target⋯p_l,
   fold_t.(l - target).(i) = t·P^-1 mod p_i and
   fold_q.(l - target).(i) = P^-1 mod p_i. *)
type switch_fold = {
  fold_t : Shoup.t array array;
  fold_q : Shoup.t array array;
}

(* The constants of the exact decode of [x]_Q mod t: Garner's
   mixed-radix digits, then a sum of digit × radix mod t.  None depends
   on the prefix length, so one table serves every level. *)
type garner = {
  t_int : int;                   (* t, below 2^61 *)
  prefix : Shoup.t array array;  (* prefix.(i).(j) = p_0⋯p_{j-1} mod p_i, for j < i *)
  prefix_inv : Shoup.t array;    (* (p_0⋯p_{i-1})^-1 mod p_i *)
  radix : int array;             (* radix.(i) = p_0⋯p_{i-1} mod t; radix.(k) = Q_k mod t *)
  radix_q : int array;           (* floor (radix.(i) · 2^31 / t) *)
  half : int array;              (* (p_i - 1) / 2 *)
}

(* A monomial x^s in one prime's evaluation domain, as a Shoup operand
   per evaluation point: w.(j) is its value at point j, hi.(j) and
   lo.(j) its companion's 31-bit split. *)
type monomial = { w : int array; hi : int array; lo : int array }

type context = {
  n : int;
  moduli : int array;
  tables : Ntt.table array;
  bases : Crt.basis array; (* bases.(i): basis of the first i+1 primes *)
  steps : switch_step array; (* steps.(k-2): the switch from level k *)
  folds : switch_fold array; (* folds.(target-1): chains ending at level target *)
  t_mod : Shoup.t array; (* t mod p_i, for every chain prime *)
  garner : garner;
  x_eval : monomial array; (* x mod p_i, for every chain prime *)
}

(* x^s's transform mod every prime of [m_ctx]'s chain. *)
type power = { m_ctx : context; exponent : int; rows : monomial array }

type t = {
  ctx : context;
  domain : domain;
  comps : int array array; (* comps.(i): residues mod moduli.(i), length n *)
}

(* Precompute, once per context: the inverses come from Mod64's
   extended Euclid, and each Shoup companion costs two divisions inside
   Shoup.of_int. *)
let switch_steps ~t moduli =
  let residue p x = Int64.to_int (Mod64.reduce (Int64.of_int p) x) in
  let inverse p x = Int64.to_int (Mod64.inv (Int64.of_int p) (Int64.of_int x)) in
  Array.init
    (Array.length moduli - 1)
    (fun s ->
      let kept = s + 1 in
      let drop = moduli.(kept) in
      let t_drop = residue drop t in
      if t_drop = 0 then invalid_arg "Rq.context: t is not invertible mod a chain prime";
      { drop;
        t_inv_drop = Shoup.of_int ~p:drop (inverse drop t_drop);
        drop_inv =
          Array.init kept (fun i ->
              let p = moduli.(i) in
              Shoup.of_int ~p (inverse p (residue p (Int64.of_int drop)))) })

(* The same way, through Mod64's exact products: P^-1 mod p_i as the
   running product over l, then t times it. *)
let switch_folds ~t moduli =
  let chain = Array.length moduli in
  Array.init
    (chain - 1)
    (fun s ->
      let target = s + 1 in
      (* inv.(r).(i) = (p_target⋯p_{target+r})^-1 mod p_i *)
      let inv = Array.make_matrix (chain - target) target 0L in
      for i = 0 to target - 1 do
        let p64 = Int64.of_int moduli.(i) in
        let acc = ref 1L in
        for r = 0 to chain - target - 1 do
          let q = Mod64.reduce p64 (Int64.of_int moduli.(target + r)) in
          acc := Mod64.mul p64 !acc (Mod64.inv p64 q);
          inv.(r).(i) <- !acc
        done
      done;
      let shoup f =
        Array.map
          (Array.mapi (fun i x ->
               let p64 = Int64.of_int moduli.(i) in
               Shoup.of_int ~p:moduli.(i) (Int64.to_int (f p64 x))))
          inv
      in
      { fold_t = shoup (fun p64 x -> Mod64.mul p64 (Mod64.reduce p64 t) x);
        fold_q = shoup (fun _ x -> x) })

(* floor (c · 2^31 / t) for 0 <= c < t < 2^61: 31 steps of binary long
   division (2r < 2^62 never overflows), so no hardware divide.  The
   companion of a constant c for Shoup products mod t by 31-bit
   multipliers v: with q = (companion · v) lsr 31, c·v - q·t lies in
   [0, 2t). *)
let companion_t ~t c =
  let q = ref 0 and r = ref c in
  for _ = 1 to 31 do
    let r2 = 2 * !r in
    let ge = lnot ((r2 - t) asr 62) land 1 in
    q := (2 * !q) lor ge;
    r := r2 - (t land -ge)
  done;
  !q

(* Precompute, once per context, through Mod64's exact products and
   extended Euclid. *)
let garner_table ~t moduli =
  let k = Array.length moduli in
  let prefix_mod m i =
    (* p_0⋯p_{i-1} mod m *)
    let m64 = Int64.of_int m in
    let acc = ref 1L in
    for j = 0 to i - 1 do
      acc := Mod64.mul m64 !acc (Mod64.reduce m64 (Int64.of_int moduli.(j)))
    done;
    !acc
  in
  let radix = Array.init (k + 1) (fun i -> Int64.to_int (prefix_mod t i)) in
  { t_int = t;
    prefix =
      Array.init k (fun i ->
          let p = moduli.(i) in
          Array.init i (fun j -> Shoup.of_int ~p (Int64.to_int (prefix_mod p j))));
    prefix_inv =
      Array.init k (fun i ->
          let p = moduli.(i) in
          let p64 = Int64.of_int p in
          Shoup.of_int ~p (Int64.to_int (Mod64.inv p64 (prefix_mod p i))));
    radix;
    radix_q = Array.map (companion_t ~t) radix;
    half = Array.map (fun p -> (p - 1) lsr 1) moduli }

(* x^s's forward transform per prime, with each point's Shoup
   companion.  x^n = -1, so a power wrapping past n carries a sign. *)
let monomial_x table ~n ~power =
  let p = Ntt.prime table in
  let w = Array.make n 0 in
  let e = power land ((2 * n) - 1) in
  if e < n then w.(e) <- 1 else w.(e - n) <- p - 1;
  Ntt.forward table w;
  let sh = Array.map (fun v -> Shoup.of_int ~p v) w in
  { w; hi = Array.map (fun s -> s.Shoup.hi) sh; lo = Array.map (fun s -> s.Shoup.lo) sh }

let context ~n ~moduli ~t =
  if Array.length moduli = 0 then invalid_arg "Rq.context: empty modulus chain";
  if Int64.compare t 1L <= 0 || Int64.compare t (Int64.shift_left 1L 61) >= 0 then
    invalid_arg "Rq.context: t must lie in (1, 2^61)";
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun p ->
      if Hashtbl.mem seen p then invalid_arg "Rq.context: duplicate modulus";
      Hashtbl.add seen p ())
    moduli;
  let tables = Array.map (fun p -> Ntt.make_table ~p ~n) moduli in
  (* Every chain-prefix basis is built eagerly so the context is
     immutable after creation — values can then be shared freely across
     domains by the parallel protocol phases. *)
  let bases =
    Array.init (Array.length moduli) (fun i -> Crt.make (Array.sub moduli 0 (i + 1)))
  in
  let ti = Int64.to_int t in
  { n; moduli = Array.copy moduli; tables; bases; steps = switch_steps ~t moduli;
    folds = switch_folds ~t moduli;
    t_mod =
      Array.map (fun p -> Shoup.of_int ~p (Int64.to_int (Mod64.reduce (Int64.of_int p) t))) moduli;
    garner = garner_table ~t:ti moduli;
    x_eval = Array.map (monomial_x ~n ~power:1) tables }

(* x's transform is the context's own; any other power is built here,
   one forward transform per prime, and belongs to the caller. *)
let x_power ctx s =
  if s < 1 then invalid_arg "Rq.x_power: exponent below 1";
  let rows =
    if s = 1 then ctx.x_eval else Array.map (monomial_x ~n:ctx.n ~power:s) ctx.tables
  in
  { m_ctx = ctx; exponent = s; rows }

let exponent m = m.exponent

let degree c = c.n
let moduli c = Array.copy c.moduli
let chain_length c = Array.length c.moduli

let basis c ~nprimes =
  if nprimes < 1 || nprimes > Array.length c.moduli then invalid_arg "Rq.basis: bad nprimes";
  c.bases.(nprimes - 1)

let modulus c ~nprimes = Crt.modulus (basis c ~nprimes)

let zero ctx ~nprimes domain =
  if nprimes < 1 || nprimes > Array.length ctx.moduli then invalid_arg "Rq.zero: bad nprimes";
  { ctx; domain; comps = Array.init nprimes (fun _ -> Array.make ctx.n 0) }

let nprimes t = Array.length t.comps
let domain t = t.domain
let ctx t = t.ctx
let needs_transform t d = t.domain <> d

let to_eval t =
  match t.domain with
  | Eval -> t
  | Coeff ->
    let comps =
      Array.mapi
        (fun i comp ->
          let c = Array.copy comp in
          Ntt.forward t.ctx.tables.(i) c;
          c)
        t.comps
    in
    { t with domain = Eval; comps }

let to_coeff t =
  match t.domain with
  | Coeff -> t
  | Eval ->
    let comps =
      Array.mapi
        (fun i comp ->
          let c = Array.copy comp in
          Ntt.inverse t.ctx.tables.(i) c;
          c)
        t.comps
    in
    { t with domain = Coeff; comps }

let to_eval_into t =
  match t.domain with
  | Eval -> t
  | Coeff ->
    Array.iteri (fun i c -> Ntt.forward t.ctx.tables.(i) c) t.comps;
    { t with domain = Eval }

let to_coeff_into t =
  match t.domain with
  | Coeff -> t
  | Eval ->
    Array.iteri (fun i c -> Ntt.inverse t.ctx.tables.(i) c) t.comps;
    { t with domain = Coeff }

(* Small signed coefficients into [0, p).  When the caller's public
   bound is below p, a branchless sign fold suffices: c + p for c < 0,
   c otherwise.  The choice depends on the bound, never on a
   coefficient; the mod path keeps narrow test chains exact. *)
let small_residues ?bound p src dst =
  match bound with
  | Some b when b < p ->
    for j = 0 to Array.length src - 1 do
      let c = Array.unsafe_get src j in
      Array.unsafe_set dst j (c + (p land (c asr 62)))
    done
  | Some _ | None ->
    for j = 0 to Array.length src - 1 do
      let r = (src.(j) mod p) [@sknn.allow "no-division" (* bound not below p *)] in
      dst.(j) <- r + (p land (r asr 62))
    done

let of_small_coeffs ?bound ctx ~nprimes domain coeffs =
  if Array.length coeffs <> ctx.n then invalid_arg "Rq.of_small_coeffs: wrong length";
  let embed p =
    let out = Array.make ctx.n 0 in
    small_residues ?bound p coeffs out;
    out
  in
  let t = { ctx; domain = Coeff; comps = Array.init nprimes (fun i -> embed ctx.moduli.(i)) } in
  match domain with Coeff -> t | Eval -> to_eval_into t

let of_int64_coeffs ctx ~nprimes domain coeffs =
  if Array.length coeffs <> ctx.n then invalid_arg "Rq.of_int64_coeffs: wrong length";
  let embed p =
    let p64 = Int64.of_int p in
    Array.map (fun c -> Int64.to_int (Mod64.reduce p64 c)) coeffs
  in
  let t = { ctx; domain = Coeff; comps = Array.init nprimes (fun i -> embed ctx.moduli.(i)) } in
  match domain with Coeff -> t | Eval -> to_eval_into t

let of_zint_coeffs ctx ~nprimes domain coeffs =
  if Array.length coeffs <> ctx.n then invalid_arg "Rq.of_zint_coeffs: wrong length";
  let embed p =
    let zp = Z.of_int p in
    Array.map (fun c -> Z.to_int_exn (Z.erem c zp)) coeffs
  in
  let t = { ctx; domain = Coeff; comps = Array.init nprimes (fun i -> embed ctx.moduli.(i)) } in
  match domain with Coeff -> t | Eval -> to_eval_into t

let to_zint_coeffs t =
  let t = to_coeff t in
  let b = basis t.ctx ~nprimes:(nprimes t) in
  Array.init t.ctx.n (fun j ->
      let residues = Array.init (nprimes t) (fun i -> t.comps.(i).(j)) in
      Crt.lift_centered b residues)

let constant ctx ~nprimes domain v =
  let coeffs = Array.make ctx.n 0L in
  coeffs.(0) <- v;
  of_int64_coeffs ctx ~nprimes domain coeffs

let check_compat a b op =
  if a.ctx != b.ctx then invalid_arg (op ^ ": different contexts");
  if Array.length a.comps <> Array.length b.comps then invalid_arg (op ^ ": level mismatch")

(* The loops below index residue arrays only within [0, n): every
   component of every value over a context has length n (zero, the
   embeddings and of_components guarantee it) and check_compat pins
   both operands to one context and level.  So they use unsafe
   accessors and write each modular correction inline, with no closure
   and no call into another module per coefficient: the dev profile
   compiles with -opaque, under which no [@inline] crosses a module
   boundary.  Corrections are branchless: for 0 <= x < 2p,
   [x - (p land ((p - 1 - x) asr 62))] is x mod p. *)

(* Both operands in one domain: a mismatched operand moves to Eval. *)
let same_domain op a b =
  check_compat a b op;
  match a.domain, b.domain with
  | Coeff, Coeff | Eval, Eval -> (a, b)
  | Coeff, Eval -> (to_eval a, b)
  | Eval, Coeff -> (a, to_eval b)

let add a b =
  let a, b = same_domain "Rq.add" a b in
  let n = a.ctx.n in
  let comps =
    Array.mapi
      (fun i ca ->
        let p = a.ctx.moduli.(i) and cb = b.comps.(i) in
        let out = Array.make n 0 in
        for j = 0 to n - 1 do
          let s = Array.unsafe_get ca j + Array.unsafe_get cb j in
          Array.unsafe_set out j (s - (p land ((p - 1 - s) asr 62)))
        done;
        out)
      a.comps
  in
  { a with comps }

let sub a b =
  let a, b = same_domain "Rq.sub" a b in
  let n = a.ctx.n in
  let comps =
    Array.mapi
      (fun i ca ->
        let p = a.ctx.moduli.(i) and cb = b.comps.(i) in
        let out = Array.make n 0 in
        for j = 0 to n - 1 do
          let d = Array.unsafe_get ca j - Array.unsafe_get cb j in
          Array.unsafe_set out j (d + (p land (d asr 62)))
        done;
        out)
      a.comps
  in
  { a with comps }

let neg a =
  let n = a.ctx.n in
  let comps =
    Array.mapi
      (fun i ca ->
        let p = a.ctx.moduli.(i) in
        let out = Array.make n 0 in
        for j = 0 to n - 1 do
          (* p - 0 = p folds back to 0 *)
          let r = p - Array.unsafe_get ca j in
          Array.unsafe_set out j (r - (p land ((p - 1 - r) asr 62)))
        done;
        out)
      a.comps
  in
  { a with comps }

(* Every residue times a fixed per-prime operand, Shoup's quotient
   estimate written out (see shoup.ml): valid for any p < 2^31. *)
let scale_comps a ~residue =
  let n = a.ctx.n in
  let comps =
    Array.mapi
      (fun i ca ->
        let p = a.ctx.moduli.(i) in
        let sh = Shoup.of_int ~p (residue p) in
        let w = sh.Shoup.w and hi = sh.Shoup.hi and lo = sh.Shoup.lo in
        let out = Array.make n 0 in
        for j = 0 to n - 1 do
          let x = Array.unsafe_get ca j in
          let q = ((hi * x) + ((lo * x) lsr 31)) lsr 31 in
          let r = (w * x) - (q * p) in
          Array.unsafe_set out j (r - (p land ((p - 1 - r) asr 62)))
        done;
        out)
      a.comps
  in
  { a with comps }

let add_constant a v =
  let n = a.ctx.n in
  let comps =
    Array.mapi
      (fun i ca ->
        let p = a.ctx.moduli.(i) in
        let c = Int64.to_int (Mod64.reduce (Int64.of_int p) v) in
        let out = Array.copy ca in
        (* A constant polynomial evaluates to itself at every point. *)
        let last = match a.domain with Eval -> n - 1 | Coeff -> 0 in
        for j = 0 to last do
          let s = Array.unsafe_get out j + c in
          Array.unsafe_set out j (s - (p land ((p - 1 - s) asr 62)))
        done;
        out)
      a.comps
  in
  { a with comps }

(* Borrow an Eval-domain view of one residue component: the live array
   when already Eval, an arena-backed forward transform otherwise.  The
   continuation must not let the borrowed array escape. *)
let with_eval_comp t i f =
  match t.domain with
  | Eval -> f t.comps.(i)
  | Coeff ->
    let n = t.ctx.n in
    Util.Arena.with_array n (fun s ->
        Array.blit t.comps.(i) 0 s 0 n;
        Ntt.forward t.ctx.tables.(i) s;
        f s)

let mul a b =
  check_compat a b "Rq.mul";
  let comps =
    Array.init (Array.length a.comps) (fun i ->
        let dst = Array.make a.ctx.n 0 in
        with_eval_comp a i (fun ea ->
            with_eval_comp b i (fun eb -> Ntt.pointwise_mul a.ctx.tables.(i) dst ea eb));
        dst)
  in
  { ctx = a.ctx; domain = Eval; comps }

let mul_scalar a s =
  scale_comps a ~residue:(fun p -> Int64.to_int (Mod64.reduce (Int64.of_int p) s))

let mul_add_into acc a b =
  check_compat acc a "Rq.mul_add_into";
  check_compat a b "Rq.mul_add_into";
  if acc.domain <> Eval then invalid_arg "Rq.mul_add_into: accumulator must be Eval";
  for i = 0 to Array.length acc.comps - 1 do
    with_eval_comp a i (fun ea ->
        with_eval_comp b i (fun eb ->
            Ntt.pointwise_mul_acc acc.ctx.tables.(i) acc.comps.(i) ea eb))
  done

(* --- Destructive variants: the argument written to must be uniquely
   owned by the caller (see the .mli); they exist so the hot loops can
   run without allocating intermediates. --- *)

let add_into acc b =
  check_compat acc b "Rq.add_into";
  if acc.domain <> b.domain then invalid_arg "Rq.add_into: domain mismatch";
  for i = 0 to Array.length acc.comps - 1 do
    let p = acc.ctx.moduli.(i) in
    let cacc = acc.comps.(i) and cb = b.comps.(i) in
    for j = 0 to acc.ctx.n - 1 do
      let s = Array.unsafe_get cacc j + Array.unsafe_get cb j in
      Array.unsafe_set cacc j (s - (p land ((p - 1 - s) asr 62)))
    done
  done

let sub_into acc b =
  check_compat acc b "Rq.sub_into";
  if acc.domain <> b.domain then invalid_arg "Rq.sub_into: domain mismatch";
  for i = 0 to Array.length acc.comps - 1 do
    let p = acc.ctx.moduli.(i) in
    let cacc = acc.comps.(i) and cb = b.comps.(i) in
    for j = 0 to acc.ctx.n - 1 do
      let d = Array.unsafe_get cacc j - Array.unsafe_get cb j in
      Array.unsafe_set cacc j (d + (p land (d asr 62)))
    done
  done

let mul_into dst a b =
  check_compat dst a "Rq.mul_into";
  check_compat a b "Rq.mul_into";
  if dst.domain <> Eval then invalid_arg "Rq.mul_into: destination must be Eval";
  for i = 0 to Array.length dst.comps - 1 do
    with_eval_comp a i (fun ea ->
        with_eval_comp b i (fun eb -> Ntt.pointwise_mul dst.ctx.tables.(i) dst.comps.(i) ea eb))
  done

(* Σₜ aₜ ⊙ bₜ over Eval operands, added one term at a time, e.g.
   ciphertext components against plaintexts embedded one by one.  Each
   product is Barrett-reduced only to [0, 3p) and added unreduced into
   the prime's row, so after m terms the row stays below 3·m·p, and
   while 3·m <= 2^(bits p) that is below 2^(2·bits p), where one
   Barrett step plus two corrections reduce it exactly (as in
   sum_sq_diff).  A row about to pass that bound is reduced in place
   first; primes off Barrett's fast path reduce every term with [mod]. *)
type sum = { s_ctx : context; s_rows : int array array; s_terms : int array }

let sum_create ctx ~nprimes =
  if nprimes < 1 || nprimes > Array.length ctx.moduli then invalid_arg "Rq.sum_create: bad nprimes";
  { s_ctx = ctx; s_rows = Array.init nprimes (fun _ -> Array.make ctx.n 0);
    s_terms = Array.make nprimes 0 }

let reduce_row br row =
  let p = br.Barrett.p and mu = br.Barrett.mu in
  let sh1 = br.Barrett.s1 and sh2 = br.Barrett.s2 in
  for j = 0 to Array.length row - 1 do
    let v = Array.unsafe_get row j in
    let r = v - ((((v lsr sh1) * mu) lsr sh2) * p) in
    let r = r - (p land ((p - 1 - r) asr 62)) in
    Array.unsafe_set row j (r - (p land ((p - 1 - r) asr 62)))
  done

let sum_mul_add s a b =
  if a.ctx != s.s_ctx then invalid_arg "Rq.sum_mul_add: different contexts";
  check_compat a b "Rq.sum_mul_add";
  if Array.length a.comps <> Array.length s.s_rows then invalid_arg "Rq.sum_mul_add: level mismatch";
  if a.domain <> Eval || b.domain <> Eval then invalid_arg "Rq.sum_mul_add: operands must be Eval";
  let n = s.s_ctx.n in
  for i = 0 to Array.length s.s_rows - 1 do
    let br = Ntt.barrett s.s_ctx.tables.(i) in
    let p = br.Barrett.p in
    let row = s.s_rows.(i) and ra = a.comps.(i) and rb = b.comps.(i) in
    if br.Barrett.fast then begin
      if 3 * (s.s_terms.(i) + 1) > 1 lsl (br.Barrett.s1 + 1) then begin
        reduce_row br row;
        s.s_terms.(i) <- 1
      end;
      let mu = br.Barrett.mu and sh1 = br.Barrett.s1 and sh2 = br.Barrett.s2 in
      for j = 0 to n - 1 do
        let v = Array.unsafe_get ra j * Array.unsafe_get rb j in
        Array.unsafe_set row j (Array.unsafe_get row j + v - ((((v lsr sh1) * mu) lsr sh2) * p))
      done
    end
    else
      (for j = 0 to n - 1 do
         row.(j) <- (row.(j) + (ra.(j) * rb.(j) mod p)) mod p
       done)
      [@sknn.allow "no-division" (* generic fallback: p >= 2^30 *)];
    s.s_terms.(i) <- s.s_terms.(i) + 1
  done

let sum_value s =
  let comps =
    Array.mapi
      (fun i row ->
        let row = Array.copy row in
        let br = Ntt.barrett s.s_ctx.tables.(i) in
        if br.Barrett.fast then reduce_row br row;
        row)
      s.s_rows
  in
  { ctx = s.s_ctx; domain = Eval; comps }

(* Two terms of Σ (a - b)² added into one prime's three sum rows
   o0 += d0², o1 += d0·d1, o2 += d1², with (d0, d1) = (x0 - y0, x1 - y1)
   and (e0, e1) = (u0 - v0, u1 - v1): each product Barrett-reduced only
   to [0, 3p) and added unreduced. *)
let add_sq_diff2 br o0 o1 o2 x0 x1 y0 y1 u0 u1 v0 v1 =
  let p = br.Barrett.p and mu = br.Barrett.mu in
  let sh1 = br.Barrett.s1 and sh2 = br.Barrett.s2 in
  for j = 0 to Array.length o0 - 1 do
    let d0 = Array.unsafe_get x0 j - Array.unsafe_get y0 j in
    let d0 = d0 + (p land (d0 asr 62)) in
    let d1 = Array.unsafe_get x1 j - Array.unsafe_get y1 j in
    let d1 = d1 + (p land (d1 asr 62)) in
    let e0 = Array.unsafe_get u0 j - Array.unsafe_get v0 j in
    let e0 = e0 + (p land (e0 asr 62)) in
    let e1 = Array.unsafe_get u1 j - Array.unsafe_get v1 j in
    let e1 = e1 + (p land (e1 asr 62)) in
    let v = d0 * d0 and w = e0 * e0 in
    Array.unsafe_set o0 j
      (Array.unsafe_get o0 j + v - ((((v lsr sh1) * mu) lsr sh2) * p) + w
       - ((((w lsr sh1) * mu) lsr sh2) * p));
    let v = d0 * d1 and w = e0 * e1 in
    Array.unsafe_set o1 j
      (Array.unsafe_get o1 j + v - ((((v lsr sh1) * mu) lsr sh2) * p) + w
       - ((((w lsr sh1) * mu) lsr sh2) * p));
    let v = d1 * d1 and w = e1 * e1 in
    Array.unsafe_set o2 j
      (Array.unsafe_get o2 j + v - ((((v lsr sh1) * mu) lsr sh2) * p) + w
       - ((((w lsr sh1) * mu) lsr sh2) * p))
  done

(* Σⱼ (aⱼ - bⱼ)² for degree-1 operands aⱼ = (a0, a1), bⱼ = (b0, b1):
   with d0 = a0 - b0 and d1 = a1 - b1, the three tensor components
   Σ d0², 2·Σ d0·d1 and Σ d1².  Per prime, the three sums accumulate in
   the output rows, which stay in L1, and the terms stream through
   them two at a time: each residue row is read once, in order.  A
   coefficient-outer loop with the sums in registers instead revisits
   every term's row at each coefficient; over a database streamed once
   per query it ran 1.6–2× slower (DESIGN §3a.11).  Each product is
   Barrett-reduced only to [0, 3p) and summed unreduced; the sums stay
   below 3·m·p <= 2^(2b) for b = bits p, where one Barrett step plus
   two corrections is exact, so each row is reduced once, after the
   last term. *)
let sum_sq_diff a b =
  let m = Array.length a in
  if m = 0 || Array.length b <> m then invalid_arg "Rq.sum_sq_diff: empty or mismatched inputs";
  let x = a.(0).(0) in
  let operand v =
    if Array.length v <> 2 then invalid_arg "Rq.sum_sq_diff: operands must have 2 components";
    Array.iter
      (fun c ->
        check_compat x c "Rq.sum_sq_diff";
        if c.domain <> Eval then invalid_arg "Rq.sum_sq_diff: operands must be Eval")
      v
  in
  Array.iter operand a;
  Array.iter operand b;
  let ctx = x.ctx and n = x.ctx.n and k = Array.length x.comps in
  let out () = Array.init k (fun _ -> Array.make n 0) in
  let s0 = out () and s1 = out () and s2 = out () in
  for i = 0 to k - 1 do
    let br = Ntt.barrett ctx.tables.(i) in
    let p = br.Barrett.p in
    let o0 = s0.(i) and o1 = s1.(i) and o2 = s2.(i) in
    let row v t c = v.(t).(c).comps.(i) in
    if br.Barrett.fast && 3 * m <= 1 lsl (br.Barrett.s1 + 1) then begin
      (* An odd count pairs its first term with a zero difference: the
         term's own rows against themselves. *)
      let first = m land 1 in
      if first = 1 then begin
        let x0 = row a 0 0 and x1 = row a 0 1 in
        add_sq_diff2 br o0 o1 o2 x0 x1 (row b 0 0) (row b 0 1) x0 x1 x0 x1
      end;
      for h = 0 to (m lsr 1) - 1 do
        let t = first + (2 * h) in
        add_sq_diff2 br o0 o1 o2 (row a t 0) (row a t 1) (row b t 0) (row b t 1)
          (row a (t + 1) 0) (row a (t + 1) 1) (row b (t + 1) 0) (row b (t + 1) 1)
      done;
      reduce_row br o0;
      reduce_row br o1;
      reduce_row br o2;
      for j = 0 to n - 1 do
        let r = 2 * Array.unsafe_get o1 j in
        Array.unsafe_set o1 j (r - (p land ((p - 1 - r) asr 62)))
      done
    end
    else
      (for t = 0 to m - 1 do
         let x0 = row a t 0 and x1 = row a t 1 and y0 = row b t 0 and y1 = row b t 1 in
         for j = 0 to n - 1 do
           let d0 = (x0.(j) - y0.(j) + p) mod p in
           let d1 = (x1.(j) - y1.(j) + p) mod p in
           o0.(j) <- (o0.(j) + (d0 * d0 mod p)) mod p;
           o1.(j) <- (o1.(j) + (2 * (d0 * d1 mod p))) mod p;
           o2.(j) <- (o2.(j) + (d1 * d1 mod p)) mod p
         done
       done)
      [@sknn.allow "no-division" (* generic fallback: p >= 2^30, or too many terms *)]
  done;
  Array.map (fun comps -> { ctx; domain = Eval; comps }) [| s0; s1; s2 |]

(* Σₛ x^{s·e}·aₛ, for [by] = x^e, by Horner from the last term down,
   acc <- acc·x^e + aₛ, in the evaluation domain, where the product by
   x^e is one Shoup product per point by its transform.  Per prime the
   accumulator row stays in L1 while the terms' rows stream through
   it, each read once. *)
let fold_monomials ~by a =
  let m = Array.length a in
  if m = 0 then invalid_arg "Rq.fold_monomials: no terms";
  let x = a.(0) in
  if by.m_ctx != x.ctx then invalid_arg "Rq.fold_monomials: monomial from another context";
  Array.iter
    (fun c ->
      check_compat x c "Rq.fold_monomials";
      if c.domain <> Eval then invalid_arg "Rq.fold_monomials: operands must be Eval")
    a;
  let ctx = x.ctx and n = x.ctx.n in
  let comps =
    Array.init (Array.length x.comps) (fun i ->
        let p = ctx.moduli.(i) in
        let { w; hi; lo } = by.rows.(i) in
        let acc = Array.copy a.(m - 1).comps.(i) in
        for s = m - 2 downto 0 do
          let row = a.(s).comps.(i) in
          for j = 0 to n - 1 do
            let v = Array.unsafe_get acc j in
            let q =
              ((Array.unsafe_get hi j * v) + ((Array.unsafe_get lo j * v) lsr 31)) lsr 31
            in
            let r = (Array.unsafe_get w j * v) - (q * p) in
            let r = r - (p land ((p - 1 - r) asr 62)) + Array.unsafe_get row j in
            Array.unsafe_set acc j (r - (p land ((p - 1 - r) asr 62)))
          done
        done;
        acc)
  in
  { ctx; domain = Eval; comps }

(* BGV's modulus switch, [drops] steps in one pass.  Each step divides
   out the last active prime q while keeping the residue mod t: with
   w = [c · t^-1 mod q] centered, c_i <- (c_i - t·w) · q^-1 mod p_i.
   Centering needs coefficients, but only of the dropped rows: they
   leave the evaluation domain (one inverse transform each) and run the
   steps among themselves, leaving step s's w_s in the row of the
   prime q_s it drops.  A kept row i sees only linear maps mod p_i, so
   the chain folds to c_i <- Q^-1·c_i - W_i, with Q the product of the
   dropped primes and W_i = Σₛ t·w_s·∏_{r >= s} q_r^-1, the primes
   dropped at step s and every later one.  The NTT is linear mod p_i,
   so an Eval row takes Q^-1·c_i - NTT(W_i) without leaving the domain:
   [drops] inverse transforms and one forward per kept prime, equal
   residue for residue to [drops] single switches.  All constants come
   from the context's [steps] and [folds]; every product is a Shoup
   multiplication, exact for any p < 2^31, of a multiplier below
   2^31: a residue or |w| < q/2. *)
let switch_down t ~drops =
  let k = Array.length t.comps in
  if drops < 1 || drops >= k then invalid_arg "Rq.switch_down: bad drop count";
  let ctx = t.ctx and n = t.ctx.n in
  let target = k - drops in
  let dropped =
    Array.init drops (fun s ->
        let c = Util.Arena.acquire n in
        Array.blit t.comps.(target + s) 0 c 0 n;
        (match t.domain with Eval -> Ntt.inverse ctx.tables.(target + s) c | Coeff -> ());
        c)
  in
  Fun.protect
    ~finally:(fun () -> Array.iter Util.Arena.release dropped)
    (fun () ->
      for lvl = k downto target + 1 do
        let st = ctx.steps.(lvl - 2) in
        let q = st.drop and half = st.drop lsr 1 in
        let iw = st.t_inv_drop.Shoup.w and ihi = st.t_inv_drop.Shoup.hi in
        let ilo = st.t_inv_drop.Shoup.lo in
        (* The dropped row becomes w, centered in (-q/2, q/2]. *)
        let w = dropped.(lvl - 1 - target) in
        for j = 0 to n - 1 do
          let x = Array.unsafe_get w j in
          let e = ((ihi * x) + ((ilo * x) lsr 31)) lsr 31 in
          let r = (iw * x) - (e * q) in
          let r = r - (q land ((q - 1 - r) asr 62)) in
          Array.unsafe_set w j (r - (q land ((half - r) asr 62)))
        done;
        for i = target to lvl - 2 do
          let c = dropped.(i - target) in
          let p = ctx.moduli.(i) in
          let tm = ctx.t_mod.(i) and di = st.drop_inv.(i) in
          let tw = tm.Shoup.w and thi = tm.Shoup.hi and tlo = tm.Shoup.lo in
          let dw = di.Shoup.w and dhi = di.Shoup.hi and dlo = di.Shoup.lo in
          for j = 0 to n - 1 do
            let wj = Array.unsafe_get w j in
            (* t·|w| mod p, then c - t·w in [0, p) *)
            let sgn = wj asr 62 in
            let aw = (wj lxor sgn) - sgn in
            let e = ((thi * aw) + ((tlo * aw) lsr 31)) lsr 31 in
            let r = (tw * aw) - (e * p) in
            let r = r - (p land ((p - 1 - r) asr 62)) in
            let v = Array.unsafe_get c j - ((r lxor sgn) - sgn) in
            let v = v + (p land (v asr 62)) in
            let v = v - (p land ((p - 1 - v) asr 62)) in
            let e = ((dhi * v) + ((dlo * v) lsr 31)) lsr 31 in
            let r = (dw * v) - (e * p) in
            Array.unsafe_set c j (r - (p land ((p - 1 - r) asr 62)))
          done
        done
      done;
      let fold = ctx.folds.(target - 1) in
      let kept =
        Array.init target (fun i ->
            let p = ctx.moduli.(i) in
            (* W_i in the coefficient domain, then in the input's. *)
            let wsum = Array.make n 0 in
            for l = target to k - 1 do
              let w = dropped.(l - target) and f = fold.fold_t.(l - target).(i) in
              let fw = f.Shoup.w and fhi = f.Shoup.hi and flo = f.Shoup.lo in
              for j = 0 to n - 1 do
                let wj = Array.unsafe_get w j in
                let sgn = wj asr 62 in
                let aw = (wj lxor sgn) - sgn in
                let e = ((fhi * aw) + ((flo * aw) lsr 31)) lsr 31 in
                let r = (fw * aw) - (e * p) in
                let r = r - (p land ((p - 1 - r) asr 62)) in
                let v = Array.unsafe_get wsum j + ((r lxor sgn) - sgn) in
                let v = v + (p land (v asr 62)) in
                Array.unsafe_set wsum j (v - (p land ((p - 1 - v) asr 62)))
              done
            done;
            (match t.domain with Eval -> Ntt.forward ctx.tables.(i) wsum | Coeff -> ());
            let qi = fold.fold_q.(drops - 1).(i) and c = t.comps.(i) in
            let qw = qi.Shoup.w and qhi = qi.Shoup.hi and qlo = qi.Shoup.lo in
            for j = 0 to n - 1 do
              let x = Array.unsafe_get c j in
              let e = ((qhi * x) + ((qlo * x) lsr 31)) lsr 31 in
              let r = (qw * x) - (e * p) in
              let r = r - (p land ((p - 1 - r) asr 62)) in
              let v = r - Array.unsafe_get wsum j in
              Array.unsafe_set wsum j (v + (p land (v asr 62)))
            done;
            (match t.domain with Coeff -> Ntt.forward ctx.tables.(i) wsum | Eval -> ());
            wsum)
      in
      { ctx; domain = Eval; comps = kept })

(* --- The plaintext boundary: BGV's encryption embeddings and the
   exact decode mod t, in native-integer arithmetic. --- *)

type flood = { chunks : int array; per_coeff : int; offset_bits : int }

(* Per prime: residues of t·(e + F) + m, then one forward NTT.  e takes
   small_residues' path; t·x is a Shoup product by the context's t mod
   p; m < t is Barrett-reduced when t <= 2^(2 bits p); F's Horner steps
   r·2^30 + c stay below 2^60, Barrett-exact when bits p = 30.  Other
   primes take the mod fallbacks. *)
let embed_noise ?plain ?flood ctx ~nprimes ~bound e =
  let n = ctx.n in
  if Array.length e <> n then invalid_arg "Rq.embed_noise: wrong length";
  if nprimes < 1 || nprimes > Array.length ctx.moduli then invalid_arg "Rq.embed_noise: bad nprimes";
  (match plain with
   | Some m when Array.length m <> n -> invalid_arg "Rq.embed_noise: wrong plaintext length"
   | _ -> ());
  (match flood with
   | Some f when f.per_coeff < 1 || Array.length f.chunks <> n * f.per_coeff ->
     invalid_arg "Rq.embed_noise: wrong flood length"
   | _ -> ());
  let tt = ctx.garner.t_int in
  let comps =
    Array.init nprimes (fun i ->
        let p = ctx.moduli.(i) in
        let br = Ntt.barrett ctx.tables.(i) in
        let mu = br.Barrett.mu and sh1 = br.Barrett.s1 and sh2 = br.Barrett.s2 in
        let out = Array.make n 0 in
        small_residues ~bound p e out;
        (match flood with
         | None -> ()
         | Some { chunks; per_coeff; offset_bits } ->
           let offset =
             Int64.to_int (Mod64.pow (Int64.of_int p) 2L (Int64.of_int offset_bits))
           in
           let barrett = br.Barrett.fast && sh1 = 29 in
           for j = 0 to n - 1 do
             let r = ref 0 in
             for c = 0 to per_coeff - 1 do
               let v = (!r lsl 30) + Array.unsafe_get chunks ((j * per_coeff) + c) in
               if barrett then begin
                 let r' = v - ((((v lsr sh1) * mu) lsr sh2) * p) in
                 let r' = r' - (p land ((p - 1 - r') asr 62)) in
                 r := r' - (p land ((p - 1 - r') asr 62))
               end
               else r := (v mod p) [@sknn.allow "no-division" (* primes of other than 30 bits *)]
             done;
             let f = !r - offset in
             let f = f + (p land (f asr 62)) in
             let x = Array.unsafe_get out j + f in
             Array.unsafe_set out j (x - (p land ((p - 1 - x) asr 62)))
           done);
        let tm = ctx.t_mod.(i) in
        let w = tm.Shoup.w and hi = tm.Shoup.hi and lo = tm.Shoup.lo in
        for j = 0 to n - 1 do
          let x = Array.unsafe_get out j in
          let q = ((hi * x) + ((lo * x) lsr 31)) lsr 31 in
          let r = (w * x) - (q * p) in
          Array.unsafe_set out j (r - (p land ((p - 1 - r) asr 62)))
        done;
        (match plain with
         | None -> ()
         | Some m ->
           let barrett = br.Barrett.fast && tt <= 1 lsl (2 * (sh1 + 1)) in
           for j = 0 to n - 1 do
             let v = Int64.to_int (Array.unsafe_get m j) in
             let r =
               if barrett then begin
                 let r = v - ((((v lsr sh1) * mu) lsr sh2) * p) in
                 let r = r - (p land ((p - 1 - r) asr 62)) in
                 r - (p land ((p - 1 - r) asr 62))
               end
               else (v mod p) [@sknn.allow "no-division" (* t above Barrett's range for p *)]
             in
             let x = Array.unsafe_get out j + r in
             Array.unsafe_set out j (x - (p land ((p - 1 - x) asr 62)))
           done);
        Ntt.forward ctx.tables.(i) out;
        out)
  in
  { ctx; domain = Eval; comps }

(* Garner's mixed-radix digits of x in [0, Q), Q = p_0⋯p_{k-1}, with
   P_i = p_0⋯p_{i-1}: x = v_0·P_0 + v_1·P_1 + … + v_{k-1}·P_{k-1} with
   v_i < p_i.  Mod p_i the terms past i vanish, so
   v_i = (x_i - Σ_{j<i} v_j·(P_j mod p_i)) · P_i^-1 mod p_i: k(k-1)/2
   Shoup products for the sums, which take any digit below 2^31 (a
   wider prime's digit needs no reduction first), and k - 1 for the
   inverses.  Then, with h_i = (p_i - 1)/2 the digits of (Q - 1)/2:
   - x > (Q-1)/2 exactly when (v_{k-1}, …, v_0) is lexicographically
     above (h_{k-1}, …, h_0), folded here from the least significant
     digit (a digit that differs overrides every one below it);
   - x mod t = Σ v_i · (P_i mod t) mod t, each term a Shoup product mod
     t by a 31-bit digit.  t < 2^61 and the product's residual c·v - q·t
     lies in [0, 2t) below 2^62, so it is exact even though c·v itself
     wraps mod 2^63;
   - the centered value's residue subtracts Q mod t under the sign mask.
   [scale] multiplies by a constant mod t as a split Shoup product:
   s = s_hi·2^31 + s_lo, s·f = s_hi·(2^31·f mod t) + s_lo·f.
   Rows are processed prime-major, one pass per (i, j) pair, into arena
   scratch; no branch, division or index depends on a residue. *)
let decode_rows ?scale g moduli rows ~width =
  let k = Array.length rows in
  let tt = g.t_int in
  let out = Array.make width 0 in
  let sgn = Util.Arena.acquire width in
  (* digits.(i) holds v_i; v_0 is the first row itself. *)
  let digits = Array.make k rows.(0) in
  for i = 1 to k - 1 do
    digits.(i) <- Util.Arena.acquire width
  done;
  Fun.protect
    ~finally:(fun () ->
      Util.Arena.release sgn;
      for i = 1 to k - 1 do
        Util.Arena.release digits.(i)
      done)
    (fun () ->
      for i = 1 to k - 1 do
        let p = moduli.(i) and u = digits.(i) in
        Array.fill u 0 width 0;
        for j = 0 to i - 1 do
          let vj = digits.(j) and pre = g.prefix.(i).(j) in
          let w = pre.Shoup.w and hi = pre.Shoup.hi and lo = pre.Shoup.lo in
          for c = 0 to width - 1 do
            let y = Array.unsafe_get vj c in
            let e = ((hi * y) + ((lo * y) lsr 31)) lsr 31 in
            let r = (w * y) - (e * p) in
            let r = r - (p land ((p - 1 - r) asr 62)) in
            let s = Array.unsafe_get u c + r in
            Array.unsafe_set u c (s - (p land ((p - 1 - s) asr 62)))
          done
        done;
        let xi = rows.(i) and inv = g.prefix_inv.(i) in
        let w = inv.Shoup.w and hi = inv.Shoup.hi and lo = inv.Shoup.lo in
        for c = 0 to width - 1 do
          let d = Array.unsafe_get xi c - Array.unsafe_get u c in
          let d = d + (p land (d asr 62)) in
          let e = ((hi * d) + ((lo * d) lsr 31)) lsr 31 in
          let r = (w * d) - (e * p) in
          Array.unsafe_set u c (r - (p land ((p - 1 - r) asr 62)))
        done
      done;
      Array.fill sgn 0 width 0;
      (* Q mod t, the prefix product past the last digit. *)
      let qk = ref 0 in
      for i = 0 to k - 1 do
        let v = digits.(i) in
        let h = g.half.(i) and cv = g.radix.(i) and cq = g.radix_q.(i) in
        qk := g.radix.(i + 1);
        for c = 0 to width - 1 do
          let x = Array.unsafe_get v c in
          let above = (h - x) asr 62 and below = (x - h) asr 62 in
          Array.unsafe_set sgn c (above lor (lnot below land Array.unsafe_get sgn c));
          let q = (cq * x) lsr 31 in
          let r = (cv * x) - (q * tt) in
          let r = r - (tt land ((tt - 1 - r) asr 62)) in
          let s = Array.unsafe_get out c + r in
          Array.unsafe_set out c (s - (tt land ((tt - 1 - s) asr 62)))
        done
      done;
      let qk = !qk in
      for c = 0 to width - 1 do
        let s = Array.unsafe_get out c - (qk land Array.unsafe_get sgn c) in
        Array.unsafe_set out c (s + (tt land (s asr 62)))
      done);
  (match scale with
   | None -> ()
   | Some f ->
     let f_hi =
       Int64.to_int (Mod64.mul (Int64.of_int tt) (Int64.of_int f) (Int64.shift_left 1L 31))
     in
     let q_lo = companion_t ~t:tt f and q_hi = companion_t ~t:tt f_hi in
     for c = 0 to width - 1 do
       let s = Array.unsafe_get out c in
       let lo = s land 0x7FFFFFFF and hi = s lsr 31 in
       let r1 = (f * lo) - (((q_lo * lo) lsr 31) * tt) in
       let r1 = r1 - (tt land ((tt - 1 - r1) asr 62)) in
       let r2 = (f_hi * hi) - (((q_hi * hi) lsr 31) * tt) in
       let r2 = r2 - (tt land ((tt - 1 - r2) asr 62)) in
       let s = r1 + r2 in
       Array.unsafe_set out c (s - (tt land ((tt - 1 - s) asr 62)))
     done);
  out

let decode_mod_t ?scale t =
  let t = to_coeff t in
  decode_rows ?scale t.ctx.garner t.ctx.moduli t.comps ~width:t.ctx.n

(* A residue vector longer than the chain, or empty, fails the bounds
   checks inside decode_rows with Invalid_argument. *)
let decode_residues_mod_t ?scale ctx residues =
  (decode_rows ?scale ctx.garner ctx.moduli (Array.map (fun r -> [| r |]) residues) ~width:1).(0)

let n_inv ctx i = Ntt.n_inv ctx.tables.(i)


let equal a b =
  a.ctx == b.ctx
  && Array.length a.comps = Array.length b.comps
  &&
  let a', b' =
    match a.domain, b.domain with
    | Coeff, Coeff | Eval, Eval -> (a, b)
    | Coeff, Eval -> (a, to_coeff b)
    | Eval, Coeff -> (to_coeff a, b)
  in
  a'.comps = b'.comps

let truncate t ~nprimes =
  let k = Array.length t.comps in
  if nprimes < 1 || nprimes > k then invalid_arg "Rq.truncate: bad nprimes";
  if nprimes = k then t else { t with comps = Array.sub t.comps 0 nprimes }

let mul_scalar_zint a s =
  scale_comps a ~residue:(fun p -> Z.to_int_exn (Z.erem s (Z.of_int p)))

(* Exponent folding mod 2n on a per-call Galois substitution (key
   switching prep), not a per-coefficient reduction. *)
let[@sknn.allow "no-division"] substitute t ~k =
  let n = t.ctx.n in
  let k = ((k mod (2 * n)) + (2 * n)) mod (2 * n) in
  if k land 1 = 0 then invalid_arg "Rq.substitute: k must be odd";
  let t = to_coeff t in
  let comps =
    Array.mapi
      (fun i comp ->
        let p = t.ctx.moduli.(i) in
        let out = Array.make n 0 in
        for j = 0 to n - 1 do
          (* x^j -> x^(jk); x^n = -1 folds exponents >= n with a sign. *)
          let e = j * k mod (2 * n) in
          if e < n then out.(e) <- comp.(j)
          else out.(e - n) <- (if comp.(j) = 0 then 0 else p - comp.(j))
        done;
        out)
      t.comps
  in
  { t with comps }

let component t i = Array.copy t.comps.(i)
let unsafe_component t i = t.comps.(i)

let of_components ctx domain comps =
  if Array.length comps = 0 || Array.length comps > Array.length ctx.moduli then
    invalid_arg "Rq.of_components: bad component count";
  Array.iter
    (fun c -> if Array.length c <> ctx.n then invalid_arg "Rq.of_components: bad length")
    comps;
  { ctx; domain; comps }

let pp ppf t =
  let d = match t.domain with Coeff -> "coeff" | Eval -> "eval" in
  Format.fprintf ppf "<Rq n=%d primes=%d %s>" t.ctx.n (nprimes t) d
