
type t = {
  name : string;
  n : int;
  t_plain : int64;
  moduli : int array;
  eta : int;
  relin_digit_bits : int;
  ring : Rq.context;
  batching : Ntt64.table;
  noise : Util.Noise_model.params;
}

(* Structured infeasibility: the planner enumerates hundreds of candidate
   specs and needs to distinguish "no such parameter set exists" (count it
   and move on) from programmer errors (invalid_arg, which still escape). *)
type infeasibility =
  | No_plain_prime of { n : int; plain_bits : int }
  | Prime_bits_too_large of { prime_bits : int; limit : int }
  | Chain_exhausted of { n : int; prime_bits : int; chain_len : int }

exception Infeasible of infeasibility

let describe_infeasibility = function
  | No_plain_prime { n; plain_bits } ->
    Printf.sprintf "no plaintext prime = 1 mod %d below 2^%d" (2 * n) plain_bits
  | Prime_bits_too_large { prime_bits; limit } ->
    Printf.sprintf "prime_bits %d exceeds the %d-bit kernel bound" prime_bits limit
  | Chain_exhausted { n; prime_bits; chain_len } ->
    Printf.sprintf "fewer than %d NTT primes = 1 mod %d in [2^%d, 2^%d)"
      chain_len (2 * n) (prime_bits - 2) prime_bits

let () =
  Printexc.register_printer (function
    | Infeasible i -> Some ("Params.Infeasible: " ^ describe_infeasibility i)
    | _ -> None)

(* Prime search only — no ring context, no batching tables.  A probe is
   cheap enough to run for every candidate the planner enumerates;
   [create] is [of_probe % probe] so a realized set always matches the
   probe that admitted it. *)
type probe = {
  pr_name : string;
  pr_n : int;
  pr_t_plain : int64;
  pr_moduli : int array;
  pr_eta : int;
  pr_relin_digit_bits : int;
}

(* The CBD noise parameter and the key-switching digit width every
   parameter set uses. *)
let eta = 2
let relin_digit_bits = 16

let probe ~name ~n ~plain_bits ~prime_bits ~chain_len () =
  if plain_bits > 50 then invalid_arg "Params.create: plain_bits > 50";
  if prime_bits > 30 then
    raise (Infeasible (Prime_bits_too_large { prime_bits; limit = 30 }));
  if n < 4 || n land (n - 1) <> 0 then invalid_arg "Params.create: n not a power of two";
  if chain_len < 1 then invalid_arg "Params.create: chain_len < 1";
  let m2n = Int64.of_int (2 * n) in
  let t_plain =
    try Prime64.find_ntt_prime ~congruent_mod:m2n ~bits:plain_bits ()
    with Not_found -> raise (Infeasible (No_plain_prime { n; plain_bits }))
  in
  let chain count =
    try Prime64.ntt_primes ~congruent_mod:m2n ~bits:prime_bits ~count
    with Not_found ->
      raise (Infeasible (Chain_exhausted { n; prime_bits; chain_len }))
  in
  let moduli =
    chain chain_len
    |> List.filter (fun p -> not (Int64.equal p t_plain))
    |> (fun l ->
         if List.length l < chain_len then
           chain (chain_len + 1) |> List.filter (fun p -> not (Int64.equal p t_plain))
         else l)
    |> (fun l -> List.filteri (fun i _ -> i < chain_len) l)
    |> List.map Int64.to_int
    |> Array.of_list
  in
  { pr_name = name; pr_n = n; pr_t_plain = t_plain; pr_moduli = moduli;
    pr_eta = eta; pr_relin_digit_bits = relin_digit_bits }

let noise_of_probe pr =
  let lg = Util.Noise_model.log2 in
  { Util.Noise_model.n = pr.pr_n;
    t_bits = lg (Int64.to_float pr.pr_t_plain);
    moduli_bits = Array.map (fun m -> lg (float_of_int m)) pr.pr_moduli;
    eta = float_of_int pr.pr_eta }

let of_probe pr =
  let ring = Rq.context ~n:pr.pr_n ~moduli:pr.pr_moduli ~t:pr.pr_t_plain in
  let batching = Ntt64.make_table ~p:pr.pr_t_plain ~n:pr.pr_n in
  { name = pr.pr_name; n = pr.pr_n; t_plain = pr.pr_t_plain;
    moduli = pr.pr_moduli; eta = pr.pr_eta;
    relin_digit_bits = pr.pr_relin_digit_bits; ring; batching;
    noise = noise_of_probe pr }

let create ~name ~n ~plain_bits ~prime_bits ~chain_len () =
  of_probe (probe ~name ~n ~plain_bits ~prime_bits ~chain_len ())

let probe_of_t p =
  { pr_name = p.name; pr_n = p.n; pr_t_plain = p.t_plain; pr_moduli = p.moduli;
    pr_eta = p.eta; pr_relin_digit_bits = p.relin_digit_bits }

let memo f =
  let cache = ref None in
  fun () ->
    match !cache with
    | Some v -> v
    | None ->
      let v = f () in
      cache := Some v;
      v

let toy =
  memo (fun () ->
      create ~name:"toy" ~n:256 ~plain_bits:20 ~prime_bits:27 ~chain_len:8 ())

let bench_small =
  memo (fun () ->
      create ~name:"bench_small" ~n:1024 ~plain_bits:40 ~prime_bits:30 ~chain_len:12 ())

let bench =
  memo (fun () ->
      create ~name:"bench" ~n:4096 ~plain_bits:45 ~prime_bits:30 ~chain_len:14 ())

let secure =
  memo (fun () ->
      create ~name:"secure" ~n:8192 ~plain_bits:40 ~prime_bits:30 ~chain_len:7 ())

let chain_length p = Array.length p.moduli

let probe_log2_q pr =
  Array.fold_left (fun acc m -> acc +. log (float_of_int m)) 0.0 pr.pr_moduli
  /. log 2.0

let log2_q p =
  Array.fold_left (fun acc m -> acc +. log (float_of_int m)) 0.0 p.moduli /. log 2.0

(* homomorphicencryption.org standard table (ternary secret, classical
   attacks): the largest log2 q supporting 128-bit security at each ring
   degree.  Interpolated piecewise-linearly in log2 n; extrapolated
   geometrically below n = 1024 (the table's q budget almost exactly
   doubles per doubling of n, so the extension keeps that ratio). *)
let he_std_128 =
  [| (1024, 27.0); (2048, 54.0); (4096, 109.0); (8192, 218.0);
     (16384, 438.0); (32768, 881.0) |]

let log2q_at_128 ~n =
  let ln = log (float_of_int n) /. log 2.0 in
  let rows = Array.length he_std_128 in
  let lx i = log (float_of_int (fst he_std_128.(i))) /. log 2.0 in
  let ly i = snd he_std_128.(i) in
  if ln <= lx 0 then
    (* Geometric extension: halve the q budget per halved n. *)
    ly 0 *. (2.0 ** (ln -. lx 0))
  else if ln >= lx (rows - 1) then
    ly (rows - 1) *. (ly (rows - 1) /. ly (rows - 2)) ** (ln -. lx (rows - 1))
  else begin
    let i = ref 0 in
    while lx (!i + 1) < ln do incr i done;
    let f = (ln -. lx !i) /. (lx (!i + 1) -. lx !i) in
    ly !i +. (f *. (ly (!i + 1) -. ly !i))
  end

let security_bits_for ~n ~log2_q =
  if log2_q <= 0.0 then infinity else 128.0 *. log2q_at_128 ~n /. log2_q

let security_bits p = security_bits_for ~n:p.n ~log2_q:(log2_q p)

let slot_count p = p.n

let pp ppf p =
  Format.fprintf ppf
    "@[<v>%s: n=%d t=%Ld (%d bits) chain=%d primes (log2 q = %.0f) eta=%d w=%d est. security=%.0f bits@]"
    p.name p.n p.t_plain
    (int_of_float (ceil (log (Int64.to_float p.t_plain) /. log 2.0)))
    (chain_length p) (log2_q p) p.eta p.relin_digit_bits (security_bits p)
