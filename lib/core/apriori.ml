module Rng = Util.Rng
module Counters = Util.Counters
module Perm = Util.Perm

type deployment = {
  config : Config.t;
  n : int;                    (* transactions *)
  m : int;                    (* items *)
  blocks : int;               (* ceil(n / slots) *)
  item_cts : Bgv.ct array array; (* m x blocks, slot i = bit of transaction *)
  sk : Bgv.secret_key;
  (* Held because both parties carry the public key in the protocol,
     even though this demo path only ever encrypts at setup. *)
  pk : Bgv.public_key; [@warning "-69"]
  rlk : Bgv.relin_key;
  mutable sum_keys : Bgv.galois_key list option; (* lazily generated *)
  counters_a : Counters.t;
  counters_b : Counters.t;
  seed : Rng.t;
}

let item_count t = t.m
let transaction_count t = t.n

let deploy ?rng config ~transactions =
  let rng = match rng with Some r -> r | None -> Rng.of_int 0xa9101 in
  let n = Array.length transactions in
  if n = 0 then invalid_arg "Apriori.deploy: no transactions";
  let m = Array.length transactions.(0) in
  Array.iter
    (fun row ->
      if Array.length row <> m then invalid_arg "Apriori.deploy: ragged transactions";
      Array.iter
        (fun v -> if v <> 0 && v <> 1 then invalid_arg "Apriori.deploy: bits must be 0/1")
        row)
    transactions;
  let params = config.Config.bgv in
  let slots = Params.slot_count params in
  let blocks = (n + slots - 1) / slots in
  let keys = Bgv.keygen (Rng.split rng) params in
  let enc_rng = Rng.split rng in
  let item_cts =
    Array.init m (fun j ->
        Array.init blocks (fun b ->
            let vals =
              Array.init slots (fun s ->
                  let i = (b * slots) + s in
                  if i < n then Int64.of_int transactions.(i).(j) else 0L)
            in
            (* One-time deploy encryption: [mine] resets both party
               ledgers before mining, so these deliberately stay
               outside the per-run cost ledger. *)
            (Bgv.encrypt enc_rng keys.Bgv.pk
               ((Plaintext.of_slots params vals) [@sknn.allow "ledger-at-op-site"]))
            [@sknn.allow "ledger-at-op-site"]))
  in
  { config;
    n;
    m;
    blocks;
    item_cts;
    sk = keys.Bgv.sk;
    pk = keys.Bgv.pk;
    rlk = keys.Bgv.rlk;
    sum_keys = None;
    counters_a = Counters.create ();
    counters_b = Counters.create ();
    seed = Rng.split rng }

type result = {
  frequent : int list list;
  level_candidates : int array;
  level_frequent : int array;
  seconds : float;
  transcript : Transcript.t;
  counters_a : Counters.t;
  counters_b : Counters.t;
}

(* Party A: slot-wise product of the candidate's item columns — the
   per-transaction membership bits, |S|-1 multiplications per block.
   With [rlk] the products stay at degree 1 (needed when the support is
   subsequently folded with Galois rotations). *)
let membership_blocks ?rlk (t : deployment) itemset =
  match itemset with
  | [] -> invalid_arg "Apriori: empty itemset"
  | first :: rest ->
    Array.init t.blocks (fun b ->
        List.fold_left
          (fun acc j -> Bgv.mul ~counters:t.counters_a ?rlk acc t.item_cts.(j).(b))
          t.item_cts.(first).(b) rest)

let sum_keys_of (t : deployment) rng =
  match t.sum_keys with
  | Some ks -> ks
  | None ->
    let ks = Bgv.slot_sum_keys rng t.sk in
    t.sum_keys <- Some ks;
    ks

(* The largest secret scale a. *)
let max_scale = 65535L

let masked_support ?(use_rotations = false) (t : deployment) rng ~minsup itemset =
  let params = t.config.Config.bgv in
  let slots = Params.slot_count params in
  (* a is charged at its public width, so the ciphertexts' noise bound
     (and header) is the same whatever a is drawn. *)
  let lead_bits = Bgv.scalar_bits ~t_plain:params.Params.t_plain max_scale in
  let a = Int64.add 1L (Rng.int64_below rng max_scale) in
  if use_rotations then begin
    (* A folds the support itself: relinearised membership
       products summed across blocks, then rotate-and-sum puts
       a·support + r into every slot — one scalar ciphertext
       per candidate reaches B. *)
    let blocks = membership_blocks ~rlk:t.rlk t itemset in
    let total =
      Array.fold_left
        (fun acc ct ->
          match acc with
          | None -> Some ct
          | Some x -> Some (Bgv.add ~counters:t.counters_a x ct))
        None blocks
      |> Option.get
    in
    let support_ct = Bgv.sum_slots ~counters:t.counters_a (sum_keys_of t rng) total in
    (* A single scalar mask can be much wider than the per-slot
       ones: a·support < 2^34 stays far below t even with 2^40
       of additive noise. *)
    let r = Rng.int64_below rng (Int64.shift_left 1L 40) in
    let masked_ct =
      Bgv.eval_poly ~counters:t.counters_a ~lead_bits ~coeffs:[| r; a |] support_ct
    in
    let theta = Int64.add (Int64.mul a (Int64.of_int minsup)) r in
    ([| masked_ct |], theta)
  end
  else begin
    (* Mask sizes keeping a·support + Σ r below t (no wrap mod t):
       a < 2^16, r_i < 2^rbits with slots·blocks·2^rbits < t/4. *)
    let rbits =
      let budget =
        int_of_float
          (log (Int64.to_float params.Params.t_plain /. 4.0 /. float_of_int (t.blocks * slots))
           /. log 2.0)
      in
      Stdlib.max 8 (Stdlib.min 36 budget)
    in
    let rbound = Int64.shift_left 1L rbits in
    let blocks = membership_blocks t itemset in
    let big_r = ref 0L in
    let blocks =
      Array.map
        (fun ct ->
          let rs =
            Array.init slots (fun _ ->
                let r = Rng.int64_below rng rbound in
                big_r := Int64.add !big_r r;
                r)
          in
          Bgv.add_plain ~counters:t.counters_a
            (Bgv.eval_poly ~counters:t.counters_a ~lead_bits ~coeffs:[| 0L; a |] ct)
            (Plaintext.of_slots ~counters:t.counters_a params rs))
        blocks
    in
    let theta = Int64.add (Int64.mul a (Int64.of_int minsup)) !big_r in
    (blocks, theta)
  end

let mine ?rng ?(max_size = 4) ?(use_rotations = false) (t : deployment) ~minsup =
  if minsup < 1 then invalid_arg "Apriori.mine: minsup < 1";
  let rng = match rng with Some r -> r | None -> Rng.split t.seed in
  Counters.reset t.counters_a;
  Counters.reset t.counters_b;
  let tr = Transcript.create () in
  let t0 = Util.Timer.now () in
  let frequent = ref [] in
  let level_candidates = ref [] and level_frequent = ref [] in
  let current = ref (List.init t.m (fun j -> [ j ])) in
  let size = ref 1 in
  let continue_ = ref true in
  while !continue_ && !size <= max_size && !current <> [] do
    let cands = Array.of_list !current in
    let nc = Array.length cands in
    (* Party A: masked membership ciphertexts + masked thresholds. *)
    let perm = Perm.random rng nc in
    let masked = Array.map (masked_support ~use_rotations t rng ~minsup) cands in
    let shuffled = Perm.apply perm masked in
    let bytes =
      Array.fold_left
        (fun acc (blocks, _) ->
          acc + 8 + Array.fold_left (fun a ct -> a + Bgv.byte_size ct) 0 blocks)
        0 shuffled
    in
    Transcript.send tr ~sender:Transcript.Party_a ~receiver:Transcript.Party_b
      ~label:(Printf.sprintf "level %d: masked supports + thresholds" !size)
      ~bytes;
    (* Party A -> client: the candidate permutation (seed-sized). *)
    Transcript.send tr ~sender:Transcript.Party_a ~receiver:Transcript.Client
      ~label:(Printf.sprintf "level %d: candidate permutation" !size)
      ~bytes:(4 * nc);
    (* Party B: decrypt, sum slots, compare to the masked threshold. *)
    let bits_shuffled =
      Array.map
        (fun (blocks, theta) ->
          if use_rotations then begin
            (* One scalar per candidate: all slots equal a·support + r,
               so the ciphertext is a constant polynomial. *)
            let v = Bgv.decrypt_coeff0 ~counters:t.counters_b t.sk blocks.(0) in
            Int64.compare v theta >= 0
          end
          else begin
            let sum = ref 0L in
            Array.iter
              (fun ct ->
                let vals =
                  Plaintext.to_slots ~counters:t.counters_b
                    (Bgv.decrypt ~counters:t.counters_b t.sk ct)
                in
                Array.iter (fun v -> sum := Int64.add !sum v) vals)
              blocks;
            Int64.compare !sum theta >= 0
          end)
        shuffled
    in
    Transcript.send tr ~sender:Transcript.Party_b ~receiver:Transcript.Client
      ~label:(Printf.sprintf "level %d: comparison bits" !size)
      ~bytes:nc;
    (* Client: un-permute, collect survivors, generate the next level. *)
    let survivors =
      List.filteri (fun i _ -> bits_shuffled.(Perm.apply_index perm i)) !current
    in
    level_candidates := nc :: !level_candidates;
    level_frequent := List.length survivors :: !level_frequent;
    frequent := !frequent @ survivors;
    if survivors = [] then continue_ := false
    else begin
      current := Apriori_plain.candidates survivors;
      incr size
    end
  done;
  { frequent = !frequent;
    level_candidates = Array.of_list (List.rev !level_candidates);
    level_frequent = Array.of_list (List.rev !level_frequent);
    seconds = Util.Timer.now () -. t0;
    transcript = tr;
    counters_a = t.counters_a;
    counters_b = t.counters_b }

let matches_plaintext ~transactions ~minsup ?(max_size = 4) r =
  let plain =
    List.map fst (Apriori_plain.frequent_itemsets ~max_size ~minsup transactions)
  in
  plain = r.frequent
