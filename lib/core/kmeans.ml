module Rng = Util.Rng
module Counters = Util.Counters
module Perm = Util.Perm

type deployment = {
  config : Config.t;
  n : int;
  d : int;
  enc_db : Entities.encrypted_db;
  sk : Bgv.secret_key;
  pk : Bgv.public_key;
  client : Entities.Client.t;
  counters_a : Counters.t;
  counters_b : Counters.t;
  seed : Rng.t;
}

let deploy ?rng config ~db =
  let rng = match rng with Some r -> r | None -> Rng.of_int 0x3eab5 in
  if config.Config.layout <> Config.Dot_product then
    invalid_arg "Kmeans.deploy: requires the Dot_product layout";
  let owner = Entities.Data_owner.create (Rng.split rng) config in
  let enc_db = Entities.Data_owner.encrypt_db (Rng.split rng) owner db in
  let keys = Entities.Data_owner.keys owner in
  { config;
    n = Array.length db;
    d = Array.length db.(0);
    enc_db;
    sk = keys.Bgv.sk;
    pk = keys.Bgv.pk;
    client = Entities.Client.create config keys.Bgv.sk keys.Bgv.pk;
    counters_a = Counters.create ();
    counters_b = Counters.create ();
    seed = Rng.split rng }

type result = {
  centroids : int array array;
  sizes : int array;
  iterations : int;
  converged : bool;
  seconds : float;
  transcript : Transcript.t;
  counters_a : Counters.t;
  counters_b : Counters.t;
}

let run ?rng ?(max_iters = 25) t ~init =
  let rng = match rng with Some r -> r | None -> Rng.split t.seed in
  let k = Array.length init in
  if k = 0 then invalid_arg "Kmeans.run: k = 0";
  Array.iter (fun c -> if Array.length c <> t.d then invalid_arg "Kmeans.run: bad centroid dim") init;
  Counters.reset t.counters_a;
  Counters.reset t.counters_b;
  let tr = Transcript.create () in
  let t0 = Util.Timer.now () in
  let params = t.config.Config.bgv in
  let tp = params.Params.t_plain in
  let return_level =
    Stdlib.min t.config.Config.return_level (Params.chain_length params)
  in
  let max_coord_bits = t.config.Config.max_coord_bits in
  let input_bits = Config.max_distance_bits ~max_coord_bits ~d:t.d in
  let lead_bits =
    Config.mask_lead_bits ~t_plain:tp ~max_coord_bits ~d:t.d ~degree:1
      ~coeff_bits:t.config.Config.mask_coeff_bits
  in
  let packed = Array.map (fun p -> p.Entities.packed) t.enc_db.Entities.points in
  let centroids = ref (Array.map Array.copy init) in
  let iterations = ref 0 in
  let converged = ref false in
  let sizes = ref (Array.make k 0) in
  let ct_bytes cts = Array.fold_left (fun s c -> s + Bgv.byte_size c) 0 cts in
  while (not !converged) && !iterations < max_iters do
    incr iterations;
    (* Client: encrypt the centroids as dot-product queries. *)
    let enc_centroids =
      Array.map (fun c -> Entities.Client.encrypt_query t.client rng c) !centroids
    in
    let queries =
      Array.map
        (fun q -> (Option.get q.Entities.q_rev, Option.get q.Entities.q_norm))
        enc_centroids
    in
    Transcript.send tr ~sender:Transcript.Client ~receiver:Transcript.Party_a
      ~label:(Printf.sprintf "iteration %d: encrypted centroids" !iterations)
      ~bytes:(Array.fold_left (fun s q -> s + Entities.query_bytes q) 0 enc_centroids);
    (* Party A: per-point masked, per-point permuted distance rows. *)
    let perms = Array.init t.n (fun _ -> Perm.random rng k) in
    let masked_rows =
      Array.mapi
        (fun i point ->
          let mask =
            Masking.draw rng ~t_plain:tp ~input_bits ~degree:1
              ~coeff_bits:t.config.Config.mask_coeff_bits ()
          in
          let coeffs = Masking.coeffs mask in
          let row =
            Array.map
              (fun q ->
                Entities.Party_a.masked_inner_product ~counters:t.counters_a t.config
                  ~lead_bits ~coeffs rng ~norm:(Option.get point.Entities.norm)
                  ~packed:point.Entities.packed q)
              queries
          in
          Perm.apply perms.(i) row)
        t.enc_db.Entities.points
    in
    Transcript.send tr ~sender:Transcript.Party_a ~receiver:Transcript.Party_b
      ~label:(Printf.sprintf "iteration %d: masked distance rows" !iterations)
      ~bytes:(Array.fold_left (fun s row -> s + ct_bytes row) 0 masked_rows);
    (* Party B: per-row argmin, indicator vectors over permuted slots. *)
    let indicator_rows =
      Array.map
        (fun row ->
          let values = Array.map (Bgv.decrypt_coeff0 ~counters:t.counters_b t.sk) row in
          let best = ref 0 in
          Array.iteri (fun c v -> if Int64.compare v values.(!best) < 0 then best := c) values;
          Array.init k (fun c ->
              Bgv.encrypt ~counters:t.counters_b ~level:return_level rng t.pk
                (Plaintext.constant params (if c = !best then 1L else 0L))))
        masked_rows
    in
    Transcript.send tr ~sender:Transcript.Party_b ~receiver:Transcript.Party_a
      ~label:(Printf.sprintf "iteration %d: assignment indicators" !iterations)
      ~bytes:(Array.fold_left (fun s row -> s + ct_bytes row) 0 indicator_rows);
    (* Party A: un-permute and aggregate sums and counts per cluster. *)
    let aggregates =
      Array.init k (fun c ->
          let inds =
            Array.mapi (fun i row -> row.(Perm.apply_index perms.(i) c)) indicator_rows
          in
          let count =
            Array.fold_left (Bgv.add ~counters:t.counters_a) inds.(0)
              (Array.sub inds 1 (t.n - 1))
          in
          (Bgv.mul_sum ~counters:t.counters_a ~jobs:1 packed inds, count))
    in
    Transcript.send tr ~sender:Transcript.Party_a ~receiver:Transcript.Client
      ~label:(Printf.sprintf "iteration %d: cluster aggregates" !iterations)
      ~bytes:(Array.fold_left (fun s (a, b) -> s + Bgv.byte_size a + Bgv.byte_size b) 0 aggregates);
    (* Client: decrypt and recompute centroids (rounded integer mean).
       Client-side decryptions live outside the two-party A/B cost
       ledger, so they carry no counters. *)
    let next =
      Array.mapi
        (fun c (sum_ct, count_ct) ->
          let count =
            Int64.to_int
              ((Bgv.decrypt_coeff0 t.sk count_ct) [@sknn.allow "ledger-at-op-site"])
          in
          (!sizes).(c) <- count;
          if count = 0 then Array.copy !centroids.(c)
          else begin
            let coeffs =
              Plaintext.to_coeffs
                ((Bgv.decrypt t.sk sum_ct) [@sknn.allow "ledger-at-op-site"])
            in
            Array.init t.d (fun j ->
                let s = Int64.to_int coeffs.(j) in
                (s + (count / 2)) / count)
          end)
        aggregates
    in
    if next = !centroids then converged := true else centroids := next
  done;
  { centroids = !centroids;
    sizes = !sizes;
    iterations = !iterations;
    converged = !converged;
    seconds = Util.Timer.now () -. t0;
    transcript = tr;
    counters_a = t.counters_a;
    counters_b = t.counters_b }

let matches_plaintext ~db ~init ?(max_iters = 25) r =
  let plain = Kmeans_plain.lloyd ~max_iters ~init db in
  plain.Kmeans_plain.centroids = r.centroids
