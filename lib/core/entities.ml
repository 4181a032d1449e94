module Rng = Util.Rng
module Counters = Util.Counters
module Perm = Util.Perm
module Pool = Util.Pool
module Obs = Sknn_obs.Ctx
module Trace = Sknn_obs.Trace
module Audit = Sknn_obs.Audit
module NM = Util.Noise_model

(* Per-worker counters keep recording race-free under Pool.map_local;
   absorbing them in worker order makes the totals exact (and identical)
   for every job count. *)
let merge_into counters w = Counters.absorb ~into:counters w

(* One independent RNG stream per point, split off sequentially from the
   parent before the parallel loop, so the ciphertexts are bit-identical
   whatever the job count. *)
let split_streams rng n = Array.init n (fun _ -> Rng.split rng)

type encrypted_point = {
  coords : Bgv.ct array option;
  packed : Bgv.ct;
  norm : Bgv.ct option;
}

type encrypted_db = { db_n : int; db_d : int; points : encrypted_point array }

type encrypted_query = {
  q_coords : Bgv.ct array option;
  q_rev : Bgv.ct option;
  q_norm : Bgv.ct option;
  q_dim : int;
}

let ct_bytes = Bgv.byte_size

let point_bytes p =
  ct_bytes p.packed
  + (match p.coords with None -> 0 | Some a -> Array.fold_left (fun s c -> s + ct_bytes c) 0 a)
  + (match p.norm with None -> 0 | Some c -> ct_bytes c)

let db_bytes db = Array.fold_left (fun s p -> s + point_bytes p) 0 db.points

let query_bytes q =
  (match q.q_coords with None -> 0 | Some a -> Array.fold_left (fun s c -> s + ct_bytes c) 0 a)
  + (match q.q_rev with None -> 0 | Some c -> ct_bytes c)
  + (match q.q_norm with None -> 0 | Some c -> ct_bytes c)

(* Coefficient-packed plaintext for a point: p_j at coefficient j. *)
let packed_plaintext params point =
  let coeffs = Array.make params.Params.n 0L in
  Array.iteri (fun j v -> coeffs.(j) <- Int64.of_int v) point;
  Plaintext.of_coeffs params coeffs

(* Reversed query for the inner-product trick: constant term q_0, and
   -q_j at x^(n-j) for j >= 1, so that the constant coefficient of
   P(x)·Qrev(x) in Z_t[x]/(x^n+1) equals <p, q>. *)
let reversed_query_plaintext params query =
  let n = params.Params.n in
  let t = params.Params.t_plain in
  let coeffs = Array.make n 0L in
  Array.iteri
    (fun j v ->
      let v64 = Int64.of_int v in
      if j = 0 then coeffs.(0) <- Mod64.reduce t v64
      else coeffs.(n - j) <- Mod64.neg t (Mod64.reduce t v64))
    query;
  Plaintext.of_coeffs params coeffs

let squared_norm point = Array.fold_left (fun s v -> s + (v * v)) 0 point

(* Return-kNN's block layout on the packed paths: block b carries the
   [per] permuted positions b·per .. b·per + per − 1, and the point at
   offset o owns the [width] slots from o·width (its d coordinates
   first).  Party B lays out its indicators from [per] alone. *)
type block_layout = { per : int; width : int; count : int }

let points_per_block params ~d = Params.slot_count params / d

let block_layout params ~n ~per =
  { per; width = Params.slot_count params / per; count = (n + per - 1) / per }

let return_level config =
  Stdlib.min config.Config.return_level (Params.chain_length config.Config.bgv)

(* The packed paths' query level, a function of public parameters only
   (Noise_model.packed_query_level): the client encrypts there and
   Party A embeds its columns there.  [None] keeps the full chain. *)
let packed_drop config ~d =
  NM.packed_query_level config.Config.bgv.Params.noise ~return_level:(return_level config) ~d

let packed_query_level config ~d =
  match packed_drop config ~d with
  | Some lvl -> lvl
  | None -> Params.chain_length config.Config.bgv

(* How a round's masked distances reach Party B: one value per
   ciphertext at coefficient 0 (plain, dot-product layout), N values
   per ciphertext by coefficient (plain, per-coordinate layout) or by
   slot (the packed paths).  Value s of ciphertext b is permuted
   position b·per + s. *)
type masked_form = Scalars | Coeff_blocks | Slot_blocks

let masked_form config = function
  | Sknn_obs.Cost_model.Packed _ -> Slot_blocks
  | Sknn_obs.Cost_model.Plain -> (
    match config.Config.layout with
    | Config.Per_coordinate -> Coeff_blocks
    | Config.Dot_product -> Scalars)

(* The public bound Party A's mask charges for its leading coefficient. *)
let mask_lead_bits config ~d =
  Config.mask_lead_bits ~t_plain:config.Config.bgv.Params.t_plain
    ~max_coord_bits:config.Config.max_coord_bits ~d ~degree:config.Config.mask_degree
    ~coeff_bits:config.Config.mask_coeff_bits

(* ------------------------------------------------------------------ *)

module Data_owner = struct
  type t = { config : Config.t; keys : Bgv.keys }

  let create rng config = { config; keys = Bgv.keygen rng config.Config.bgv }
  let keys t = t.keys
  let config t = t.config

  (* Every coordinate, of a stored point or of a query, must fit the
     configured width; [what] names the offender in the error. *)
  let check_coords ~what config point =
    let bound = 1 lsl config.Config.max_coord_bits in
    Array.iter
      (fun v ->
        if v < 0 || v >= bound then
          invalid_arg
            (Printf.sprintf "%s %d outside [0, 2^%d) — preprocess the data \
                             (Preprocess.scale_to_max)"
               what v config.Config.max_coord_bits))
      point

  let validate_point config ~d point =
    if Array.length point <> d then invalid_arg "Data_owner.encrypt_db: ragged data";
    check_coords ~what:"Data_owner.encrypt_db: coordinate" config point

  let encrypt_db ?(obs = Obs.disabled) ?counters ?jobs rng t db =
    let config = t.config in
    let n_points = Array.length db in
    if n_points = 0 then invalid_arg "Data_owner.encrypt_db: empty database";
    let d = Array.length db.(0) in
    (match Config.validate config ~d with
     | Ok () -> ()
     | Error msg -> invalid_arg ("Data_owner.encrypt_db: " ^ msg));
    if d > config.Config.bgv.Params.n then
      invalid_arg "Data_owner.encrypt_db: dimension exceeds ring degree";
    Array.iter (validate_point config ~d) db;
    let params = config.Config.bgv in
    let pk = t.keys.Bgv.pk in
    let rngs = split_streams rng n_points in
    let span_counters =
      match counters with Some c -> [ ("data-owner", c) ] | None -> []
    in
    let points =
      Obs.with_span obs ~kind:Trace.Phase ~counters:span_counters
        ~args:[ ("points", string_of_int n_points) ]
        "encrypt-db"
        (fun () ->
          Obs.with_pool_chunks obs ~label:"encrypt-db" (fun () ->
              Pool.map_local ?jobs ~make:Counters.create
                ~merge:(fun w -> Option.iter (fun c -> merge_into c w) counters)
                ~f:(fun counters i point ->
                  let rng = rngs.(i) in
                  let enc pt = Bgv.encrypt ~counters rng pk pt in
                  let packed = enc (packed_plaintext params point) in
                  match config.Config.layout with
                  | Config.Per_coordinate ->
                    let coords =
                      Array.map
                        (fun v -> enc (Plaintext.constant params (Int64.of_int v)))
                        point
                    in
                    { coords = Some coords; packed; norm = None }
                  | Config.Dot_product ->
                    let norm =
                      enc (Plaintext.constant params (Int64.of_int (squared_norm point)))
                    in
                    { coords = None; packed; norm = Some norm })
                db))
    in
    { db_n = n_points; db_d = d; points }
end

(* ------------------------------------------------------------------ *)

module Party_a = struct
  type t = {
    config : Config.t;
    pk : Bgv.public_key;  (* floods the packed paths' Return-kNN results *)
    rlk : Bgv.relin_key;
    db : encrypted_db;
    counters : Counters.t;
    jobs : int;
  }

  let create ?jobs config pk rlk db =
    let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
    { config; pk; rlk; db; counters = Counters.create (); jobs }

  let counters t = t.counters
  let db_size t = t.db.db_n
  let jobs t = t.jobs

  (* A fresh masking polynomial, sound for d-dimensional distances. *)
  let draw_mask rng config ~d =
    Masking.draw rng ~t_plain:config.Config.bgv.Params.t_plain
      ~input_bits:
        (Config.max_distance_bits ~max_coord_bits:config.Config.max_coord_bits ~d)
      ~degree:config.Config.mask_degree ~coeff_bits:config.Config.mask_coeff_bits ()

  let require_affine fn config ~d ~what =
    match Config.affine_supported config ~d ~what with
    | Ok () -> ()
    | Error msg -> invalid_arg (fn ^ ": " ^ msg)

  let rlk_opt t = if t.config.Config.use_relin then Some t.rlk else None

  (* ED = sum_j (p'_j - q'_j)^2, Steps 2-4 of Algorithm 1, as one fused
     square-sum: the per-dimension squares are left unrescaled, and one
     rescale chain after the sum costs d-1 fewer modulus switches per
     point.  It runs on this point's worker; compute_distances already
     parallelises over points. *)
  let encrypted_distance t ~counters q_coords coords =
    let ed = Bgv.sum_sq_diff ~counters ?rlk:(rlk_opt t) coords q_coords in
    if t.config.Config.rescale_distances then Bgv.rescale_to_floor ~counters ed else ed

  (* A uniformly random polynomial with zero constant coefficient; added
     to masked inner-product distances to destroy the cross-term
     coefficients the inner-product trick leaves behind. *)
  let zero_constant_randomizer rng params =
    let t = params.Params.t_plain in
    let coeffs =
      Array.init params.Params.n (fun i -> if i = 0 then 0L else Rng.int64_below rng t)
    in
    Plaintext.of_coeffs params coeffs

  let masked_inner_product ~counters ?rlk config ~lead_bits ~coeffs rng ~norm ~packed
      (q_rev, q_norm) =
    (* ED = ||p||^2 - 2<p,q> + ||q||^2 in the constant coefficient; one
       ciphertext product per point. *)
    let ip = Bgv.mul ~counters ?rlk ~rescale:false packed q_rev in
    let ed =
      Bgv.sub ~counters (Bgv.add ~counters norm q_norm) (Bgv.mul_scalar ~counters ip 2L)
    in
    (* ED is one multiplication deep: the query arrives at its public
       level, so ED already sits there; any primes the affine mask still
       does not need go in one cheap truncation, so masking, transport
       and B's decryption all run on the small ciphertext.  If no level
       has the headroom, fall back to the configured rescale (which
       actually reduces the noise). *)
    let ed =
      match
        NM.distance_level config.Config.bgv.Params.noise ~return_level:(return_level config)
          ~level:(Bgv.level ed) ~bits:(Bgv.noise_bits ed)
      with
      | Some lvl -> Bgv.truncate_to_level ~counters ed lvl
      | None when config.Config.rescale_distances -> Bgv.rescale_to_floor ~counters ed
      | None -> ed
    in
    let m = Bgv.eval_poly ~counters ?rlk ~lead_bits ~coeffs ed in
    Bgv.add_plain ~counters m (zero_constant_randomizer rng config.Config.bgv)

  (* One masked round over the stored points, whatever the layout's
     circuit: the mask, one randomizer stream per point, [distance] on
     every point pool-parallel, then Π, drawn in that order.  Π also
     orders the stored packed points, Return kNN's operand. *)
  let masked_round ?(obs = Obs.disabled) t rng distance =
    let n = t.db.db_n and d = t.db.db_d in
    let coeffs =
      Masking.coeffs (Obs.with_span obs "draw-mask" (fun () -> draw_mask rng t.config ~d))
    in
    let lead_bits = mask_lead_bits t.config ~d in
    let rngs = split_streams rng n in
    let masked =
      Obs.with_span obs
        ~counters:[ ("party-a", t.counters) ]
        ~args:[ ("points", string_of_int n) ]
        "distance-batches"
        (fun () ->
          Obs.with_pool_chunks obs ~label:"distances" (fun () ->
              Pool.map_local ~jobs:t.jobs ~make:Counters.create
                ~merge:(merge_into t.counters)
                ~f:(fun counters i point -> distance ~counters ~lead_bits ~coeffs rngs.(i) point)
                t.db.points))
    in
    Obs.with_span obs "permute" (fun () ->
        let perm = Perm.random rng n in
        (Perm.apply perm (Array.map (fun p -> p.packed) t.db.points), Perm.apply perm masked))

  (* Each run of N permuted masked distances, each a constant
     polynomial, folds into one block Σₛ x^s·ct_{bN+s}: coefficient s
     of block b holds permuted position b·N + s, and the last block's
     coefficients past n hold nothing. *)
  let fold_blocks ?(obs = Obs.disabled) t masked =
    let n = t.db.db_n and per = t.config.Config.bgv.Params.n in
    let blocks = (n + per - 1) / per in
    Obs.with_span obs
      ~counters:[ ("party-a", t.counters) ]
      ~args:[ ("blocks", string_of_int blocks) ]
      "fold-blocks"
      (fun () ->
        Obs.with_pool_chunks obs ~label:"fold-blocks" (fun () ->
            Pool.map_local ~jobs:t.jobs ~make:Counters.create ~merge:(merge_into t.counters)
              ~f:(fun counters b () ->
                let base = b * per in
                Bgv.fold_monomials ~counters
                  (Array.sub masked base (Stdlib.min per (n - base))))
              (Array.make blocks ())))

  let compute_distances ?obs t rng query =
    let fn = "Party_a.compute_distances" in
    if query.q_dim <> t.db.db_d then invalid_arg (fn ^ ": dimension mismatch");
    match t.config.Config.layout, query.q_coords, query.q_rev, query.q_norm with
    | Config.Per_coordinate, Some q_coords, _, _ ->
      let points, masked =
        masked_round ?obs t rng (fun ~counters ~lead_bits ~coeffs _ point ->
            let ed = encrypted_distance t ~counters q_coords (Option.get point.coords) in
            Bgv.eval_poly ~counters ?rlk:(rlk_opt t) ~lead_bits ~coeffs ed)
      in
      (points, fold_blocks ?obs t masked)
    | Config.Dot_product, _, Some q_rev, Some q_norm ->
      (* The inner-product circuit against the norms the data owner
         shipped. *)
      masked_round ?obs t rng (fun ~counters ~lead_bits ~coeffs rng point ->
          masked_inner_product ~counters ?rlk:(rlk_opt t) t.config ~lead_bits ~coeffs rng
            ~norm:(Option.get point.norm) ~packed:point.packed (q_rev, q_norm))
    | _ -> invalid_arg (fn ^ ": layout/ciphertext mismatch")

  (* ---- Noise forecast ------------------------------------------- *)

  (* The headroom, in bits, under which the deploy-time guard warns. *)
  let noise_margin_bits = 4.0

  (* Worst-case headroom of a path's circuit, predicted from the
     parameter chain alone by the symbolic walk the planner also prunes
     with.  A negative forecast means a live query would raise
     Decryption_failure. *)
  let forecast_noise ~path t =
    (Attribution.predict ~margin_bits:noise_margin_bits t.config ~n:t.db.db_n ~d:t.db.db_d
       ~k:1 path)
      .Sknn_obs.Cost_model.noise

  (* The deploy-time guard: audit the forecast minimum, and warn (audit
     entry, flight event, stderr) when it falls below the margin. *)
  let guard_noise ?(obs = Obs.disabled) ~path t =
    let forecast = forecast_noise ~path t in
    Obs.audit obs ~party:"party-a" ~phase:"deploy" ~label:"noise-min-headroom-bits"
      (Audit.Float forecast.NM.min_headroom_bits);
    if forecast.NM.below_margin then begin
      Obs.audit obs ~party:"party-a" ~phase:"deploy"
        ~label:"noise-low-headroom-warning"
        (Audit.Str (Format.asprintf "%a" NM.pp_report forecast));
      Obs.warn obs ~name:"noise-low-headroom" ~x:forecast.NM.min_headroom_bits ();
      Format.eprintf
        "[sknn] warning: noise forecast predicts %.1f bits minimum headroom (margin \
         %.1f) — deepen the modulus chain or lower the circuit depth@."
        forecast.NM.min_headroom_bits noise_margin_bits
    end

  let select_row ?(obs = Obs.disabled) t points row =
    (* T^j = Π(P')·B^j summed: one encrypted point, not re-randomised
       (Bgv.mul_sum floods nothing; only return_blocks floods).  The
       inner product is fused and split across domains; Protocol.query_gen
       keeps the k rows sequential so parallelism is never nested.
       Bgv.mul_sum brings the stored points to the indicators' return
       level. *)
    Obs.with_pool_chunks obs ~label:"select-row" (fun () ->
        Bgv.mul_sum ~counters:t.counters ~jobs:t.jobs points row)

  (* ---- Slot-packed (SIMD) path ----------------------------------- *)

  (* The packed path models the outsourced-query setting (SANNS-style):
     Party A acts for the data owner and holds the database in the
     clear, dimension-major — column j is the n-vector of j-th
     coordinates, one slot per point — while the client's query stays
     encrypted.  A batch of N = slot_count points then costs d plain
     products plus adds instead of N ciphertext products, and Party B
     decrypts ceil(n/N) slot-packed ciphertexts.  B's §5 view (masked
     permuted distance multiset, n, k) is unchanged. *)
  type prepared_packed = {
    pp_cols : int64 array array;  (* pp_cols.(j).(i) = p_i(j) mod t *)
    pp_norms : int64 array;       (* ‖p_i‖² mod t *)
  }

  let prepare_packed t ~db =
    let config = t.config in
    let d = t.db.db_d and n = t.db.db_n in
    require_affine "Party_a.prepare_packed" config ~d ~what:"packed queries";
    if Array.length db <> n then
      invalid_arg "Party_a.prepare_packed: plaintext database size mismatch";
    Array.iter (Data_owner.validate_point config ~d) db;
    let tp = config.Config.bgv.Params.t_plain in
    { pp_cols =
        Array.init d (fun j ->
            Array.init n (fun i -> Mod64.reduce tp (Int64.of_int db.(i).(j))));
      pp_norms =
        Array.init n (fun i -> Mod64.reduce tp (Int64.of_int (squared_norm db.(i)))) }

  (* A query in broadcast-slot form, brought to the round's public
     level: one above it is truncated, one below it cannot be. *)
  let packed_query t ~d ~level query =
    let fn = "Party_a.compute_distances_packed" in
    if query.q_dim <> d then invalid_arg (fn ^ ": dimension mismatch");
    let cts =
      match query.q_coords, query.q_norm with
      | Some c, Some nr when Array.length c = d -> Array.append c [| nr |]
      | _ ->
        invalid_arg (fn ^ ": query lacks broadcast-slot form (use Client.encrypt_query_packed)")
    in
    let arrived = Bgv.level cts.(0) in
    if Array.exists (fun c -> Bgv.level c <> arrived) cts then
      invalid_arg (fn ^ ": query ciphertexts at differing levels");
    if arrived < level then invalid_arg (fn ^ ": query below the public query level");
    Array.map (fun c -> Bgv.truncate_to_level ~counters:t.counters c level) cts

  let compute_distances_packed ?(obs = Obs.disabled) t pp rng queries =
    let config = t.config in
    let params = config.Config.bgv in
    let d = t.db.db_d and n = t.db.db_n in
    let nq = Array.length queries in
    if nq = 0 then invalid_arg "Party_a.compute_distances_packed: no query";
    require_affine "Party_a.compute_distances_packed" config ~d ~what:"packed queries";
    if Array.length pp.pp_norms <> n || Array.length pp.pp_cols <> d then
      invalid_arg "Party_a.compute_distances_packed: prepared state mismatch";
    let drop = packed_drop config ~d in
    let level = packed_query_level config ~d in
    let queries = Array.map (packed_query t ~d ~level) queries in
    let slots = Params.slot_count params in
    let nbatches = (n + slots - 1) / slots in
    (* Each query's mask and batch streams, in query order, then the
       round's one Π: a round of one query draws exactly what a single
       packed query does.  Π is drawn before the homomorphic loop, since
       the columns must already be in permuted order when they are
       packed; repacking them per round (d+1 cheap slot NTTs per batch)
       keeps Π uniform over all n! choices with no Galois machinery. *)
    let secrets =
      Array.map
        (fun _ ->
          let coeffs =
            Masking.coeffs (Obs.with_span obs "draw-mask" (fun () -> draw_mask rng config ~d))
          in
          (coeffs, split_streams rng nbatches))
        queries
    in
    let perm = Obs.with_span obs "permute" (fun () -> Perm.random rng n) in
    let lead_bits = mask_lead_bits config ~d in
    (* Column j in Π-permuted order: position Π(i) holds p_i(j).
       Perm.apply is applied in full, not partially: the lint's flow
       pass binds a callee's parameters only at full applications. *)
    let cols_p = Array.map (fun col -> Perm.apply perm col) pp.pp_cols in
    let norms_p = Perm.apply perm pp.pp_norms in
    let masked =
      Obs.with_span obs
        ~counters:[ ("party-a", t.counters) ]
        ~args:[ ("points", string_of_int n); ("batches", string_of_int nbatches) ]
        "distance-batches"
        (fun () ->
          Obs.with_pool_chunks obs ~label:"packed-distances" (fun () ->
              Pool.map_local ~jobs:t.jobs ~make:Counters.create
                ~merge:(merge_into t.counters)
                ~f:(fun counters b () ->
                  let base = b * slots in
                  let len = Stdlib.min slots (n - base) in
                  (* Slot s of batch b holds point Π⁻¹(b·N + s).  The
                     batch's columns and norms are packed and embedded
                     once, at the query level, for every query of the
                     round. *)
                  let embed src =
                    let a = Array.make slots 0L in
                    Array.blit src base a 0 len;
                    Bgv.embed ~counters ~level (Plaintext.of_slots ~counters params a)
                  in
                  let ips =
                    Bgv.mul_plain_sums ~counters
                      (Array.map (fun q -> Array.sub q 0 d) queries)
                      (fun j -> embed cols_p.(j))
                  in
                  let norms = embed norms_p in
                  Array.mapi
                    (fun m (q, (coeffs, rngs)) ->
                      (* ED = ‖q‖² + ‖p‖² − 2⟨p,q⟩ slot-wise, then the
                         query's own affine mask. *)
                      let ip = ips.(m) in
                      let ed =
                        Bgv.sub ~counters
                          (Bgv.add_embedded ~counters q.(d) norms)
                          (Bgv.mul_scalar ~counters ip 2L)
                      in
                      let ed =
                        if drop = None && config.Config.rescale_distances then
                          Bgv.rescale_to_floor ~counters ed
                        else ed
                      in
                      let m = Bgv.eval_poly ~counters ?rlk:(rlk_opt t) ~lead_bits ~coeffs ed in
                      if len < slots then
                        (* Ragged tail: slots past the database carry
                           phantom points whose masked values would order
                           against the real ones; one uniform value per
                           dead slot makes them carry no information
                           before B discards them. *)
                        let tail =
                          Array.init slots (fun s ->
                              if s < len then 0L
                              else Rng.int64_below rngs.(b) params.Params.t_plain)
                        in
                        Bgv.add_plain ~counters m (Plaintext.of_slots ~counters params tail)
                      else m)
                    (Array.combine queries secrets))
                (Array.make nbatches ())))
    in
    (cols_p, Array.init nq (fun q -> Array.map (fun per_batch -> per_batch.(q)) masked))

  (* Return-kNN on the packed paths: Party A holds the plaintext points,
     so each of B's block indicators costs one plain product against
     the block of the round's Π-permuted columns it covers.  A point's
     d slots hold p_j + 1, so every selected point — an all-zero row
     included — decrypts non-zero in its first slot, and positions B
     left out decrypt to zero.  The product's noise carries the database and the
     indicator's encryption noise, so it is flooded with a width that
     depends on the parameters alone before it leaves A. *)
  let return_blocks ?(obs = Obs.disabled) t cols_p rng indicators =
    let params = t.config.Config.bgv in
    let d = t.db.db_d and n = t.db.db_n in
    let lay = block_layout params ~n ~per:(points_per_block params ~d) in
    if Array.length indicators <> lay.count then
      invalid_arg "Party_a.return_blocks: indicator count mismatch";
    let flood_bits = NM.flood_bits params.Params.noise in
    let rngs = split_streams rng lay.count in
    Obs.with_pool_chunks obs ~label:"select-row" (fun () ->
        Pool.map_local ~jobs:t.jobs ~make:Counters.create ~merge:(merge_into t.counters)
          ~f:(fun counters b ind ->
            let slots = Array.make (Params.slot_count params) 0L in
            for o = 0 to lay.per - 1 do
              let pos = (b * lay.per) + o in
              if pos < n then
                for j = 0 to d - 1 do
                  slots.((o * lay.width) + j) <- Int64.succ cols_p.(j).(pos)
                done
            done;
            let block = Plaintext.of_slots ~counters params slots in
            Bgv.rerandomize ~counters ~flood_bits rngs.(b) t.pk
              (Bgv.mul_plain ~counters ind block))
          indicators)
end

(* ------------------------------------------------------------------ *)

module Party_b = struct
  type t = {
    config : Config.t;
    sk : Bgv.secret_key;
    pk : Bgv.public_key;
    counters : Counters.t;
    jobs : int;
  }

  let create ?jobs config sk pk =
    let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
    { config; sk; pk; counters = Counters.create (); jobs }

  let counters t = t.counters

  type view = { masked_distances : int64 array; selected : int array }

  let select_neighbours ?(obs = Obs.disabled) t form cts ~n ~k =
    let fn = "Party_b.select_neighbours" in
    let params = t.config.Config.bgv in
    let per =
      match form with
      | Scalars -> 1
      | Coeff_blocks -> params.Params.n
      | Slot_blocks -> Params.slot_count params
    in
    if n < 1 then invalid_arg (fn ^ ": empty database");
    if Array.length cts <> (n + per - 1) / per then invalid_arg (fn ^ ": ciphertext count mismatch");
    if k < 1 || k > n then invalid_arg "Party_b: k out of range";
    (* The decrypt-and-select half runs sequentially on purpose: it
       handles secret-key material and masked plaintexts, and keeping it
       single-domain keeps B's trusted computing base minimal.  The scan
       itself is the O(n log k) heap replication of Algorithm 2's
       streaming max-replacement (Util.Topk). *)
    let masked =
      Obs.with_span obs
        ~counters:[ ("party-b", t.counters) ]
        ~args:
          [ ("points", string_of_int n); ("ciphertexts", string_of_int (Array.length cts)) ]
        "decrypt-distances"
        (fun () ->
          (* Unpack before any accounting: every downstream consumer
             (Topk, Leakage, the audit channel) must see the n
             per-point masked distances, never per-ciphertext
             aggregates.  A block's values past n were never computed
             and are dropped by position. *)
          let out = Array.make n 0L in
          let counters = t.counters in
          Array.iteri
            (fun b ct ->
              let values =
                match form with
                | Scalars -> [| Bgv.decrypt_coeff0 ~counters t.sk ct |]
                | Coeff_blocks -> Plaintext.to_coeffs (Bgv.decrypt ~counters t.sk ct)
                | Slot_blocks -> Plaintext.to_slots ~counters (Bgv.decrypt ~counters t.sk ct)
              in
              let base = b * per in
              Array.blit values 0 out base (Stdlib.min per (n - base)))
            cts;
          out)
    in
    Obs.with_span obs ~args:[ ("k", string_of_int k) ] "select-top-k" (fun () ->
        { masked_distances = masked; selected = Util.Topk.smallest ~k masked })

  let return_level t = return_level t.config

  let indicator_row ?(obs = Obs.disabled) t rng view ~n ~j =
    let params = t.config.Config.bgv in
    let level = return_level t in
    let sel = view.selected.(j) in
    let rngs = split_streams rng n in
    Obs.with_pool_chunks obs ~label:"indicator-row" (fun () ->
        Pool.map_local ~jobs:t.jobs ~make:Counters.create ~merge:(merge_into t.counters)
          ~f:(fun counters i rng ->
            let bit = if i = sel then 1L else 0L in
            Bgv.encrypt ~counters ~level rng t.pk (Plaintext.constant params bit))
          rngs)

  (* One k-hot indicator per block of [per] permuted positions: ones
     over every slot of each position selected in any of the round's
     views.  Every block is packed and encrypted the same way, selected
     or not, so B's work depends on n, N and [per] only. *)
  let block_indicators ?(obs = Obs.disabled) t rng views ~n ~per =
    let params = t.config.Config.bgv in
    let level = return_level t in
    let lay = block_layout params ~n ~per in
    let chosen = Array.make n 0L in
    Array.iter (fun v -> Array.iter (fun i -> chosen.(i) <- 1L) v.selected) views;
    let rngs = split_streams rng lay.count in
    Obs.with_pool_chunks obs ~label:"indicator-row" (fun () ->
        Pool.map_local ~jobs:t.jobs ~make:Counters.create ~merge:(merge_into t.counters)
          ~f:(fun counters b rng ->
            let slots = Array.make (Params.slot_count params) 0L in
            for o = 0 to lay.per - 1 do
              let pos = (b * lay.per) + o in
              if pos < n then Array.fill slots (o * lay.width) lay.width chosen.(pos)
            done;
            Bgv.encrypt ~counters ~level rng t.pk (Plaintext.of_slots ~counters params slots))
          rngs)
end

(* ------------------------------------------------------------------ *)

module Client = struct
  type t = {
    config : Config.t;
    sk : Bgv.secret_key;
    pk : Bgv.public_key;
    counters : Counters.t;
    jobs : int;
  }

  let create ?jobs config sk pk =
    let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
    { config; sk; pk; counters = Counters.create (); jobs }

  let counters t = t.counters

  (* Inner-product query form (reversed-packed query + encrypted norm):
     what the Dot_product layout sends, at its public level
     (Noise_model.inner_product_query_level), which the stored point and
     norm align down to.  [None] keeps the full chain. *)
  let encrypt_query_ip t rng query =
    let params = t.config.Config.bgv in
    let counters = t.counters in
    let d = Array.length query in
    if d > params.Params.n then
      invalid_arg "Client.encrypt_query: dimension exceeds ring degree";
    let level =
      Option.value ~default:(Params.chain_length params)
        (NM.inner_product_query_level params.Params.noise ~return_level:(return_level t.config))
    in
    let q_rev = Bgv.encrypt ~counters ~level rng t.pk (reversed_query_plaintext params query) in
    let q_norm =
      Bgv.encrypt ~counters ~level rng t.pk
        (Plaintext.constant params (Int64.of_int (squared_norm query)))
    in
    { q_coords = None; q_rev = Some q_rev; q_norm = Some q_norm; q_dim = d }

  let encrypt_query t rng query =
    let config = t.config in
    let params = config.Config.bgv in
    let counters = t.counters in
    let d = Array.length query in
    Data_owner.check_coords ~what:"Client.encrypt_query: query coordinate" config query;
    match config.Config.layout with
    | Config.Per_coordinate ->
      let q_coords =
        Array.map
          (fun v -> Bgv.encrypt ~counters rng t.pk (Plaintext.constant params (Int64.of_int v)))
          query
      in
      { q_coords = Some q_coords; q_rev = None; q_norm = None; q_dim = d }
    | Config.Dot_product -> encrypt_query_ip t rng query

  (* Broadcast-slot query form for the packed paths: d coordinate
     ciphertexts with the same value in every slot, plus ‖q‖²
     broadcast — still O(d) ciphertexts whatever the batch count —
     encrypted straight at the public level Party A computes at. *)
  let encrypt_query_packed t rng query =
    let config = t.config in
    let params = config.Config.bgv in
    let counters = t.counters in
    let d = Array.length query in
    Data_owner.check_coords ~what:"Client.encrypt_query_packed: query coordinate" config query;
    if d > params.Params.n then
      invalid_arg "Client.encrypt_query_packed: dimension exceeds ring degree";
    let level = packed_query_level config ~d in
    let enc v = Bgv.encrypt ~counters ~level rng t.pk (Plaintext.constant params (Int64.of_int v)) in
    let q_coords = Array.map enc query in
    let q_norm = enc (squared_norm query) in
    { q_coords = Some q_coords; q_rev = None; q_norm = Some q_norm; q_dim = d }

  (* Every block the client receives decrypts to its points, p_j + 1 in
     each selected position's slots and zero elsewhere. *)
  let decrypt_blocks ?(obs = Obs.disabled) t ~d cts =
    let params = t.config.Config.bgv in
    let per = points_per_block params ~d in
    let lay = block_layout params ~n:(per * Array.length cts) ~per in
    let decoded =
      Obs.with_pool_chunks obs ~label:"decrypt-result" (fun () ->
          Pool.map_local ~jobs:t.jobs ~make:Counters.create ~merge:(merge_into t.counters)
            ~f:(fun counters _ ct ->
              let s = Plaintext.to_slots ~counters (Bgv.decrypt ~counters t.sk ct) in
              List.filter_map
                (fun o ->
                  let base = o * lay.width in
                  if Int64.equal s.(base) 0L then None
                  else Some (Array.init d (fun j -> Int64.to_int s.(base + j) - 1)))
                (List.init per Fun.id))
            cts)
    in
    Array.of_list (List.concat (Array.to_list decoded))

  (* The client ranks the decoded points against its own query in the
     clear. *)
  let nearest ~k ~query points =
    Array.map (fun i -> points.(i)) (Plain_knn.knn ~k ~query points)

  let decrypt_points ?(obs = Obs.disabled) t ~d cts =
    Obs.with_pool_chunks obs ~label:"decrypt-result" (fun () ->
        Pool.map_local ~jobs:t.jobs ~make:Counters.create ~merge:(merge_into t.counters)
          ~f:(fun counters _ ct ->
            let pt = Bgv.decrypt ~counters t.sk ct in
            let coeffs = Plaintext.to_coeffs pt in
            Array.init d (fun j -> Int64.to_int coeffs.(j)))
          cts)
end
