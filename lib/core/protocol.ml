module Rng = Util.Rng
module Counters = Util.Counters
module Obs = Sknn_obs.Ctx
module Otrace = Sknn_obs.Trace
module Audit = Sknn_obs.Audit
module Metrics = Sknn_obs.Metrics
module CM = Sknn_obs.Cost_model

type deployment = {
  config : Config.t;
  db_n : int;
  db_d : int;
  a : Entities.Party_a.t;
  b : Entities.Party_b.t;
  cl : Entities.Client.t;
  packed : (Entities.Party_a.prepared_packed, string) result;
      (* Party A's plaintext layout for packed queries, which model A as
         the data owner's delegate (SANNS-style outsourced queries), or
         why the configuration admits none *)
  setup_transcript : Transcript.t;
  query_seed : Rng.t; (* source of per-query randomness *)
  jobs : int;
}

let config d = d.config
let db_size d = d.db_n
let dimension d = d.db_d
let setup_transcript d = d.setup_transcript
let party_a d = d.a
let party_b d = d.b
let client d = d.cl
let jobs d = d.jobs

let pk_bytes config =
  (* Two ring elements at the full chain, 4 bytes per residue. *)
  let p = config.Config.bgv in
  2 * Params.chain_length p * p.Params.n * 4

(* Fold a finished transcript into the per-party counters: every entry's
   bytes to its sender, and each link's round count to both endpoints.
   This is what makes [Counters.rounds]/[bytes_sent] report measured
   values instead of staying at zero. *)
let tally_transcript tr counter_of =
  List.iter
    (fun (e : Transcript.entry) ->
      match counter_of e.Transcript.sender with
      | None -> ()
      | Some c -> Counters.record c (Counters.Bytes_sent e.Transcript.bytes))
    (Transcript.entries tr);
  List.iter
    (fun ((x, y), _) ->
      let r = Transcript.rounds tr x y in
      let add p = match counter_of p with
        | None -> ()
        | Some c -> Counters.record_n c Counters.Round r
      in
      add x; add y)
    (Transcript.links tr)

(* Record a transcript entry and mirror it into the flight recorder, so
   a post-mortem dump shows the link traffic leading up to a failure.
   With a clock cursor (a --net run) the flight event also carries the
   message's transcript seq and virtual arrival time; stepping the
   cursor in send order reproduces Clock.replay of the final transcript
   exactly. *)
let send_tracked ?clock obs tr ~sender ~receiver ~label ~bytes =
  Transcript.send tr ~sender ~receiver ~label ~bytes;
  let sender_n = Transcript.party_name sender in
  let receiver_n = Transcript.party_name receiver in
  match clock with
  | None -> Obs.record_send obs ~sender:sender_n ~receiver:receiver_n ~bytes ()
  | Some c ->
    let _departure, arrival = Clock.step c ~sender ~receiver ~bytes in
    Obs.record_send obs
      ~seq:(Transcript.messages tr - 1)
      ~arrival_s:arrival ~sender:sender_n ~receiver:receiver_n ~bytes ()

let deploy ?(obs = Obs.disabled) ?rng ?counters ?jobs config ~db =
  let rng = match rng with Some r -> r | None -> Rng.of_int 0x5ecdb in
  let jobs = match jobs with Some j -> j | None -> Util.Pool.default_jobs () in
  let owner =
    Obs.with_span obs ~kind:Otrace.Phase "keygen" (fun () ->
        Entities.Data_owner.create (Rng.split rng) config)
  in
  let enc_db =
    Entities.Data_owner.encrypt_db ~obs ?counters ~jobs (Rng.split rng) owner db
  in
  let keys = Entities.Data_owner.keys owner in
  let a = Entities.Party_a.create ~jobs config keys.Bgv.pk keys.Bgv.rlk enc_db in
  (* Laying the database out for packed queries, and the noise guard
     for their circuit, are set-up work. *)
  let packed =
    Result.map
      (fun () -> Entities.Party_a.prepare_packed a ~db)
      (Config.affine_supported config ~d:enc_db.Entities.db_d ~what:"packed queries")
  in
  if Result.is_ok packed then Entities.Party_a.guard_noise ~obs ~path:(CM.Packed 1) a;
  let b = Entities.Party_b.create ~jobs config keys.Bgv.sk keys.Bgv.pk in
  let cl = Entities.Client.create ~jobs config keys.Bgv.sk keys.Bgv.pk in
  let tr = Transcript.create () in
  let open Transcript in
  send_tracked obs tr ~sender:Data_owner ~receiver:Party_a ~label:"public key"
    ~bytes:(pk_bytes config);
  send_tracked obs tr ~sender:Data_owner ~receiver:Party_a ~label:"encrypted database"
    ~bytes:(Entities.db_bytes enc_db);
  send_tracked obs tr ~sender:Data_owner ~receiver:Party_b ~label:"secret + public key"
    ~bytes:(config.Config.bgv.Params.n + pk_bytes config);
  send_tracked obs tr ~sender:Data_owner ~receiver:Client ~label:"secret + public key"
    ~bytes:(config.Config.bgv.Params.n + pk_bytes config);
  tally_transcript tr (function
    | Transcript.Data_owner -> counters
    | _ -> None);
  { config;
    db_n = enc_db.Entities.db_n;
    db_d = enc_db.Entities.db_d;
    a; b; cl; packed;
    setup_transcript = tr;
    query_seed = Rng.split rng;
    jobs }

(* Party A's packed layout; on a configuration that admits no packed
   queries, the error Party_a.prepare_packed raises there. *)
let packed_layout d =
  match d.packed with
  | Ok p -> p
  | Error msg -> invalid_arg ("Party_a.prepare_packed: " ^ msg)

type result = {
  neighbours : int array array;
  k : int;
  phase_seconds : (string * float) list;
  transcript : Transcript.t;
  counters_a : Util.Counters.t;
  counters_b : Util.Counters.t;
  counters_client : Util.Counters.t;
  view_b : Entities.Party_b.view;
  net : Clock.timeline option;
}

(* Post-query network accounting for a --net run: replay the finished
   transcript into a virtual timeline, export the per-link figures as
   sknn_link_* metric families, and hand the trace one wire event per
   message for the virtual-network lanes. *)
let observe_net obs tr = function
  | None -> None
  | Some prof ->
    let tl = Clock.replay prof tr in
    (match Obs.metrics obs with
     | None -> ()
     | Some m ->
       List.iter
         (fun (l : Clock.link) ->
           let key =
             Printf.sprintf "link.%s-%s" (Transcript.party_name l.Clock.link_a)
               (Transcript.party_name l.Clock.link_b)
           in
           Metrics.set (Metrics.gauge m (key ^ ".busy_seconds")) l.Clock.busy_s;
           Metrics.inc ~by:l.Clock.link_rounds (Metrics.counter m (key ^ ".rounds")))
         tl.Clock.links;
       Metrics.set (Metrics.gauge m "net.end_to_end_seconds") tl.Clock.end_to_end_s);
    let trace = Obs.trace obs in
    if Otrace.is_enabled trace then
      List.iter
        (fun (msg : Clock.message) ->
          let e = msg.Clock.entry in
          let x, y =
            if e.Transcript.sender < e.Transcript.receiver then
              (e.Transcript.sender, e.Transcript.receiver)
            else (e.Transcript.receiver, e.Transcript.sender)
          in
          Otrace.add_wire trace
            ~link:(Transcript.party_name x ^ "<->" ^ Transcript.party_name y)
            ~label:e.Transcript.label
            ~args:
              [ ("seq", string_of_int e.Transcript.seq);
                ("from", Transcript.party_name e.Transcript.sender);
                ("to", Transcript.party_name e.Transcript.receiver);
                ("bytes", string_of_int e.Transcript.bytes) ]
            ~start:msg.Clock.departure_s
            ~dur:(msg.Clock.arrival_s -. msg.Clock.departure_s)
            ())
        tl.Clock.messages;
    Some tl

let timed obs phases ?counters name f =
  (* The watched counters name the parties at work, which the chrome
     trace sink turns into per-party lanes. *)
  let args =
    match counters with
    | None | Some [] -> []
    | Some cs -> [ ("party", String.concat "+" (List.map fst cs)) ]
  in
  Obs.with_span obs ~kind:Otrace.Phase ?counters ~args name (fun () ->
      let x, dt = Util.Timer.time f in
      phases := (name, dt) :: !phases;
      Obs.observe_phase obs name dt;
      x)

(* Sample chain level and noise-budget headroom of a ciphertext batch
   into the metrics registry (stride keeps it O(16) per batch).  Runs in
   the orchestrating domain only, after the batch is complete. *)
let level_buckets = [| 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 8.0 |]
let noise_buckets = [| 0.0; 8.0; 16.0; 24.0; 32.0; 48.0; 64.0; 96.0; 128.0 |]

let sample_cts obs ~name cts =
  let m = Obs.metrics obs in
  let flight_on = Option.is_some (Obs.flight obs) in
  let n = Array.length cts in
  if n > 0 && (Option.is_some m || flight_on) then begin
    let hists =
      Option.map
        (fun m ->
          ( Metrics.histogram ~buckets:level_buckets m ("bgv." ^ name ^ ".level"),
            Metrics.histogram ~buckets:noise_buckets m ("bgv." ^ name ^ ".noise_budget_bits")
          ))
        m
    in
    let stride = Stdlib.max 1 (n / 16) in
    let min_budget = ref infinity in
    let i = ref 0 in
    while !i < n do
      let level = Bgv.level cts.(!i) in
      let budget = Bgv.noise_budget_bits cts.(!i) in
      if budget < !min_budget then min_budget := budget;
      (match hists with
       | None -> ()
       | Some (h_lvl, h_nb) ->
         Metrics.observe h_lvl (float_of_int level);
         Metrics.observe h_nb budget);
      Obs.observe_noise obs ~name ~level ~budget_bits:budget;
      i := !i + stride
    done;
    match m with
    | None -> ()
    | Some m ->
      (* Per-phase headroom gauge: the tightest sampled budget this
         batch, the number a dashboard alerts on. *)
      Metrics.set (Metrics.gauge m ("bgv." ^ name ^ ".min_noise_budget_bits")) !min_budget
  end

let cts_bytes cts = Array.fold_left (fun s ct -> s + Bgv.byte_size ct) 0 cts

(* Return kNN's operand, which Compute Distances hands over: the
   round's Π(P'), which only ciphertexts hold on the plain path and
   Party A folds into the blocks B's monomial indicators select from;
   or, where A holds the plaintext points (packed), their columns in Π
   order, whose blocks B's slot indicators multiply. *)
type return_knn =
  | Points of Bgv.ct array
  | Columns of int64 array array

let query_ct_count (q : Entities.encrypted_query) =
  (match q.Entities.q_coords with None -> 0 | Some a -> Array.length a)
  + (match q.Entities.q_rev with None -> 0 | Some _ -> 1)
  + (match q.Entities.q_norm with None -> 0 | Some _ -> 1)

(* One protocol round on [path]: every path runs the same five phases
   and sends, and differs only in the query form, Party A's distance
   circuit and Party B's unpacking.  [queries] holds the round's queries
   (exactly one except on [Packed _]); the phase list, transcript and
   counters describe the whole round and are shared by the results;
   neighbours and views are per query. *)
let query_gen ~path ?(obs = Obs.disabled) ?rng ?net d ~queries ~k =
  let fn = "Protocol.query" in
  let rng = match rng with Some r -> r | None -> Rng.split d.query_seed in
  let m = Array.length queries in
  (match path with
   | CM.Packed _ -> if m = 0 then invalid_arg (fn ^ ": empty batch")
   | CM.Plain ->
     if m <> 1 then invalid_arg (fn ^ ": only the packed path takes several queries"));
  if Array.exists (fun q -> Array.length q <> d.db_d) queries then
    invalid_arg (fn ^ ": dimension mismatch");
  if k < 1 || k > d.db_n then invalid_arg (fn ^ ": k out of range");
  let per = Entities.points_per_block d.config.Config.bgv ~d:d.db_d in
  (* A chain too short to flood the plain results fails here, before
     any work. *)
  if path = CM.Plain then ignore (Entities.monomial_level d.config ~n:d.db_n ~per);
  let ca = Entities.Party_a.counters d.a in
  let cb = Entities.Party_b.counters d.b in
  let cc = Entities.Client.counters d.cl in
  Counters.reset ca;
  Counters.reset cb;
  Counters.reset cc;
  let tr = Transcript.create () in
  let clock = Option.map Clock.cursor net in
  let send = send_tracked ?clock obs tr in
  let phases = ref [] in
  let encrypt f = timed obs phases ~counters:[ ("client", cc) ] "encrypt-query" f in
  let send_queries qs =
    let total f = Array.fold_left (fun acc q -> acc + f q) 0 qs in
    let bytes = total Entities.query_bytes in
    send ~sender:Transcript.Client ~receiver:Transcript.Party_a ~label:"encrypted query"
      ~bytes;
    Obs.audit obs ~party:"party-a" ~phase:"compute-distances" ~label:"query-ciphertexts"
      (Audit.Int (total query_ct_count));
    Obs.audit obs ~party:"party-a" ~phase:"compute-distances" ~label:"query-bytes"
      (Audit.Int bytes)
  in
  (* Client: encrypt the round's queries in the path's form and send
     them to Party A in one message (label 4, Fig. 2).  Each arm returns
     Party A's Compute Distances over them, which yields one array of
     masked ciphertexts per query and Return kNN's operand. *)
  let compute_distances =
    match path with
    | CM.Plain ->
      let q = encrypt (fun () -> Entities.Client.encrypt_query d.cl rng queries.(0)) in
      send_queries [| q |];
      fun () ->
        let points, masked = Entities.Party_a.compute_distances ~obs d.a rng q in
        ([| masked |], Points points)
    | CM.Packed _ ->
      let p = packed_layout d in
      let qs =
        encrypt (fun () -> Array.map (Entities.Client.encrypt_query_packed d.cl rng) queries)
      in
      send_queries qs;
      fun () ->
        let cols, masked = Entities.Party_a.compute_distances_packed ~obs d.a p rng qs in
        (masked, Columns cols)
  in
  (* Party A: Compute Distances (Algorithm 1). *)
  let masked, return_knn =
    timed obs phases ~counters:[ ("party-a", ca) ] "compute-distances" compute_distances
  in
  let all_masked = Array.concat (Array.to_list masked) in
  sample_cts obs ~name:"masked-distance" all_masked;
  send ~sender:Transcript.Party_a ~receiver:Transcript.Party_b
    ~label:"masked permuted distances" ~bytes:(cts_bytes all_masked);
  (* Party B: Find Neighbours (Algorithm 2), one view per query. *)
  let form = Entities.masked_form d.config path in
  let views =
    timed obs phases ~counters:[ ("party-b", cb) ] "find-neighbours" (fun () ->
        Array.map
          (fun masked -> Entities.Party_b.select_neighbours ~obs d.b form masked ~n:d.db_n ~k)
          masked)
  in
  Obs.audit obs ~party:"party-b" ~phase:"find-neighbours" ~label:"n" (Audit.Int d.db_n);
  Obs.audit obs ~party:"party-b" ~phase:"find-neighbours" ~label:"k" (Audit.Int k);
  (match return_knn with
   | Columns _ ->
     (* B learns how many queries share the round's permutation (it
        counts the masked ciphertexts it receives), and can align
        positions across their views. *)
     Obs.audit obs ~party:"party-b" ~phase:"find-neighbours" ~label:"batch-query-count"
       (Audit.Int m)
   | Points _ -> ());
  Array.iter
    (fun view ->
      Obs.audit obs ~party:"party-b" ~phase:"find-neighbours"
        ~label:"masked-distance-multiset"
        (Audit.Int64s (Leakage.view_multiset view));
      Obs.audit obs ~party:"party-b" ~phase:"find-neighbours"
        ~label:"equidistant-group-sizes"
        (Audit.Ints (Leakage.equidistant_group_sizes view)))
    views;
  (* Return kNN (Algorithm 3), by blocks of ⌊N/d⌋ permuted positions
     on every path: B's indicators cross in one message, and A returns
     flooded results.  On the plain path B sends k monomial indicators
     per block and A returns one point per neighbour; on the packed
     path one slot indicator per block and A one block each. *)
  (* B's indicators cross to A in one message; A sees their count and
     size.  A helper takes them as a parameter, so no binding of this
     function holds a value the per-file taint rule derives from B's
     view. *)
  let received = ref 0 and indicator_bytes = ref 0 in
  let receive cts =
    let bytes = cts_bytes cts in
    received := Array.length cts;
    indicator_bytes := bytes;
    send ~sender:Transcript.Party_b ~receiver:Transcript.Party_a ~label:"indicator blocks"
      ~bytes
  in
  let results =
    timed obs phases
      ~counters:[ ("party-a", ca); ("party-b", cb) ]
      "return-knn"
      (fun () ->
        (* B lays its indicators out from ⌊N/d⌋: the one observable the
           block layout adds to its view. *)
        Obs.audit obs ~party:"party-b" ~phase:"return-knn" ~label:"points-per-block"
          (Audit.Int per);
        let indicators =
          Obs.with_span obs ~counters:[ ("party-b", cb) ] "indicator-blocks" (fun () ->
              match return_knn with
              | Points _ ->
                Entities.Party_b.monomial_indicators ~obs d.b rng views.(0) ~n:d.db_n ~per
              | Columns _ ->
                [| Entities.Party_b.block_indicators ~obs d.b rng views ~n:d.db_n ~per |])
        in
        receive (Array.concat (Array.to_list indicators));
        Obs.with_span obs ~counters:[ ("party-a", ca) ] "select-blocks" (fun () ->
            match return_knn with
            | Points points -> Entities.Party_a.return_monomials ~obs d.a points rng indicators
            | Columns cols -> Entities.Party_a.return_blocks ~obs d.a cols rng indicators.(0)))
  in
  sample_cts obs ~name:"result" results;
  Obs.audit obs ~party:"party-a" ~phase:"return-knn" ~label:"indicator-ciphertexts"
    (Audit.Int !received);
  Obs.audit obs ~party:"party-a" ~phase:"return-knn" ~label:"indicator-bytes"
    (Audit.Int !indicator_bytes);
  send ~sender:Transcript.Party_a ~receiver:Transcript.Client
    ~label:"encrypted k-NN result" ~bytes:(cts_bytes results);
  let neighbours =
    timed obs phases ~counters:[ ("client", cc) ] "decrypt-result" (fun () ->
        let points =
          match return_knn with
          | Points _ -> Entities.Client.decrypt_points ~obs d.cl ~d:d.db_d results
          | Columns _ -> Entities.Client.decrypt_blocks ~obs d.cl ~d:d.db_d results
        in
        Obs.audit obs ~party:"client" ~phase:"decrypt-result" ~label:"result-points"
          (Audit.Int (Array.length points));
        match return_knn with
        | Points _ -> [| points |]
        | Columns _ ->
          Array.map (fun query -> Entities.Client.nearest ~k ~query points) queries)
  in
  Obs.audit obs ~party:"client" ~phase:"decrypt-result" ~label:"neighbour-count"
    (Audit.Int k);
  tally_transcript tr (function
    | Transcript.Party_a -> Some ca
    | Transcript.Party_b -> Some cb
    | Transcript.Client -> Some cc
    | Transcript.Data_owner -> None);
  (match Obs.metrics obs with
   | None -> ()
   | Some reg ->
     List.iter
       (fun ((x, y), bytes) ->
         Metrics.set
           (Metrics.gauge reg
              (Printf.sprintf "transcript.%s-%s.bytes" (Transcript.party_name x)
                 (Transcript.party_name y)))
           (float_of_int bytes))
       (Transcript.links tr);
     List.iter
       (fun (party, c) -> Metrics.record_ledger reg ~party c)
       [ ("party-a", ca); ("party-b", cb); ("client", cc) ]);
  let net_timeline = observe_net obs tr net in
  let phase_seconds = List.rev !phases in
  Array.mapi
    (fun q view ->
      { neighbours = neighbours.(q);
        k;
        phase_seconds;
        transcript = tr;
        counters_a = ca;
        counters_b = cb;
        counters_client = cc;
        view_b = view;
        net = net_timeline })
    views

let query ?obs ?rng ?net d ~query ~k =
  (query_gen ~path:CM.Plain ?obs ?rng ?net d ~queries:[| query |] ~k).(0)

let query_packed ?obs ?rng ?net d ~query ~k =
  (query_gen ~path:(CM.Packed 1) ?obs ?rng ?net d ~queries:[| query |] ~k).(0)

let query_batch ?obs ?rng ?net d ~queries ~k =
  query_gen ~path:(CM.Packed (Array.length queries)) ?obs ?rng ?net d ~queries ~k

let prepare_packed ?obs d =
  ignore (packed_layout d);
  Entities.Party_a.guard_noise ?obs ~path:(CM.Packed 1) d.a

let total_seconds r = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 r.phase_seconds

let exact d ~db ~query:q r =
  ignore d;
  let expected = Plain_knn.kth_smallest_distances ~k:r.k ~query:q db in
  let got = Array.map (fun p -> Distance.squared_euclidean q p) r.neighbours in
  Array.sort Int.compare got;
  expected = got
