(* Planner property tests (DESIGN §5b).

   The contract under test:
   - a planner-returned parameter set is live-sound: realized, it
     answers a toy-sized query exactly;
   - the noise report of the symbolic walk is sound and tight: on every
     path and preset, no live tracked noise budget dips below its
     minimum, and the masked distances sit within one bounded scalar's
     width of it;
   - planning is deterministic: the same spec yields the byte-identical
     plan, in whichever domain it runs;
   - every ranked entry clears the noise margin and the security floor
     it was searched under;
   - the Attribution bridge prices probes and realized sets identically
     (q_ibits_of_moduli = Zint bit lengths of Rq.modulus prefixes). *)

module NM = Util.Noise_model
module CM = Sknn_obs.Cost_model
module Rng = Util.Rng

(* A flat unit model: every op kind costs the same per work unit.  The
   planner only needs relative prices, and the tests only need
   determinism and feasibility, not wall-clock fidelity. *)
let unit_model = { CM.scales = Array.make Util.Counters.num_ops 1e-9 }

let toy_workload ?(layout = Config.Per_coordinate) ?(path = CM.Packed) () =
  Planner.workload ~layout ~path ~points:24 ~dim:3 ~k:3 ~coord_bits:4 ()

let plan_toy ?(limits = Planner.default_constraints) ?layout ?path () =
  Planner.plan ~unit_model (toy_workload ?layout ?path ()) limits

let best_exn outcome =
  match Planner.best outcome with
  | Some e -> e
  | None -> Alcotest.fail "planner found no feasible candidate at the toy shape"

(* ------------------------------------------------------------------ *)
(* Ranked entries clear the limits they were searched under            *)
(* ------------------------------------------------------------------ *)

let test_entries_clear_limits () =
  let limits =
    { Planner.min_security_bits = 10.0; noise_margin_bits = 6.0;
      objective = Planner.Steady_state; net = None }
  in
  let o = plan_toy ~limits () in
  Alcotest.(check bool) "found candidates" true (o.Planner.ranked <> []);
  List.iter
    (fun e ->
      Alcotest.(check bool) "headroom clears the margin" true
        (e.Planner.min_headroom_bits >= limits.Planner.noise_margin_bits);
      Alcotest.(check bool) "security clears the floor" true
        (e.Planner.security_bits >= limits.Planner.min_security_bits);
      Alcotest.(check bool) "positive predicted times" true
        (e.Planner.first_seconds > 0.0 && e.Planner.steady_seconds > 0.0
         && e.Planner.steady_seconds <= e.Planner.first_seconds +. 1e-12))
    o.Planner.ranked;
  (* Ranking is ascending in the objective. *)
  let rec ascending = function
    | a :: (b :: _ as rest) ->
      a.Planner.objective_seconds <= b.Planner.objective_seconds +. 1e-15
      && ascending rest
    | _ -> true
  in
  Alcotest.(check bool) "ranked ascending" true (ascending o.Planner.ranked);
  (* Tightening the security floor only removes candidates. *)
  let tighter = plan_toy ~limits:{ limits with Planner.min_security_bits = 25.0 } () in
  Alcotest.(check bool) "tighter floor keeps no cheaper winner" true
    (match (Planner.best tighter, Planner.best o) with
     | None, _ -> true
     | Some t, Some b ->
       t.Planner.objective_seconds >= b.Planner.objective_seconds -. 1e-15
     | Some _, None -> false);
  List.iter
    (fun e ->
      Alcotest.(check bool) "tighter floor respected" true
        (e.Planner.security_bits >= 25.0))
    tighter.Planner.ranked

(* ------------------------------------------------------------------ *)
(* Live round trip: a planner pick answers a toy query exactly         *)
(* ------------------------------------------------------------------ *)

let toy_db seed = Synthetic.uniform (Rng.of_int seed) ~n:24 ~d:3 ~max_value:15

let test_roundtrip_exact () =
  List.iter
    (fun (label, layout, path, query) ->
      let w = toy_workload ~layout ~path () in
      let o = Planner.plan ~unit_model w Planner.default_constraints in
      let best = best_exn o in
      let config = Planner.realize w best in
      (match Config.validate config ~d:3 with
       | Ok () -> ()
       | Error e -> Alcotest.failf "%s: realized config invalid: %s" label e);
      let db = toy_db 42 in
      let q = Synthetic.query_like (Rng.of_int 43) db in
      let dep = Protocol.deploy ~rng:(Rng.of_int 44) ~jobs:1 config ~db in
      let r = query dep q in
      Alcotest.(check bool) (label ^ ": exact neighbours") true
        (Protocol.exact dep ~db ~query:q r))
    [ ( "packed", Config.Per_coordinate, CM.Packed,
        fun dep q -> Protocol.query_packed dep ~query:q ~k:3 );
      ( "prepared", Config.Dot_product, CM.Prepared,
        fun dep q -> Protocol.query_prepared dep ~query:q ~k:3 );
      ( "plain per-coordinate", Config.Per_coordinate, CM.Plain,
        fun dep q -> Protocol.query dep ~query:q ~k:3 ) ]

(* ------------------------------------------------------------------ *)
(* Forecast: sound and tight against the live gauges, on every path    *)
(* ------------------------------------------------------------------ *)

let min_budget_gauges metrics =
  let suffix = ".min_noise_budget_bits" in
  List.filter_map
    (fun name ->
      if Filename.check_suffix name suffix then
        Option.map
          (fun v -> (name, v))
          (Sknn_obs.Metrics.gauge_value (Sknn_obs.Metrics.gauge metrics name))
      else None)
    (Sknn_obs.Metrics.names metrics)

(* Run [path] live on [config] and hold its noise report to the gauges.
   Every live ciphertext the protocol samples sits at some state of the
   walked circuit, where the walk holds a worst-case bound: each live
   budget is at least the report's minimum (sound).  Party A charges
   the mask's leading coefficient at the public bound the walk charges,
   so at the masked distances the live budget equals the walk's
   masked-distance step (tight), degree-2 mask included. *)
let check_forecast label config ~n ~d path =
  let k = 3 in
  let metrics = Sknn_obs.Metrics.create () in
  let obs = Sknn_obs.Ctx.create ~metrics () in
  let max_value = (1 lsl config.Config.max_coord_bits) - 1 in
  let db = Synthetic.uniform (Rng.of_int 7) ~n ~d ~max_value in
  let rng = Rng.of_int 8 in
  let m = match path with CM.Batch m -> m | _ -> 1 in
  let queries = Array.init m (fun _ -> Synthetic.query_like rng db) in
  let dep = Protocol.deploy ~rng:(Rng.of_int 9) ~jobs:1 config ~db in
  let results = Protocol.query_gen ~path ~obs dep ~queries ~k in
  Array.iteri
    (fun i r ->
      Alcotest.(check bool) (label ^ ": exact") true
        (Protocol.exact dep ~db ~query:queries.(i) r))
    results;
  let report = (Attribution.predict config ~n ~d ~k path).CM.noise in
  let gauges = min_budget_gauges metrics in
  Alcotest.(check bool) (label ^ ": sampled the phase gauges") true
    (List.length gauges >= 2);
  List.iter
    (fun (name, live) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s live %.2f >= forecast min %.2f" label name live
           report.NM.min_headroom_bits)
        true
        (live >= report.NM.min_headroom_bits -. 1e-6))
    gauges;
  let step =
    match List.find_opt (fun s -> s.NM.op = "masked-distance") report.NM.steps with
    | Some s -> s
    | None -> Alcotest.failf "%s: no masked-distance step in the report" label
  in
  let live = List.assoc "bgv.masked-distance.min_noise_budget_bits" gauges in
  Alcotest.(check (float 0.0)) (label ^ ": live masked = forecast") step.NM.s_headroom live

let test_forecast_conservative () =
  let fast = Config.fast () and standard = Config.standard () in
  let affine = Config.with_mask_degree 1 standard in
  List.iter
    (fun (name, config, n, d, paths) ->
      List.iter
        (fun path ->
          check_forecast (name ^ "/" ^ Planner.path_name path) config ~n ~d path)
        paths)
    [ ("fast", fast, 8, 3, [ CM.Plain; CM.Prepared; CM.Packed; CM.Batch 3 ]);
      ("standard", standard, 64, 32, [ CM.Plain ]);
      ("standard+affine", affine, 64, 32, [ CM.Plain; CM.Prepared; CM.Packed; CM.Batch 3 ]) ];
  (* A planner pick: the live guard walks the circuit the planner pruned
     with, so the entry's headroom is the realized walk's minimum. *)
  let w = toy_workload ~path:CM.Packed () in
  let best = best_exn (Planner.plan ~unit_model w Planner.default_constraints) in
  let config = Planner.realize w best in
  let report = (Attribution.predict config ~n:24 ~d:3 ~k:3 CM.Packed).CM.noise in
  Alcotest.(check (float 1e-9)) "entry headroom = realized forecast"
    best.Planner.min_headroom_bits report.NM.min_headroom_bits;
  check_forecast "planner pick/packed" config ~n:24 ~d:3 CM.Packed

(* ------------------------------------------------------------------ *)
(* Determinism: same spec => byte-identical plan, in any domain        *)
(* ------------------------------------------------------------------ *)

let test_plan_deterministic () =
  let limits =
    { Planner.default_constraints with Planner.objective = Planner.Weighted 0.3 }
  in
  let render () =
    Planner.json_of_outcome
      (Planner.plan ~unit_model (toy_workload ~path:CM.Prepared ()) limits)
  in
  let reference = render () in
  Alcotest.(check string) "same spec, identical bytes" reference (render ());
  (* Identical across domains: the planner owns no shared mutable
     state, so concurrent plans of the same spec agree bit for bit. *)
  let domains = Array.init 2 (fun _ -> Domain.spawn render) in
  Array.iter
    (fun d ->
      Alcotest.(check string) "cross-domain identical bytes" reference (Domain.join d))
    domains

(* ------------------------------------------------------------------ *)
(* Network-aware objective                                             *)
(* ------------------------------------------------------------------ *)

let test_net_objective () =
  let no_net = plan_toy () in
  let wan_limits =
    { Planner.default_constraints with Planner.net = Some Profile.wan }
  in
  let wan = plan_toy ~limits:wan_limits () in
  let b0 = best_exn no_net and bw = best_exn wan in
  (* The feasible set is pricing-independent, so the WAN winner's compute
     term alone is >= the compute-only optimum; the wire term on top is at
     least one full round trip (the protocol always exchanges messages in
     both directions on some link). *)
  Alcotest.(check bool) "wan objective >= compute optimum + one RTT" true
    (bw.Planner.objective_seconds
     >= b0.Planner.objective_seconds +. Profile.wan.Profile.rtt_s);
  List.iter
    (fun e ->
      Alcotest.(check bool) "every wan entry carries a positive wire term" true
        (e.Planner.objective_seconds > Profile.wan.Profile.rtt_s))
    wan.Planner.ranked;
  (* Net pricing stays deterministic. *)
  Alcotest.(check string) "byte-identical wan plans"
    (Planner.json_of_outcome wan)
    (Planner.json_of_outcome (plan_toy ~limits:wan_limits ()))

(* ------------------------------------------------------------------ *)
(* Attribution bridge: probe pricing = realized pricing                *)
(* ------------------------------------------------------------------ *)

let test_q_ibits_matches_ring () =
  List.iter
    (fun params ->
      let probe = Params.probe_of_t params in
      let from_moduli = Attribution.q_ibits_of_moduli probe.Params.pr_moduli in
      let chain = Params.chain_length params in
      Alcotest.(check int) "one entry per level" chain (Array.length from_moduli);
      for level = 1 to chain do
        let q = Rq.modulus params.Params.ring ~nprimes:level in
        Alcotest.(check int)
          (Printf.sprintf "%s: level %d" params.Params.name level)
          (Zint.numbits q) from_moduli.(level - 1)
      done)
    [ Params.toy (); Params.bench_small () ]

let test_probe_prices_like_config () =
  let w = toy_workload ~path:CM.Prepared ~layout:Config.Dot_product () in
  let o = Planner.plan ~unit_model w Planner.default_constraints in
  let best = best_exn o in
  let config = Planner.realize w best in
  (* The candidate was priced from its probe; the realized configuration
     must forecast the identical noise walk. *)
  let probe_report = (Attribution.predict config ~n:24 ~d:3 ~k:3 CM.Prepared).CM.noise in
  Alcotest.(check (float 1e-9)) "headroom identical"
    best.Planner.min_headroom_bits probe_report.NM.min_headroom_bits;
  Alcotest.(check (float 1e-9)) "security from the probe's chain"
    best.Planner.security_bits (Params.security_bits config.Config.bgv)

let () =
  Alcotest.run "plan"
    [ ("limits",
       [ Alcotest.test_case "ranked entries clear limits" `Quick
           test_entries_clear_limits ]);
      ("live",
       [ Alcotest.test_case "round trip exact" `Slow test_roundtrip_exact;
         Alcotest.test_case "forecast conservative" `Quick
           test_forecast_conservative ]);
      ("determinism",
       [ Alcotest.test_case "byte-identical plans" `Quick test_plan_deterministic ]);
      ("network",
       [ Alcotest.test_case "wan objective prices the wire" `Quick
           test_net_objective ]);
      ("attribution",
       [ Alcotest.test_case "q_ibits matches ring" `Quick test_q_ibits_matches_ring;
         Alcotest.test_case "probe prices like config" `Quick
           test_probe_prices_like_config ]) ]
