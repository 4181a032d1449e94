(* Automatic BGV parameter planning: search the (ring degree, modulus
   chain, plaintext prime) space for the cheapest parameter set a given
   workload can prove safe.

   Both halves of the search come from one symbolic walk of the
   candidate's circuit, Cost_model.predict:

   - feasibility — its noise report (the same walk Party_a.guard_noise
     audits, so the planner and the live guard can never diverge), plus
     Params.security_bits_for for the RLWE floor;
   - cost — its ledger, priced at any (n, chain) shape by a unit model
     fitted from one measured calibration (Cost_model.fit_unit_model).

   This module is the search loop over both.  It deliberately depends
   only on Params probes (prime search, no ring context): the expensive
   NTT/CRT tables are built once, for the winning candidate, by
   [realize].  Everything is pure given the unit model, so the same spec
   always yields the byte-identical plan (tested). *)

module NM = Util.Noise_model
module CM = Sknn_obs.Cost_model

(* ------------------------------------------------------------------ *)
(* The search                                                          *)
(* ------------------------------------------------------------------ *)

type workload = {
  points : int;
  dim : int;
  k : int;
  coord_bits : int;
  layout : Config.layout;
  path : CM.path;
  mask_degree : int;
  mask_coeff_bits : int;
}

let workload ?(layout = Config.Dot_product) ?(path = CM.Packed 1) ?(mask_degree = 1)
    ?(mask_coeff_bits = 8) ~points ~dim ~k ~coord_bits () =
  { points; dim; k; coord_bits; layout; path; mask_degree; mask_coeff_bits }

type constraints = {
  min_security_bits : float;
  noise_margin_bits : float;
  net : Profile.t option;
}

let default_constraints = { min_security_bits = 0.0; noise_margin_bits = 4.0; net = None }

type spec = {
  sp_n : int;
  sp_plain_bits : int;
  sp_prime_bits : int;
  sp_chain_len : int;
  sp_return_level : int;
}

type entry = {
  spec : spec;
  probe : Params.probe;
  log2_q : float;
  security_bits : float;
  min_headroom_bits : float;
  seconds : float;
  phase_seconds : (string * float) list;
}

type outcome = {
  load : workload;
  limits : constraints;
  ranked : entry list;
  considered : int;
  infeasible : (string * int) list;
  pruned_noise : int;
  pruned_security : int;
}

(* The candidate axes.  Ring degrees 2^6 .. 2^13 — the low end is where
   the protocol presets live (correctness never needs a large ring; only
   a security floor pushes the degree up); prime widths under the
   Barrett (< 2^30) fast-path bound, which also satisfies Shoup
   (< 2^31); chains from the shallowest that can carry a circuit to the
   deepest preset's. *)
let ring_degrees = [ 64; 128; 256; 512; 1024; 2048; 4096; 8192 ]
let prime_bit_choices = [ 26; 28; 30 ]
let chain_lengths = [ 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15; 16 ]

(* The planner's candidates always rescale only on the plain
   per-coordinate path (where the masking polynomial consumes further
   depth); every other path relies on the level-drop rule, as the fast
   preset does. *)
let rescale_for w = w.path = CM.Plain && w.layout = Config.Per_coordinate

(* Minimal plaintext width: the masking envelope needs
   [coeffs + degree·input + log2 (degree+1) < log2 t] with the workload's
   requested coefficient width, and [probe] returns the largest prime
   below 2^plain_bits, so start just above the bound and bump if the
   prime found lands under it. *)
let min_plain_bits w =
  let input_bits = Config.max_distance_bits ~max_coord_bits:w.coord_bits ~d:w.dim in
  let need =
    float_of_int w.mask_coeff_bits
    +. (float_of_int w.mask_degree *. float_of_int input_bits)
    +. NM.log2 (float_of_int (w.mask_degree + 1))
  in
  (int_of_float (ceil need)) + 1

let compare_entries a b =
  let c = Float.compare a.seconds b.seconds in
  if c <> 0 then c
  else
    let c = Int.compare a.spec.sp_n b.spec.sp_n in
    if c <> 0 then c
    else
      let c = Int.compare a.spec.sp_chain_len b.spec.sp_chain_len in
      if c <> 0 then c
      else
        let c = Int.compare a.spec.sp_prime_bits b.spec.sp_prime_bits in
        if c <> 0 then c
        else Int.compare a.spec.sp_return_level b.spec.sp_return_level

let plan ?(keep = 10) ~unit_model (w : workload) (limits : constraints) : outcome =
  if w.points < 1 then invalid_arg "Planner.plan: empty database";
  if w.dim < 1 then invalid_arg "Planner.plan: dimension < 1";
  if w.k < 1 || w.k > w.points then invalid_arg "Planner.plan: k out of range";
  if w.coord_bits < 1 || w.coord_bits > 20 then
    invalid_arg "Planner.plan: coord_bits out of range";
  if w.mask_degree < 1 then invalid_arg "Planner.plan: mask_degree < 1";
  if w.mask_degree > 1 && (w.layout = Config.Dot_product || w.path <> CM.Plain) then
    invalid_arg "Planner.plan: only the plain per-coordinate path supports mask_degree > 1";
  (match w.path with
   | CM.Packed m when m < 1 -> invalid_arg "Planner.plan: empty batch"
   | _ -> ());
  let infeasible = Hashtbl.create 8 in
  let count_infeasible reason =
    Hashtbl.replace infeasible reason
      (1 + Option.value ~default:0 (Hashtbl.find_opt infeasible reason))
  in
  let considered = ref 0 in
  let pruned_noise = ref 0 and pruned_security = ref 0 in
  let plain_bits0 = min_plain_bits w in
  let entries = ref [] in
  let rescale_distances = rescale_for w in
  List.iter
    (fun n ->
      (* The dot-product coefficient embedding and the packed slot layout
         both need d within the ring. *)
      if w.layout = Config.Dot_product && w.dim > n then count_infeasible "dim-exceeds-ring"
      else
        List.iter
          (fun prime_bits ->
            List.iter
              (fun chain_len ->
                incr considered;
                match
                  (* The largest prime below 2^plain_bits can land under
                     the envelope bound; widen until the width is sound
                     at the workload's requested coefficient width. *)
                  let rec probe_sound plain_bits =
                    if plain_bits > 50 then None
                    else
                      let pr =
                        Params.probe
                          ~name:
                            (Printf.sprintf "plan-n%d-q%dx%d" n chain_len prime_bits)
                          ~n ~plain_bits ~prime_bits ~chain_len ()
                      in
                      let sound =
                        Masking.max_coeff_bits ~t_plain:pr.Params.pr_t_plain
                          ~input_bits:
                            (Config.max_distance_bits ~max_coord_bits:w.coord_bits
                               ~d:w.dim)
                          ~degree:w.mask_degree
                      in
                      if sound >= w.mask_coeff_bits then Some (plain_bits, pr)
                      else probe_sound (plain_bits + 1)
                  in
                  probe_sound plain_bits0
                with
                | exception Params.Infeasible reason ->
                  count_infeasible
                    (match reason with
                     | Params.No_plain_prime _ -> "no-plain-prime"
                     | Params.Prime_bits_too_large _ -> "prime-bits"
                     | Params.Chain_exhausted _ -> "chain-exhausted")
                | None -> count_infeasible "mask-envelope"
                | Some (plain_bits, pr) ->
                  let log2_q = Params.probe_log2_q pr in
                  let security = Params.security_bits_for ~n ~log2_q in
                  if security < limits.min_security_bits then incr pruned_security
                  else begin
                    (* Lowest return level whose noise report clears the
                       margin: lower is cheaper (Return-kNN encrypts at
                       it, and the level-drop rules floor at it). *)
                    let rec first_feasible rl =
                      if rl > chain_len then None
                      else
                        let p =
                          Attribution.model_params_probe pr ~layout:w.layout
                            ~mask_degree:w.mask_degree
                            ~mask_coeff_bits:w.mask_coeff_bits
                            ~max_coord_bits:w.coord_bits ~use_relin:false
                            ~rescale_distances ~return_level:rl ~n:w.points ~d:w.dim
                            ~k:w.k
                        in
                        let pred =
                          CM.predict ~margin_bits:limits.noise_margin_bits p w.path
                        in
                        if pred.CM.noise.NM.below_margin then first_feasible (rl + 1)
                        else Some (rl, pred)
                    in
                    match first_feasible 1 with
                    | None -> incr pruned_noise
                    | Some (rl, pred) ->
                      let unit_costs =
                        CM.unit_costs_for unit_model ~n ~levels:chain_len
                      in
                      (* Compute, plus the wire time of the predicted
                         transcript under a network profile: what lets a
                         WAN ranking reward the packed path's fewer,
                         larger messages end to end. *)
                      let priced = CM.price ~unit_costs ?profile:limits.net pred in
                      let entry =
                        { spec =
                            { sp_n = n; sp_plain_bits = plain_bits;
                              sp_prime_bits = prime_bits; sp_chain_len = chain_len;
                              sp_return_level = rl };
                          probe = pr;
                          log2_q;
                          security_bits = security;
                          min_headroom_bits = pred.CM.noise.NM.min_headroom_bits;
                          seconds = priced.CM.total_s;
                          phase_seconds = priced.CM.phase_s }
                      in
                      entries := entry :: !entries
                  end)
              chain_lengths)
          prime_bit_choices)
    ring_degrees;
  let ranked =
    List.sort compare_entries !entries
    |> List.filteri (fun i _ -> i < Stdlib.max 1 keep)
  in
  { load = w;
    limits;
    ranked;
    considered = !considered;
    infeasible =
      Hashtbl.fold (fun r c acc -> (r, c) :: acc) infeasible []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b);
    pruned_noise = !pruned_noise;
    pruned_security = !pruned_security }

let best outcome =
  match outcome.ranked with [] -> None | e :: _ -> Some e

(* ------------------------------------------------------------------ *)
(* Realization                                                         *)
(* ------------------------------------------------------------------ *)

let realize (w : workload) (e : entry) : Config.t =
  let bgv = Params.of_probe e.probe in
  let config =
    { Config.bgv;
      layout = w.layout;
      mask_degree = w.mask_degree;
      mask_coeff_bits = w.mask_coeff_bits;
      max_coord_bits = w.coord_bits;
      use_relin = false;
      rescale_distances = rescale_for w;
      return_level = e.spec.sp_return_level }
  in
  (match Config.validate config ~d:w.dim with
   | Ok () -> ()
   | Error msg -> invalid_arg ("Planner.realize: " ^ msg));
  config

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let path_name = function
  | CM.Plain -> "plain"
  | CM.Packed m -> Printf.sprintf "packed-%d" m

let json_of_entry e =
  let open Util.Json in
  Obj
    [ ("n", Int e.spec.sp_n);
      ("plain_bits", Int e.spec.sp_plain_bits);
      ("prime_bits", Int e.spec.sp_prime_bits);
      ("chain_len", Int e.spec.sp_chain_len);
      ("return_level", Int e.spec.sp_return_level);
      ("t_plain", Int (Int64.to_int e.probe.Params.pr_t_plain));
      ("log2_q", Float e.log2_q);
      ("security_bits", Float e.security_bits);
      ("min_headroom_bits", Float e.min_headroom_bits);
      ("seconds", Float e.seconds);
      ( "phases",
        List
          (List.map
             (fun (name, s) -> Obj [ ("phase", Str name); ("s", Float s) ])
             e.phase_seconds) ) ]

let json_of_outcome o =
  let open Util.Json in
  to_string
    (Obj
       [ ("rec", Str "plan");
         ( "workload",
           Obj
             [ ("points", Int o.load.points);
               ("dim", Int o.load.dim);
               ("k", Int o.load.k);
               ("coord_bits", Int o.load.coord_bits);
               ("layout", Str (Config.layout_name o.load.layout));
               ("path", Str (path_name o.load.path));
               ("mask_degree", Int o.load.mask_degree);
               ("mask_coeff_bits", Int o.load.mask_coeff_bits) ] );
         ( "constraints",
           Obj
             [ ("min_security_bits", Float o.limits.min_security_bits);
               ("noise_margin_bits", Float o.limits.noise_margin_bits);
               ( "net",
                 Str (match o.limits.net with None -> "none" | Some p -> Profile.to_string p)
               ) ] );
         ("considered", Int o.considered);
         ("pruned_noise", Int o.pruned_noise);
         ("pruned_security", Int o.pruned_security);
         ( "infeasible",
           List
             (List.map
                (fun (reason, count) -> Obj [ ("reason", Str reason); ("count", Int count) ])
                o.infeasible) );
         ("ranked", List (List.map json_of_entry o.ranked)) ])

(* ------------------------------------------------------------------ *)
(* Table rendering (shared by the CLI verb and tests)                  *)
(* ------------------------------------------------------------------ *)

let pp_seconds ppf s =
  if s < 1e-3 then Format.fprintf ppf "%.1fus" (s *. 1e6)
  else if s < 1.0 then Format.fprintf ppf "%.2fms" (s *. 1e3)
  else Format.fprintf ppf "%.2fs" s

let pp_entry ppf (i, e) =
  Format.fprintf ppf "%2d. n=%-5d chain=%2d x %2d-bit t=2^%-2d rl=%d  %a" (i + 1)
    e.spec.sp_n e.spec.sp_chain_len e.spec.sp_prime_bits e.spec.sp_plain_bits
    e.spec.sp_return_level pp_seconds e.seconds;
  Format.fprintf ppf "  %5.1f bits headroom  %5.1f bits security@," e.min_headroom_bits
    e.security_bits

let pp_outcome ppf o =
  Format.fprintf ppf "@[<v>plan: %s path, %d points x %d dims, k=%d, coords<=%d bits@,"
    (path_name o.load.path) o.load.points o.load.dim o.load.k o.load.coord_bits;
  (match o.limits.net with
   | None -> ()
   | Some p -> Format.fprintf ppf "priced end-to-end over %a@," Profile.pp p);
  Format.fprintf ppf
    "searched %d candidates: %d ranked, %d noise-pruned, %d security-pruned"
    o.considered (List.length o.ranked) o.pruned_noise o.pruned_security;
  List.iter
    (fun (reason, count) -> Format.fprintf ppf ", %d %s" count reason)
    o.infeasible;
  Format.fprintf ppf "@,";
  List.iteri (fun i e -> pp_entry ppf (i, e)) o.ranked;
  (match best o with
   | None -> Format.fprintf ppf "no feasible parameter set@,"
   | Some e ->
     Format.fprintf ppf "@,winner phase forecast:@,";
     List.iter
       (fun (name, s) -> Format.fprintf ppf "  %-20s %a@," name pp_seconds s)
       e.phase_seconds);
  Format.fprintf ppf "@]"
