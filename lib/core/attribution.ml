(* Bridge from a protocol configuration to the observability layer's
   analytic cost model (Sknn_obs.Cost_model).  lib/obs deliberately
   knows nothing about Params/Config/Masking, so the scheme-specific
   numbers — exact modulus bit lengths and the mask's public
   leading-coefficient bound — are derived here, with the functions the
   live circuit uses (Config.mask_lead_bits), and handed over as plain
   floats/ints. *)

module CM = Sknn_obs.Cost_model

(* Exact bit length of the modulus product with i+1 active primes —
   the prefix-product definition of Rq.modulus ~nprimes, but computable
   from the chain alone, so the planner can bridge an unrealized
   Params.probe without paying for the ring context. *)
let q_ibits_of_moduli moduli =
  let acc = ref Zint.one in
  Array.map
    (fun m ->
      acc := Zint.mul !acc (Zint.of_int64 (Int64.of_int m));
      Zint.numbits !acc)
    moduli

(* The probe-level bridge: everything [model_params] derives, from the
   prime-search result plus the protocol knobs — no ring context, no
   Config record.  [model_params] is this applied to [Params.probe_of_t],
   so planner candidates and realized configurations price identically. *)
let model_params_probe (pr : Params.probe) ~layout ~mask_degree ~mask_coeff_bits
    ~max_coord_bits ~use_relin ~rescale_distances ~return_level ~n ~d ~k :
    CM.params =
  let t_plain = pr.Params.pr_t_plain in
  let moduli = pr.Params.pr_moduli in
  let chain = Array.length moduli in
  let q_ibits = q_ibits_of_moduli moduli in
  let w = pr.Params.pr_relin_digit_bits in
  let mask_leading_bits =
    Config.mask_lead_bits ~t_plain ~max_coord_bits ~d ~degree:mask_degree
      ~coeff_bits:mask_coeff_bits
  in
  { CM.nm = Params.noise_of_probe pr;
    q_ibits;
    n_points = n;
    d;
    k;
    per_coordinate = (layout = Config.Per_coordinate);
    mask_degree;
    mask_leading_bits;
    rescale_distances;
    return_level;
    use_relin;
    relin_digit_bits = w;
    relin_rows = (q_ibits.(chain - 1) + w - 1) / w;
    slots = pr.Params.pr_n }

let model_params (config : Config.t) ~n ~d ~k : CM.params =
  model_params_probe
    (Params.probe_of_t config.Config.bgv)
    ~layout:config.Config.layout ~mask_degree:config.Config.mask_degree
    ~mask_coeff_bits:config.Config.mask_coeff_bits
    ~max_coord_bits:config.Config.max_coord_bits
    ~use_relin:config.Config.use_relin
    ~rescale_distances:config.Config.rescale_distances
    ~return_level:config.Config.return_level ~n ~d ~k

let predict ?include_prepare ?margin_bits config ~n ~d ~k path =
  CM.predict ?include_prepare ?margin_bits (model_params config ~n ~d ~k) path
