type row = {
  hom_ops : int;
  encryptions : int;
  decryptions : int;
  rounds : int;
  bytes : int;
}

let ours ?(bytes = 0) ~n ~d ~k ~mask_degree ~ring_degree () =
  (* Party A: per point, d squared-difference multiplications (+ d-1
     additions), one EvalPoly of degree D (D multiplications via Horner
     counting the scalar one), and one monomial shift and addition
     folding it into its Return-kNN block of ⌊N/d⌋ points; per
     neighbour, one product and addition per block, the randomizer and
     the flood.  Party B contributes no homomorphic evaluation, decrypts
     the masked distances N = [ring_degree] to a ciphertext, and
     encrypts k indicators per block.  [bytes] is the A<->B traffic from
     actual serialized ciphertext sizes — Cost_model.prediction.ab_bytes
     when the caller has one (the event counts here are asymptotic,
     byte counts are not). *)
  let per = Stdlib.max 1 (ring_degree / d) in
  let blocks = (n + per - 1) / per in
  { hom_ops = (n * ((2 * d) + mask_degree + 2)) + (k * ((2 * blocks) + 2));
    encryptions = k * blocks;
    decryptions = (n + ring_degree - 1) / ring_degree;
    rounds = 1;
    bytes }

let yousef ~n ~d ~k ~l =
  { hom_ops = n * ((2 * k * l) + d);
    encryptions = n * k * l;
    decryptions = n * ((k * l) + d);
    rounds = k;
    bytes = 0 }

(* The Table 1 cells of one round, from Party A's and Party B's counters
   and the transcript — a live run's or the cost model's. *)
let of_round ~a ~b tr =
  let hom c =
    Util.Counters.hom_adds c + Util.Counters.hom_muls c
    + Util.Counters.hom_mul_plains c + Util.Counters.hom_modswitches c
    + Util.Counters.hom_relins c
  in
  { hom_ops = hom a + hom b;
    encryptions = Util.Counters.encryptions b;
    decryptions = Util.Counters.decryptions b;
    rounds = Transcript.rounds tr Transcript.Party_a Transcript.Party_b;
    bytes = Transcript.bytes_between tr Transcript.Party_a Transcript.Party_b }

let measured (r : Protocol.result) =
  of_round ~a:r.Protocol.counters_a ~b:r.Protocol.counters_b r.Protocol.transcript

let predicted (p : Sknn_obs.Cost_model.prediction) =
  of_round ~a:p.Sknn_obs.Cost_model.party_a ~b:p.Sknn_obs.Cost_model.party_b
    p.Sknn_obs.Cost_model.transcript

let within_asymptotic ~measured ~predicted ~slack =
  let fits m p =
    if p = 0 then m = 0
    else begin
      let m = float_of_int m and p = float_of_int p in
      m <= p *. slack && m >= p /. slack
    end
  in
  fits measured.hom_ops predicted.hom_ops
  && fits measured.encryptions predicted.encryptions
  && fits measured.decryptions predicted.decryptions
  && measured.rounds = predicted.rounds

let pp ppf r =
  Format.fprintf ppf "hom=%d enc=%d dec=%d rounds=%d bytes=%d" r.hom_ops r.encryptions
    r.decryptions r.rounds r.bytes
