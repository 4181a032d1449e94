type layout = Per_coordinate | Dot_product

type t = {
  bgv : Params.t;
  layout : layout;
  mask_degree : int;
  mask_coeff_bits : int;
  max_coord_bits : int;
  use_relin : bool;
  rescale_distances : bool;
  return_level : int;
}

let memo f =
  let cache = ref None in
  fun () ->
    match !cache with
    | Some v -> v
    | None ->
      let v = f () in
      cache := Some v;
      v

let standard =
  memo (fun () ->
      let bgv =
        Params.create ~name:"protocol-standard" ~n:64 ~plain_bits:50 ~prime_bits:30
          ~chain_len:10 ()
      in
      { bgv; layout = Per_coordinate; mask_degree = 2; mask_coeff_bits = 8;
        max_coord_bits = 8; use_relin = false; rescale_distances = true;
        return_level = 6 })

let fast =
  memo (fun () ->
      let bgv =
        Params.create ~name:"protocol-fast" ~n:64 ~plain_bits:50 ~prime_bits:30
          ~chain_len:7 ()
      in
      { bgv; layout = Dot_product; mask_degree = 1; mask_coeff_bits = 16;
        max_coord_bits = 8; use_relin = false; rescale_distances = false;
        return_level = 6 })

let secure =
  memo (fun () ->
      let bgv = Params.secure () in
      { bgv; layout = Per_coordinate; mask_degree = 1; mask_coeff_bits = 8;
        max_coord_bits = 6; use_relin = false; rescale_distances = true;
        return_level = 6 })

let with_layout layout t = { t with layout }
let with_bgv bgv t = { t with bgv }
let with_return_level return_level t = { t with return_level }
let with_rescale_distances rescale_distances t = { t with rescale_distances }
let with_mask_degree mask_degree t = { t with mask_degree }
let with_relin use_relin t = { t with use_relin }

let bits_of v =
  let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 1) in
  go 0 v

let max_distance_bits ~max_coord_bits ~d =
  let max_coord = (1 lsl max_coord_bits) - 1 in
  bits_of (Distance.max_squared_euclidean ~d ~max_value:max_coord)

(* Masking.draw takes its coefficients from [1, 2^C) with C the
   requested width clamped to the envelope, so 2^C − 1 bounds the
   leading one.  At least one bit, so an unsound shape still prices. *)
let mask_lead_bits ~t_plain ~max_coord_bits ~d ~degree ~coeff_bits =
  let sound =
    Masking.max_coeff_bits ~t_plain ~input_bits:(max_distance_bits ~max_coord_bits ~d) ~degree
  in
  let c = Stdlib.max 1 (Stdlib.min coeff_bits sound) in
  Bgv.scalar_bits ~t_plain (Int64.pred (Int64.shift_left 1L c))

(* A distance read out of one coefficient (the inner-product trick) or
   one slot (the packed paths) survives only an affine mask: a
   higher-degree one would not commute with the extraction.  The point's
   d coordinates must fit in the ring's N coefficients or slots. *)
let affine_supported t ~d ~what =
  if t.mask_degree <> 1 then Error (what ^ " need affine (degree-1) masking")
  else if d > t.bgv.Params.n then Error (what ^ " need d <= ring degree")
  else Ok ()

let layout_name = function
  | Per_coordinate -> "per-coordinate"
  | Dot_product -> "dot-product"

let validate t ~d =
  let input_bits = max_distance_bits ~max_coord_bits:t.max_coord_bits ~d in
  let sound =
    Masking.max_coeff_bits ~t_plain:t.bgv.Params.t_plain ~input_bits ~degree:t.mask_degree
  in
  if t.mask_degree < 1 then Error "mask_degree must be >= 1"
  else if sound < 1 then
    Error
      (Printf.sprintf
         "masking envelope violated: degree-%d polynomial on %d-bit distances cannot fit \
          under t=%Ld; lower mask_degree or max_coord_bits"
         t.mask_degree input_bits t.bgv.Params.t_plain)
  else if t.return_level < 1 || t.return_level > Params.chain_length t.bgv then
    Error "return_level out of range"
  else if t.layout = Dot_product then affine_supported t ~d ~what:"Dot_product queries"
  else Ok ()

let pp ppf t =
  Format.fprintf ppf
    "@[<v>layout=%s mask(degree=%d, <=%d-bit coeffs) coords<=%d bits relin=%b return_level=%d@ bgv: %a@]"
    (layout_name t.layout) t.mask_degree t.mask_coeff_bits t.max_coord_bits t.use_relin
    t.return_level Params.pp t.bgv
