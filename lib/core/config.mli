(** Protocol configuration: the paper's knobs plus this reproduction's
    layout choice.

    Two ciphertext layouts are provided:

    - [Per_coordinate] — the faithful rendering of Algorithm 1: every
      coordinate is its own (constant-polynomial) ciphertext, squared
      Euclidean distance is computed as [Σ (p'_j − q'_j)²] with [d]
      homomorphic multiplications per point, and the masking polynomial
      of any degree is evaluated homomorphically with [EvalPoly].

    - [Dot_product] — an optimised variant: a point is one ciphertext
      with its coordinates as polynomial coefficients; the inner product
      [⟨p, q⟩] lands in the constant coefficient after a single
      multiplication by the reversed query, and
      [ED = ‖p‖² − 2⟨p,q⟩ + ‖q‖²] costs one multiplication per point.
      The cross-term coefficients are destroyed with a uniformly random
      zero-constant polynomial before sending, and the mask is affine
      (degree 1), since a higher-degree polynomial would not commute
      with the coefficient extraction.

    Both satisfy the same leakage profile for the two parties; the bench
    harness reports both (the paper's timings correspond to
    [Per_coordinate]). *)

type layout = Per_coordinate | Dot_product

type t = {
  bgv : Params.t;
  layout : layout;
  mask_degree : int;        (** degree of Party A's masking polynomial *)
  mask_coeff_bits : int;    (** requested coefficient width (clamped) *)
  max_coord_bits : int;     (** coordinates must fit in this many bits *)
  use_relin : bool;         (** relinearise after each multiplication *)
  rescale_distances : bool;
      (** modulus-switch the distance ciphertexts before masking; only
          needed when the masking polynomial consumes further depth *)
  return_level : int;       (** RNS level of the Return-kNN phase *)
}

val standard : unit -> t
(** [Per_coordinate], degree-2 mask, 1024-slot ring (memoised). *)

val fast : unit -> t
(** [Dot_product], affine mask, shorter chain (memoised). *)

val secure : unit -> t
(** [Per_coordinate] on the 128-bit-security ring (slow; for the
    demonstration example). *)

val with_layout : layout -> t -> t

val with_bgv : Params.t -> t -> t
(** Swap the BGV parameter set — how a planner pick ([Planner.realize],
    [sknn plan --apply]) threads into an existing configuration.
    Re-run {!validate}: the masking envelope depends on [bgv.t_plain]. *)

val with_return_level : int -> t -> t
val with_mask_degree : int -> t -> t
val with_relin : bool -> t -> t
val with_rescale_distances : bool -> t -> t

val max_distance_bits : max_coord_bits:int -> d:int -> int
(** Bits of the largest squared distance for [d]-dimensional data with
    coordinates below [2^max_coord_bits]. *)

val mask_lead_bits :
  t_plain:int64 -> max_coord_bits:int -> d:int -> degree:int -> coeff_bits:int -> float
(** The public bound on a drawn mask's leading coefficient, as
    {!Bgv.scalar_bits} of [2^C − 1], where [C] is [coeff_bits] clamped
    to {!Masking.max_coeff_bits} (and at least 1).  Party A's
    [Bgv.eval_poly] and the cost model both charge it, so the masked
    ciphertexts' level, bound and size depend on public knobs only. *)

val affine_supported : t -> d:int -> what:string -> (unit, string) result
(** The rule of every path that reads a distance out of one coefficient
    or slot (plain on the [Dot_product] layout, and the packed path):
    affine (degree-1) masking and [d <= n], the ring degree.
    [Error] says ["<what> need …"]. *)

val validate : t -> d:int -> (unit, string) result
(** Checks the masking envelope (see {!Masking}), the return level and,
    for [Dot_product], {!affine_supported}. *)

val layout_name : layout -> string
val pp : Format.formatter -> t -> unit
