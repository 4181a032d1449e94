(** Secure k-means over encrypted data — the paper's §7 future-work
    extension, built from the same ingredients as the k-NN protocol.

    Model and trust assumptions are unchanged: Party A stores the
    encrypted database ([Dot_product] layout), Party B holds the secret
    key, the client drives the iterations and is entitled to the output
    (the k centroids and cluster sizes).

    One Lloyd iteration:

    + the client encrypts the current centroids (reversed-query form)
      and sends them to Party A;
    + A computes, for every point, its k encrypted squared distances to
      the centroids, masks each point's row with a {e fresh per-point}
      monotone affine polynomial (so B can compare within a row but
      never across rows) and permutes each row's centroid positions with
      a fresh per-point permutation — each masked distance is the k-NN
      paths' inner-product circuit,
      {!Entities.Party_a.masked_inner_product};
    + B decrypts each row, finds the argmin, and returns per-point
      one-hot indicator vectors over the (permuted) centroid slots;
    + A un-permutes, homomorphically aggregates per cluster the
      coordinate sums [Σ indicator·packed_point] (one {!Bgv.mul_sum})
      and sizes [Σ indicator], and forwards the k aggregate pairs to the
      client;
    + the client decrypts and computes the rounded integer means —
      exactly {!Kmeans_plain.update} — so on tie-free instances the
      secure run reproduces the plaintext iterates bit for bit.

    Leakage: A sees only ciphertexts; B sees, per point, k masked
    distances in a per-point random order — it learns k, n, and
    per-point centroid-equidistance, but cannot compare rows (fresh
    masks) or track centroids across iterations (fresh permutations);
    the client learns the output it is entitled to (centroids and
    sizes). *)

type deployment

val deploy :
  ?rng:Util.Rng.t -> Config.t -> db:int array array -> deployment
(** Requires the [Dot_product] layout (affine masks; one multiplication
    per point-centroid pair). @raise Invalid_argument otherwise. *)

type result = {
  centroids : int array array;
  sizes : int array;
  iterations : int;
  converged : bool;
  seconds : float;
  transcript : Transcript.t;
  counters_a : Util.Counters.t;
  counters_b : Util.Counters.t;
}

val run :
  ?rng:Util.Rng.t -> ?max_iters:int -> deployment -> init:int array array -> result
(** Runs Lloyd iterations from the given plaintext initial centroids
    until the centroids are stable or [max_iters] (default 25).
    Empty clusters keep their previous centroid, as in
    {!Kmeans_plain.lloyd}. *)

val matches_plaintext :
  db:int array array -> init:int array array -> ?max_iters:int -> result -> bool
(** True iff the secure run's centroids equal {!Kmeans_plain.lloyd}'s on
    the same inputs (guaranteed on instances without point-to-centroid
    distance ties). *)
