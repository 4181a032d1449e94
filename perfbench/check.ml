(* The benchmark's own answer check: a brute-force k-NN over the
   plaintext database, independent of the library's exactness helper.
   An answer is exact when it has k points, every point is a row of the
   database (respecting duplicate rows), and the multiset of their
   squared distances to the query equals the k smallest such distances.
   Ties make the neighbour set ambiguous, so points are never compared
   with a reference answer directly. *)

type index = {
  db : int array array;
  rows : (int array, int) Hashtbl.t; (* row -> multiplicity *)
}

let index db =
  let rows = Hashtbl.create (Array.length db) in
  Array.iter
    (fun r -> Hashtbl.replace rows r (1 + Option.value ~default:0 (Hashtbl.find_opt rows r)))
    db;
  { db; rows }

let squared_distance a b =
  if Array.length a <> Array.length b then invalid_arg "Check.squared_distance";
  let s = ref 0 in
  Array.iteri (fun j x -> s := !s + ((x - b.(j)) * (x - b.(j)))) a;
  !s

let smallest_distances idx ~query ~k =
  let all = Array.map (squared_distance query) idx.db in
  Array.sort Int.compare all;
  Array.sub all 0 k

let all_rows idx answer =
  let used = Hashtbl.create 8 in
  Array.for_all
    (fun p ->
      let seen = 1 + Option.value ~default:0 (Hashtbl.find_opt used p) in
      Hashtbl.replace used p seen;
      seen <= Option.value ~default:0 (Hashtbl.find_opt idx.rows p))
    answer

let exact idx ~query ~k answer =
  Array.length answer = k
  && Array.for_all (fun p -> Array.length p = Array.length query) answer
  && all_rows idx answer
  &&
  let got = Array.map (squared_distance query) answer in
  Array.sort Int.compare got;
  got = smallest_distances idx ~query ~k

(* Per-workload query accounting.  A query that raises and a query
   answered wrongly both count as failed; [exact + failed = sent]. *)
type tally = {
  mutable sent : int;
  mutable exact : int;
  mutable wrong : int;
  mutable raised : int;
}

let tally () = { sent = 0; exact = 0; wrong = 0; raised = 0 }
let failed t = t.wrong + t.raised

(* Count one query: [Ok answer] is checked against the brute force,
   [Error _] is a query that raised.  Returns whether it was exact. *)
let record t idx ~query ~k outcome =
  t.sent <- t.sent + 1;
  match outcome with
  | Error _ ->
    t.raised <- t.raised + 1;
    false
  | Ok answer ->
    let ok = exact idx ~query ~k answer in
    if ok then t.exact <- t.exact + 1 else t.wrong <- t.wrong + 1;
    ok
