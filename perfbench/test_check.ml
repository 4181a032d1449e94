(* The benchmark's answer check: exact answers count as exact, and a
   corrupted answer or a query that raised counts as failed. *)

let db =
  [| [| 0; 0 |]; [| 1; 0 |]; [| 0; 2 |]; [| 3; 3 |]; [| 5; 1 |]; [| 1; 0 |]; [| 9; 9 |]; [| 0; 1 |] |]

let idx = Check.index db
let query = [| 0; 0 |]
let k = 3

(* The three smallest distances are 0, 1, 1; three rows lie at distance
   1, one of them stored twice. *)
let good = [| [| 0; 0 |]; [| 1; 0 |]; [| 1; 0 |] |]

let cases =
  [ ("exact answer", Ok good, true);
    ("tie broken the other way", Ok [| [| 0; 1 |]; [| 0; 0 |]; [| 1; 0 |] |], true);
    ("corrupted point at the right distance", Ok [| [| 0; 0 |]; [| 1; 0 |]; [| -1; 0 |] |], false);
    ("farther row returned", Ok [| [| 0; 0 |]; [| 1; 0 |]; [| 0; 2 |] |], false);
    ("row returned more often than stored", Ok [| [| 0; 0 |]; [| 0; 1 |]; [| 0; 1 |] |], false);
    ("short answer", Ok [| [| 0; 0 |]; [| 1; 0 |] |], false);
    ("query raised", Error (Failure "decryption failure"), false) ]

let () =
  let tally = Check.tally () in
  List.iter
    (fun (name, outcome, expect) ->
      let got = Check.record tally idx ~query ~k outcome in
      if got <> expect then failwith (Printf.sprintf "%s: counted exact=%b, expected %b" name got expect))
    cases;
  assert (tally.Check.sent = 7);
  assert (tally.Check.exact = 2);
  assert (tally.Check.wrong = 4);
  assert (tally.Check.raised = 1);
  assert (Check.failed tally = 5);
  (* Tail percentile: the highest whole percent with ten samples above it. *)
  let samples = Array.init 100 (fun i -> float_of_int (i + 1)) in
  assert (Stats.tail samples = (90, 90.0));
  assert (Stats.tail (Array.sub samples 0 12) = (50, 6.5));
  assert (Stats.median [| 3.0; 1.0; 2.0 |] = 2.0);
  print_endline "perfbench check: ok"
