(* Order statistics for the benchmark's reports.  Percentiles are
   nearest-rank over whole percents, so every reported value is one of
   the measured samples. *)

let sorted samples =
  let s = Array.copy samples in
  Array.sort Float.compare s;
  s

(* The rank (1-based) of the nearest-rank [p]-th percentile of [n] samples. *)
let rank ~n p = Int.max 1 (Int.min n ((p * n + 99) / 100))

let percentile samples p =
  let s = sorted samples in
  if Array.length s = 0 then nan else s.(rank ~n:(Array.length s) p - 1)

(* The median; nan for no samples, so a run whose every round failed
   still reports (as null) instead of crashing. *)
let median samples =
  let s = sorted samples in
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else 0.5 *. (s.((n / 2) - 1) +. s.(n / 2))

(* The highest whole-percent nearest-rank percentile that still has at
   least [min_above] samples ranked above it, as [(p, value)].  With too
   few samples for any such percentile the median stands in, as p50. *)
let tail ?(min_above = 10) samples =
  let n = Array.length samples in
  let rec go p =
    if p < 50 then (50, median samples)
    else if n - rank ~n p >= min_above then (p, percentile samples p)
    else go (p - 1)
  in
  go 99
