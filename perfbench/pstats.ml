(* Order statistics for the benchmark's reports. *)

(* Linear interpolation between closest ranks, the rule of Python's
   [statistics.quantiles(method="inclusive")] and numpy's default. *)
let quantile a q =
  let s = Array.copy a in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n = 0 then invalid_arg "Pstats.quantile: no samples";
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float (Float.floor pos) in
  if i + 1 >= n then s.(n - 1)
  else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let median a = quantile a 0.5

let mean a =
  if Array.length a = 0 then 0.
  else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

(* A percentile is reported only when at least this many samples lie
   beyond it: with fewer, the tail value is one or two samples and
   moves with any single stall. *)
let min_beyond = 10

(* [percentile a p] is the [p]-th percentile (integer percent) of [a],
   or [None] when fewer than [min_beyond] samples lie beyond it. Kept
   in integers so that 100 samples do support p90 exactly. *)
let percentile a p =
  if p <= 0 || p >= 100 then invalid_arg "Pstats.percentile: p outside (0, 100)";
  if Array.length a * (100 - p) < min_beyond * 100 then None
  else Some (quantile a (float_of_int p /. 100.))
