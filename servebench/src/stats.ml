(* Order statistics over latency samples.

   Percentiles use the nearest-rank rule: the q-th percentile of n sorted
   samples is the sample at rank ceil(q n). A percentile is only reported
   when at least [min_beyond] samples lie strictly beyond that rank, so a
   tail figure always rests on more than a handful of requests. *)

let min_beyond = 10

let rank ~n q = max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n))))

let beyond ~n q = n - rank ~n q

let supported ~n q = n > 0 && beyond ~n q >= min_beyond

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* [percentile] expects sorted input; 0 on an empty array. *)
let percentile s q =
  let n = Array.length s in
  if n = 0 then 0. else s.(rank ~n q - 1)

let median a = percentile (sorted a) 0.5

let mean a =
  let n = Array.length a in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. a /. float_of_int n
