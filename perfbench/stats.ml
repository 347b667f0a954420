(* Order statistics over per-operation latencies. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The value at percentile [p] (in %) by nearest rank, or [None] when
   fewer than 10 samples lie above it: a tail read off fewer samples
   is one outlier. *)
let tail p xs =
  let a = sorted xs in
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (p /. 100. *. float n)) in
  if rank < 1 || n - rank < 10 then None else Some a.(rank - 1)
