(* Order statistics for the reported metrics. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Median with the mean of the middle pair for even counts. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

type tail = { value : float; pct : float; n : int }

(* The tail rule: the highest percentile that still has at least 10
   samples beyond it.  With n samples that is the (n-10)-th smallest
   (1-based), exactly 10 above it, at percentile 100 (n-10)/n.  [None]
   below 11 samples, where no percentile has 10 beyond it. *)
let beyond = 10

let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n <= beyond then None
  else Some { value = a.(n - beyond - 1); pct = 100. *. float_of_int (n - beyond) /. float_of_int n; n }
