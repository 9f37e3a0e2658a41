(* Order statistics over float samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks; [nan] on no samples. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let h = p /. 100.0 *. Float.of_int (n - 1) in
    let lo = truncate h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. Float.of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile 50.0 xs

(* First and third quartile exactly as Python's
   [statistics.quantiles(xs, n=4)] (its default "exclusive" method)
   computes them, so spreads printed here match ones computed from the
   ledger with Python.  Needs at least two samples. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then (Float.nan, Float.nan)
  else
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. Float.of_int (4 - delta)) +. (a.(j) *. Float.of_int delta))
      /. 4.0
    in
    (q 1, q 3)

(* Interquartile range as a share of the median. *)
let spread xs =
  let q1, q3 = quartiles xs in
  (q3 -. q1) /. median xs
