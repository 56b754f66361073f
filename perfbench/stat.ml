(* Order statistics for benchmark samples. *)

let sorted (xs : float array) : float array =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median (xs : float array) : float =
  let n = Array.length xs in
  if n = 0 then nan
  else
    let a = sorted xs in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Python's [statistics.quantiles(xs, n=4)] (the default "exclusive"
   method), so quartiles printed here agree with ones computed from the
   results in Python. Needs at least two samples. *)
let quartiles (xs : float array) : float * float * float =
  let d = sorted xs in
  let ld = Array.length d in
  if ld < 2 then invalid_arg "Stat.quartiles: need at least two samples";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
    /. 4.0
  in
  (q 1, q 2, q 3)

(* A percentile is only reported when at least this many samples lie
   beyond it, so a single outlier cannot set it. *)
let min_beyond = 10

(* Nearest-rank [p]th percentile of [xs], with the number of samples
   strictly beyond it; [None] when fewer than {!min_beyond} are. *)
let percentile (xs : float array) (p : float) : (float * int) option =
  let n = Array.length xs in
  if n = 0 then None
  else
    let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int n /. 100.0))) in
    let beyond = n - rank in
    if beyond < min_beyond then None else Some ((sorted xs).(rank - 1), beyond)

(* Smallest sample count for which [percentile xs p] is reported. *)
let samples_needed (p : float) : int =
  let rec go n =
    let rank = int_of_float (Float.ceil (p *. float_of_int n /. 100.0)) in
    if n - rank >= min_beyond then n else go (n + 1)
  in
  go 1
