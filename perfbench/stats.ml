(* Order statistics over float samples.  Percentiles and means are
   Sim.Summary's (nearest rank); only the median is the benchmark's own. *)

let summary xs =
  let s = Sim.Summary.create () in
  List.iter (Sim.Summary.add s) xs;
  s

(* Nearest-rank percentile, [p] in [0, 100]; [nan] on no samples. *)
let percentile p xs = Sim.Summary.percentile (summary xs) p

(* 0. on no samples. *)
let mean xs = Sim.Summary.mean (summary xs)

(* The middle value, or the mean of the two middle values: with the two
   exhausts or rounds a run often holds, this averages them instead of
   picking the lower. *)
let median xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum = List.fold_left ( +. ) 0.
