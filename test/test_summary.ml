(* Streaming summaries. *)

let close a b = Float.abs (a -. b) < 1e-9

let test_empty () =
  let s = Sim.Summary.create () in
  Alcotest.(check int) "count" 0 (Sim.Summary.count s);
  Alcotest.(check (float 0.0)) "mean" 0. (Sim.Summary.mean s);
  Alcotest.(check bool) "min nan" true (Float.is_nan (Sim.Summary.min s));
  Alcotest.(check bool) "max nan" true (Float.is_nan (Sim.Summary.max s));
  Alcotest.(check bool) "percentile nan" true
    (Float.is_nan (Sim.Summary.percentile s 50.))

let test_single () =
  let s = Sim.Summary.create () in
  Sim.Summary.add s 3.5;
  Alcotest.(check (float 0.0)) "mean" 3.5 (Sim.Summary.mean s);
  Alcotest.(check (float 0.0)) "median" 3.5 (Sim.Summary.median s);
  Alcotest.(check (float 0.0)) "stddev" 0. (Sim.Summary.stddev s)

let test_mean_matches_naive =
  Util.qtest "mean matches naive computation"
    QCheck2.Gen.(list_size (int_range 1 100) (float_range (-1000.) 1000.))
    (fun xs ->
      let s = Sim.Summary.create () in
      List.iter (Sim.Summary.add s) xs;
      let naive = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) in
      close (Sim.Summary.mean s) naive)

let test_minmax =
  Util.qtest "min/max match sorting"
    QCheck2.Gen.(list_size (int_range 1 100) (float_range (-100.) 100.))
    (fun xs ->
      let s = Sim.Summary.create () in
      List.iter (Sim.Summary.add s) xs;
      let sorted = List.sort Float.compare xs in
      close (Sim.Summary.min s) (List.hd sorted)
      && close (Sim.Summary.max s) (List.nth sorted (List.length sorted - 1)))

let test_percentile_nearest_rank () =
  let s = Sim.Summary.create () in
  List.iter (Sim.Summary.add s) [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ];
  Alcotest.(check (float 0.0)) "p50" 5. (Sim.Summary.percentile s 50.);
  Alcotest.(check (float 0.0)) "p10" 1. (Sim.Summary.percentile s 10.);
  Alcotest.(check (float 0.0)) "p100" 10. (Sim.Summary.percentile s 100.);
  Alcotest.(check (float 0.0)) "p0 clamps" 1. (Sim.Summary.percentile s 0.)

let test_percentile_monotone =
  Util.qtest "percentiles are monotone"
    QCheck2.Gen.(list_size (int_range 1 60) (float_range 0. 100.))
    (fun xs ->
      let s = Sim.Summary.create () in
      List.iter (Sim.Summary.add s) xs;
      let ps = [ 1.; 25.; 50.; 75.; 99. ] in
      let values = List.map (Sim.Summary.percentile s) ps in
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b && monotone rest
        | _ -> true
      in
      monotone values)

let test_stddev () =
  let s = Sim.Summary.create () in
  List.iter (Sim.Summary.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  Alcotest.(check (float 1e-9)) "population stddev" 2. (Sim.Summary.stddev s)

let test_merge =
  Util.qtest "merge equals concatenation"
    QCheck2.Gen.(
      pair
        (list_size (int_bound 40) (float_range (-10.) 10.))
        (list_size (int_bound 40) (float_range (-10.) 10.)))
    (fun (xs, ys) ->
      let a = Sim.Summary.create () and b = Sim.Summary.create () in
      List.iter (Sim.Summary.add a) xs;
      List.iter (Sim.Summary.add b) ys;
      let merged = Sim.Summary.merge a b in
      let all = Sim.Summary.create () in
      List.iter (Sim.Summary.add all) (xs @ ys);
      Sim.Summary.count merged = Sim.Summary.count all
      && close (Sim.Summary.mean merged) (Sim.Summary.mean all)
      && (Sim.Summary.count all = 0
         || close (Sim.Summary.median merged) (Sim.Summary.median all)))

let test_total () =
  let s = Sim.Summary.create () in
  List.iter (Sim.Summary.add s) [ 1.; 2.; 3. ];
  Alcotest.(check (float 1e-9)) "total" 6. (Sim.Summary.total s)

let test_cache_invalidation () =
  (* Percentile caches the sorted array; adding must invalidate it. *)
  let s = Sim.Summary.create () in
  Sim.Summary.add s 10.;
  Alcotest.(check (float 0.0)) "before" 10. (Sim.Summary.median s);
  Sim.Summary.add s 0.;
  Alcotest.(check (float 0.0)) "after add" 0. (Sim.Summary.median s)

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "single sample" `Quick test_single;
    Alcotest.test_case "nearest-rank percentiles" `Quick test_percentile_nearest_rank;
    Alcotest.test_case "stddev" `Quick test_stddev;
    Alcotest.test_case "total" `Quick test_total;
    Alcotest.test_case "cache invalidation" `Quick test_cache_invalidation;
    test_mean_matches_naive;
    test_minmax;
    test_percentile_monotone;
    test_merge;
  ]
