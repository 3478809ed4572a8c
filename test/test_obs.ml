(* Laws for the observability core: histogram quantile estimates are
   bounded by the recorded extremes, the snapshot merge algebra is
   commutative, and associative up to float rounding, with counter sums
   exact, and the text
   exposition round-trips through its parser.  Snapshots can only be
   built through a registry, so the generators produce little metric
   programs and run them. *)

open Util

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)

open QCheck2.Gen

(* Label values get the characters the escaper must handle. *)
let gen_label_value =
  string_size ~gen:(oneofl [ 'a'; 'z'; '"'; '\\'; '\n'; ' '; '{'; '}'; '='; ',' ])
    (int_bound 6)

let gen_labels =
  let lab name = opt (map (fun v -> (name, v)) gen_label_value) in
  map2 (fun a b -> List.filter_map Fun.id [ a; b ]) (lab "phase") (lab "shard")

(* Observations spanning the bucket range, including exact powers of
   two, zero and sub-nanosecond underflow. *)
let gen_obs_value =
  oneof
    [
      map2
        (fun m e -> (0.001 +. m) *. Float.ldexp 1.0 e)
        (float_bound_inclusive 1.) (int_range (-35) 9);
      map (fun e -> Float.ldexp 1.0 e) (int_range (-35) 9);
      return 0.;
    ]

let gen_obs_list = list_size (int_range 1 30) gen_obs_value

(* A metric program: names come from a fixed pool with a fixed kind per
   name, so any two generated snapshots agree on kinds and overlap. *)
type spec =
  | SC of string * (string * string) list * int
  | SG of string * (string * string) list * float
  | SH of string * (string * string) list * float list

let gen_spec_item =
  oneof
    [
      map3 (fun n ls v -> SC (n, ls, v)) (oneofl [ "c_one"; "c_two" ]) gen_labels (int_bound 1000);
      map3 (fun n ls v -> SG (n, ls, v)) (oneofl [ "g_one" ]) gen_labels (float_bound_inclusive 50.);
      map3 (fun n ls vs -> SH (n, ls, vs)) (oneofl [ "h_one"; "h_two" ]) gen_labels gen_obs_list;
    ]

let gen_spec = list_size (int_bound 8) gen_spec_item

let build spec =
  let reg = Obs.Registry.create () in
  List.iter
    (function
      | SC (n, labels, v) -> Obs.Counter.add (Obs.Registry.counter reg ~labels n) v
      | SG (n, labels, v) -> Obs.Gauge.add (Obs.Registry.gauge reg ~labels n) v
      | SH (n, labels, vs) ->
        let h = Obs.Registry.histogram reg ~labels n in
        List.iter (Obs.Histogram.observe h) vs)
    spec;
  Obs.Registry.snapshot reg

let keys_of spec =
  List.map (function SC (n, ls, _) | SG (n, ls, _) | SH (n, ls, _) -> (n, ls)) spec

(* ------------------------------------------------------------------ *)
(* Histogram laws                                                      *)

let test_quantile_bounded =
  qtest ~count:500 "histogram: quantile estimates bounded by recorded min/max"
    (tup2 gen_obs_list (list_size (int_range 1 5) (float_bound_inclusive 100.)))
    (fun (values, quantiles) ->
      let reg = Obs.Registry.create () in
      let h = Obs.Registry.histogram reg "h_law" in
      List.iter (Obs.Histogram.observe h) values;
      let snap = Obs.Registry.snapshot reg in
      match Obs.Snapshot.hist snap "h_law" with
      | None -> false
      | Some hist ->
        let lo = List.fold_left Float.min infinity values in
        let hi = List.fold_left Float.max neg_infinity values in
        hist.Obs.Snapshot.minv = lo
        && hist.Obs.Snapshot.maxv = hi
        && Obs.Snapshot.hist_count hist = List.length values
        && List.for_all
             (fun p ->
               match Obs.Snapshot.quantile hist p with
               | None -> false
               | Some est -> est >= lo && est <= hi)
             quantiles)

let test_quantile_empty () =
  let reg = Obs.Registry.create () in
  let _ = Obs.Registry.histogram reg "h_empty" in
  let snap = Obs.Registry.snapshot reg in
  match Obs.Snapshot.hist snap "h_empty" with
  | None -> Alcotest.fail "histogram missing from snapshot"
  | Some h ->
    Alcotest.(check bool) "empty quantile is None" true (Obs.Snapshot.quantile h 50. = None);
    Alcotest.(check int) "empty count" 0 (Obs.Snapshot.hist_count h)

(* ------------------------------------------------------------------ *)
(* Merge algebra                                                       *)

let seq = Obs.Snapshot.equal

let test_merge_commutative =
  qtest ~count:300 "merge: commutative" (tup2 gen_spec gen_spec) (fun (sa, sb) ->
      let a = build sa and b = build sb in
      seq (Obs.Snapshot.merge a b) (Obs.Snapshot.merge b a))

(* Floating-point addition is not associative, so regrouping a merge may
   move a gauge value or a histogram [sum] by a rounding step.  Every
   generated addend is non-negative, so the regrouped sums agree to a few
   ulps of their magnitude; counters, bucket counts and extremes must
   still agree exactly. *)
let seq_regrouped a b =
  let close x y = Float.abs (x -. y) <= 1e-12 *. Float.max (Float.abs x) (Float.abs y) in
  let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  let value_close va vb =
    match (va, vb) with
    | Obs.Snapshot.Counter x, Obs.Snapshot.Counter y -> x = y
    | Obs.Snapshot.Gauge x, Obs.Snapshot.Gauge y -> close x y
    | Obs.Snapshot.Hist x, Obs.Snapshot.Hist y ->
      x.counts = y.counts && close x.sum y.sum && same_bits x.minv y.minv
      && same_bits x.maxv y.maxv
    | _ -> false
  in
  let ba = Obs.Snapshot.bindings a and bb = Obs.Snapshot.bindings b in
  List.length ba = List.length bb
  && List.for_all2 (fun (ka, va) (kb, vb) -> ka = kb && value_close va vb) ba bb

let associative a b c =
  seq_regrouped
    (Obs.Snapshot.merge a (Obs.Snapshot.merge b c))
    (Obs.Snapshot.merge (Obs.Snapshot.merge a b) c)

let test_merge_associative =
  qtest ~count:300 "merge: associative" (tup3 gen_spec gen_spec gen_spec)
    (fun (sa, sb, sc) -> associative (build sa) (build sb) (build sc))

(* The shrunk counterexample QCHECK_SEED=926278117 found while the law
   still compared float sums by bits: two tiny gauge values and a large
   one, whose two groupings round one ulp apart. *)
let test_merge_associative_rounding () =
  let a = build [ SC ("c_one", [], 0); SG ("g_one", [], 0x1.00011f52136dcp-48) ] in
  let b = build [ SG ("g_one", [], 0x1.0003919646363p-48) ] in
  let c = build [ SC ("c_one", [], 0); SG ("g_one", [], 0x1.00019287fbe42p+5) ] in
  Alcotest.(check bool) "regrouped merges agree up to rounding" true (associative a b c)

let test_merge_identity =
  qtest ~count:300 "merge: empty is the identity" gen_spec (fun s ->
      let a = build s in
      seq (Obs.Snapshot.merge a Obs.Snapshot.empty) a
      && seq (Obs.Snapshot.merge Obs.Snapshot.empty a) a)

let test_merge_counter_sums =
  qtest ~count:300 "merge: counter sums exact on every key"
    (tup2 gen_spec gen_spec)
    (fun (sa, sb) ->
      let a = build sa and b = build sb in
      let m = Obs.Snapshot.merge a b in
      List.for_all
        (fun (name, labels) ->
          (not (String.length name > 1 && name.[0] = 'c'))
          || Obs.Snapshot.counter m ~labels name
             = Obs.Snapshot.counter a ~labels name + Obs.Snapshot.counter b ~labels name)
        (keys_of sa @ keys_of sb))

let test_merge_kind_clash () =
  let a =
    let reg = Obs.Registry.create () in
    Obs.Counter.incr (Obs.Registry.counter reg "clash");
    Obs.Registry.snapshot reg
  in
  let b =
    let reg = Obs.Registry.create () in
    Obs.Gauge.set (Obs.Registry.gauge reg "clash") 1.;
    Obs.Registry.snapshot reg
  in
  Alcotest.check_raises "kind clash raises"
    (Invalid_argument "Obs.Snapshot.merge: kind clash on \"clash\"") (fun () ->
      ignore (Obs.Snapshot.merge a b : Obs.Snapshot.t))

(* ------------------------------------------------------------------ *)
(* Exposition round trip                                               *)

let test_exposition_roundtrip =
  qtest ~count:500 "exposition: of_text inverts to_text" gen_spec (fun s ->
      let snap = build s in
      match Obs.Snapshot.of_text (Obs.Snapshot.to_text snap) with
      | Ok snap' -> seq snap snap'
      | Error _ -> false)

let test_exposition_rejects () =
  let reject what text =
    match Obs.Snapshot.of_text text with
    | Ok _ -> Alcotest.failf "parser accepted %s" what
    | Error _ -> ()
  in
  reject "a missing header" "# TYPE x counter\nx 1\n";
  reject "an untyped sample" "# koptlog-obs v1\nmystery 4\n";
  reject "a malformed value" "# koptlog-obs v1\n# TYPE x counter\nx one\n";
  reject "an unterminated label set" "# koptlog-obs v1\n# TYPE x counter\nx{a=\"v\" 1\n";
  reject "a histogram without +Inf"
    "# koptlog-obs v1\n# TYPE h histogram\nh_sum 1.0\nh_count 1\nh_min 1.0\nh_max 1.0\n";
  reject "a non-monotone bucket cumulative"
    (String.concat "\n"
       [
         "# koptlog-obs v1";
         "# TYPE h histogram";
         Printf.sprintf "h_bucket{le=\"%.12g\"} 5" (Obs.Histogram.bound 31);
         Printf.sprintf "h_bucket{le=\"%.12g\"} 3" (Obs.Histogram.bound 32);
         "h_bucket{le=\"+Inf\"} 5";
         "h_sum 1.0";
         "h_count 5";
         "h_min 1.0";
         "h_max 1.0";
         "";
       ]);
  (* Stray comments are fine. *)
  match Obs.Snapshot.of_text "# koptlog-obs v1\n# a note\n# TYPE x counter\nx 1\n" with
  | Ok snap -> Alcotest.(check int) "comment skipped, sample kept" 1 (Obs.Snapshot.counter snap "x")
  | Error e -> Alcotest.failf "comment broke the parser: %s" e

let test_registry_guards () =
  let reg = Obs.Registry.create () in
  let _ = Obs.Registry.histogram reg "lat_seconds" in
  let expect_invalid what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s was not rejected" what
  in
  expect_invalid "suffix collision" (fun () -> Obs.Registry.counter reg "lat_seconds_sum");
  expect_invalid "kind clash" (fun () -> Obs.Registry.gauge reg "lat_seconds");
  expect_invalid "bad name" (fun () -> Obs.Registry.counter reg "no spaces");
  expect_invalid "reserved le label" (fun () ->
      Obs.Registry.histogram reg ~labels:[ ("le", "x") ] "other");
  (* get-or-create: same key twice is the same cell *)
  let c1 = Obs.Registry.counter reg ~labels:[ ("a", "1") ] "hits_total" in
  let c2 = Obs.Registry.counter reg ~labels:[ ("a", "1") ] "hits_total" in
  Obs.Counter.incr c1;
  Obs.Counter.incr c2;
  Alcotest.(check int) "one cell behind one key" 2 (Obs.Counter.value c1)

let test_collect_hook () =
  let reg = Obs.Registry.create () in
  let external_count = ref 0 in
  let mirrored = Obs.Registry.counter reg "mirrored_total" in
  Obs.Registry.on_collect reg (fun () -> Obs.Counter.set mirrored !external_count);
  external_count := 7;
  let snap = Obs.Registry.snapshot reg in
  Alcotest.(check int) "hook ran before collection" 7
    (Obs.Snapshot.counter snap "mirrored_total")

let suite =
  [
    test_quantile_bounded;
    Alcotest.test_case "empty histogram has no quantile" `Quick test_quantile_empty;
    test_merge_commutative;
    test_merge_associative;
    Alcotest.test_case "merge: associative on a rounding counterexample" `Quick
      test_merge_associative_rounding;
    test_merge_identity;
    test_merge_counter_sums;
    Alcotest.test_case "merge rejects kind clashes" `Quick test_merge_kind_clash;
    test_exposition_roundtrip;
    Alcotest.test_case "exposition parser rejects malformed text" `Quick
      test_exposition_rejects;
    Alcotest.test_case "registry guards names, kinds and labels" `Quick
      test_registry_guards;
    Alcotest.test_case "collect hooks bridge external counters" `Quick test_collect_hook;
  ]
