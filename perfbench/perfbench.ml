(* perfbench: the repository benchmark.

     perfbench --workload {kv-burst|kv-open|recover|explore}
               --seed N --seconds S --trace {0|1} [--exe KOPTNODE]

   Run from the repository root (perfbench/run.sh builds and calls it).
   Prints the run's metadata and its metrics under the workload's own
   names, then, as the last line, one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end set, measured with tracing off; with
   --trace 1 the workload runs twice with the same seed, untraced then
   traced, each pass for half the seconds, and the metrics are the
   per-layer set of the traced pass plus, for every end-to-end metric, the
   tracing overhead (traced minus untraced).  A run whose outputs fail the
   correctness gate exits 1. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("throughput_per_s", "1/s");
    ("peak_rss_mb", "MB");
    ("completion_ms", "ms");
  ]

(* Per-layer metrics, followed in a traced run's output by
   overhead.<metric> for every end-to-end metric.  A workload that does
   not exercise a layer reports 0 for it (no daemon on explore, no kill
   on the kv workloads). *)
let per_layer =
  [
    ("durable.fsync_mean_ms", "ms");
    ("durable.fsyncs_per_kdeliv", "count");
    ("durable.coalesce_ratio", "ratio");
    ("koptnode.handle_us_per_deliv", "us");
    ("koptnode.flush_us_per_deliv", "us");
    ("koptnode.sync_us_per_deliv", "us");
    ("koptnode.dispatch_us_per_deliv", "us");
    ("koptnode.batch_events_mean", "count");
    ("koptnode.cpu_us_per_op", "us");
    ("recovery.dep_entries_mean", "count");
    ("recovery.notices_per_kdeliv", "count");
    ("recovery.acks_per_kdeliv", "count");
    ("recovery.commit_wait_p50_ms", "ms");
    ("recovery.commit_wait_p99_ms", "ms");
    ("recovery.blocked_mean_ms", "ms");
    ("recovery.boot_ms", "ms");
    ("recovery.first_answer_ms", "ms");
    ("recovery.replay_ms", "ms");
    ("recovery.replayed", "count");
    ("recovery.replay_pacing_share", "ratio");
    ("net.frames_sent_per_deliv", "count");
    ("net.frames_recv_per_deliv", "count");
    ("net.inject_us", "us");
    ("net.reconnects", "count");
    ("net.decode_errors", "count");
    ("net.frames_dropped", "count");
    ("shardkv.call_us", "us");
    ("harness.certify_s", "s");
    ("harness.oracle_us", "us");
    ("sim.run_us", "us");
    ("explore.replay_share", "ratio");
    ("explore.sleep_pruned", "count");
    ("obs.scrape_first_ms", "ms");
    ("obs.scrape_last_ms", "ms");
    ("drift.ack_p50_ratio", "ratio");
    ("bench.gen_lag_p99_ms", "ms");
  ]

let workloads =
  [
    ("kv-burst", Live.kv_burst);
    ("kv-open", Live.kv_open);
    ("recover", Live.recover);
    ("explore", Model_check.run);
  ]

let usage () =
  prerr_endline
    "usage: perfbench --workload {kv-burst|kv-open|recover|explore} --seed N \
     --seconds S --trace {0|1} [--exe KOPTNODE]";
  exit 2

(* The checkout carries no VCS metadata, so the build is identified by a
   digest of the sources it was compiled from. *)
let source_digest () =
  let rec files dir =
    match Sys.readdir dir with
    | entries ->
      Array.to_list entries |> List.sort compare
      |> List.concat_map (fun e ->
             let p = Filename.concat dir e in
             if Sys.is_directory p then files p
             else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"
             then [ p ]
             else [])
    | exception Sys_error _ -> []
  in
  List.concat_map files [ "lib"; "bin"; "perfbench" ]
  |> List.map (fun f -> f ^ Digest.to_hex (Digest.file f))
  |> String.concat "" |> Digest.string |> Digest.to_hex

let print_json ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun (name, unit_, v) ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " body)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let exe = ref "_build/default/bin/koptnode.exe" in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: s :: rest -> seed := int_of_string s; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; parse rest
    | "--trace" :: t :: rest -> trace := int_of_string t; parse rest
    | "--exe" :: e :: rest -> exe := e; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let run =
    match List.assoc_opt !workload workloads with Some f -> f | None -> usage ()
  in
  if !trace <> 0 && !trace <> 1 then usage ();
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* An interrupted run still unwinds through every deployment's
     teardown, so no daemon outlives the benchmark. *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> failwith "interrupted")))
    [ Sys.sigint; Sys.sigterm ];
  Durable.Temp.mkdir_p ".perfbench";
  let work = Durable.Temp.fresh_dir ~base:".perfbench" ~prefix:"run" () in
  (* A traced run makes two passes, so each gets half the seconds. *)
  let pass_seconds = if !trace = 1 then !seconds /. 2. else !seconds in
  let ctx = { Live.exe = !exe; work; seed = !seed; seconds = pass_seconds } in
  let flush =
    match Recovery.Config.default_timing.Recovery.Config.flush_interval with
    | Some i -> Fmt.str "group commit, %g-unit flush timer" i
    | None -> "group commit, no flush timer"
  in
  Fmt.pr "# perfbench workload=%s seed=%d seconds=%g trace=%d nproc=%d source=%s@."
    !workload !seed !seconds !trace
    (Domain.recommended_domain_count ())
    (source_digest ());
  Fmt.pr "# daemons: n=%d k=%d, %s at %g s/unit@." Live.n Live.k flush
    Recovery.Config.default_time_scale;
  let print_named (r : Live.result) =
    List.iter
      (fun (name, v, unit_) -> Fmt.pr "%s %s %.6g %s@." !workload name v unit_)
      r.Live.named
  in
  let outcome =
    match
      let base = run ctx in
      print_named base;
      if !trace = 0 then
        (base, List.map (fun (m, u) -> (m, u, List.assoc m base.Live.e2e)) end_to_end)
      else begin
        Spans.enable ();
        let traced = run ctx in
        Spans.dump (Filename.concat ".perfbench" (Fmt.str "spans-%s-%d.tsv" !workload !seed));
        let value name =
          match List.assoc_opt name traced.Live.layers with
          | Some v when Float.is_finite v -> v
          | Some _ | None -> 0.
        in
        let overhead m = List.assoc m traced.Live.e2e -. List.assoc m base.Live.e2e in
        ( {
            traced with
            attempted = base.attempted + traced.attempted;
            failed = base.failed + traced.failed;
          },
          List.map (fun (name, u) -> (name, u, value name)) per_layer
          @ List.map (fun (m, u) -> ("overhead." ^ m, u, overhead m)) end_to_end )
      end
    with
    | r -> Ok r
    | exception Failure msg -> Error msg
    | exception e -> Error (Printexc.to_string e)
  in
  Durable.Temp.rm_rf work;
  match outcome with
  | Ok ((r : Live.result), metrics)
    when r.Live.failed = 0 && List.for_all (fun (_, _, v) -> Float.is_finite v) metrics ->
    print_json ~correct:true ~attempted:r.Live.attempted ~failed:0 metrics
  | Ok (r, metrics) ->
    Fmt.epr "perfbench: %s: %d of %d ops failed or a metric is missing@." !workload
      r.Live.failed r.Live.attempted;
    print_json ~correct:false ~attempted:(Stdlib.max 1 r.Live.attempted)
      ~failed:(Stdlib.max 1 r.Live.failed)
      (List.filter (fun (_, _, v) -> Float.is_finite v) metrics);
    exit 1
  | Error msg ->
    Fmt.epr "perfbench: %s failed the correctness gate: %s@." !workload msg;
    print_json ~correct:false ~attempted:1 ~failed:1 [];
    exit 1
