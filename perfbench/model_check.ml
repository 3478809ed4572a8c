(* The in-process workload: Harness.Explore exhausting one fixed
   configuration.  No processes and no I/O, so the CPU cost of the node
   step, dependency vectors and the oracle is not buried under fsync;
   fsync and transport changes must show no change here. *)

module E = Harness.Explore
module Cluster = Harness.Cluster

let fail = Live.fail
let now = Live.now

let params ~n ~messages seed =
  { Harness.Schedule.n; k = 1; messages; crashes = 1; flushes = 1; seed }

(* n = 3, k = 1, 3 messages, 1 crash, 1 flush: exactly this many
   schedules up to trace equivalence, whatever the seed. *)
let measured seed = (params ~n:3 ~messages:3 seed, 83059)

(* The warm-up configuration whose runs form the set-up. *)
let warm_up seed = (params ~n:2 ~messages:2 seed, 3605)

let explore (p, expected) =
  let r = Spans.time "harness.explore" (fun () -> E.run p) in
  if r.E.schedules <> expected then
    fail "explore: %d schedules, expected %d" r.E.schedules expected;
  if not r.E.complete then fail "explore: state space not exhausted";
  if r.E.violations <> [] then
    fail "explore: %d violating schedules" (List.length r.E.violations);
  r

(* One random complete schedule of the measured configuration, built and
   certified from scratch the way [experiments explore --replay] does it:
   returns (simulation seconds, oracle seconds).  Traced runs only: single
   schedules take tens of microseconds, too short to time steadily on a
   shared host, so they feed the per-layer split and no end-to-end
   figure. *)
let random_schedule rng p =
  let t0 = now () in
  let cluster =
    Spans.time "sim.run" (fun () ->
        let c = E.build p in
        let rec walk () =
          let runnable =
            List.concat
              (List.mapi
                 (fun i ev -> if ev.Cluster.blocked then [] else [ i ])
                 (Cluster.enabled_events c))
          in
          match runnable with
          | [] -> ()
          | _ ->
            let pos = List.nth runnable (Sim.Rng.int rng (List.length runnable)) in
            if not (Cluster.step_nth c pos) then fail "explore: step %d vanished" pos;
            walk ()
        in
        walk ();
        c)
  in
  let t1 = now () in
  let report =
    Spans.time "harness.oracle" (fun () ->
        Harness.Oracle.check ~k:p.Harness.Schedule.k ~n:p.Harness.Schedule.n
          (Cluster.trace cluster))
  in
  if not (Harness.Oracle.ok report) then fail "explore: a random schedule violates the oracle";
  (t1 -. t0, now () -. t1)

let samples = 5000

let run (ctx : Live.ctx) =
  let setups =
    List.init 5 (fun _ ->
        let t0 = now () in
        ignore (explore (warm_up ctx.Live.seed) : E.result);
        now () -. t0)
  in
  let p, expected = measured ctx.Live.seed in
  let cpu0 = Procs.self_cpu () in
  (* Whole exhausts only, at least two: one exhaust is a single sample of
     a host whose speed drifts. *)
  let runs =
    Live.rounds ctx ~min_rounds:2 (fun _ ->
        let s = now () in
        let r = explore (p, expected) in
        (now () -. s, r))
  in
  let cpu = Procs.self_cpu () -. cpu0 in
  let rss = Procs.self_peak_mb () in
  let walks =
    if not !Spans.on then []
    else begin
      let rng = Sim.Rng.create ctx.Live.seed in
      List.init samples (fun _ -> random_schedule rng p)
    end
  in
  let times = List.map fst runs in
  let schedules = expected * List.length runs in
  let tput = float_of_int schedules /. Stats.sum times in
  let cpu_us = 1e6 *. cpu /. float_of_int schedules in
  let setup = Stats.median setups in
  let r = snd (List.hd runs) in
  let transitions = r.E.transitions + r.E.replayed_transitions in
  let mean_us f = match walks with [] -> 0. | w -> 1e6 *. Stats.mean (List.map f w) in
  {
    Live.attempted = schedules + List.length walks;
    failed = 0;
    e2e =
      [
        ("setup_s", setup);
        ("throughput_per_s", tput);
        ("peak_rss_mb", rss);
        (* The request a model-checking user waits on is a verdict for
           the whole configuration: one exhaust. *)
        ("completion_ms", Live.ms (Stats.median times));
      ];
    named =
      [
        ("setup_s", setup, "s");
        ("schedules_per_s", tput, "1/s");
        ("cpu_us_per_schedule", cpu_us, "us");
        ("exhaust_ms", Live.ms (Stats.median times), "ms");
        ("exhausts", float_of_int (List.length runs), "count");
      ];
    layers =
      [
        ("sim.run_us", mean_us fst);
        ("harness.oracle_us", mean_us snd);
        ("explore.replay_share", Live.ratio r.E.replayed_transitions transitions);
        ("explore.sleep_pruned", float_of_int r.E.sleep_pruned);
      ];
  }
