(* The bounded model checker and the serialized schedule format. *)

module Config = Recovery.Config
module Schedule = Harness.Schedule
module Explore = Harness.Explore
module Chaos = Harness.Chaos
module Counter = App_model.Counter_app

let tiny : Schedule.explore_params =
  { Schedule.n = 2; k = 1; messages = 2; crashes = 1; flushes = 1; seed = 1 }

let send_gate_broken = { Config.no_breakage with Config.break_send_gate = true }

let test_exhausts_and_certifies () =
  let r = Explore.run tiny in
  Alcotest.(check bool) "state space exhausted" true r.Explore.complete;
  Alcotest.(check int) "no violations" 0 (List.length r.Explore.violations);
  (* Pinned: a protocol or recovery change that reshapes the state space
     must show up here, not only in the benchmark's schedule count. *)
  Alcotest.(check int) "schedules" 3605 r.Explore.schedules;
  Alcotest.(check int) "pruned subtrees" 1863 r.Explore.sleep_terminals;
  (* A fork that leaked state between siblings would move these. *)
  Alcotest.(check int) "slept candidates" 4957 r.Explore.sleep_pruned;
  Alcotest.(check int) "transitions" 15485 r.Explore.transitions;
  Alcotest.(check int) "max depth" 13 r.Explore.max_depth_seen;
  Alcotest.(check int) "no prefix replay" 0 r.Explore.replayed_transitions;
  Alcotest.(check bool) "risk within K" true (r.Explore.max_risk <= tiny.Schedule.k)

let test_exploration_deterministic () =
  let strip r = { r with Explore.violations = [] } in
  let r1 = Explore.run tiny and r2 = Explore.run tiny in
  Alcotest.(check bool) "identical statistics on identical runs" true
    (strip r1 = strip r2 && r1.Explore.violations = r2.Explore.violations)

let test_k_boundaries () =
  (* K=0 is the pessimistic end: no released message can be revoked by
     anyone, in *every* schedule.  K=N never gates, so the risk bound is
     the trivial one — but still must hold. *)
  let r0 = Explore.run { tiny with Schedule.k = 0 } in
  Alcotest.(check bool) "K=0 complete+clean" true
    (r0.Explore.complete && Explore.ok r0);
  Alcotest.(check int) "K=0: zero risk in every schedule" 0 r0.Explore.max_risk;
  let rn = Explore.run { tiny with Schedule.k = 2 } in
  Alcotest.(check bool) "K=N complete+clean" true
    (rn.Explore.complete && Explore.ok rn);
  Alcotest.(check bool) "K=N: risk bounded by N" true (rn.Explore.max_risk <= 2)

let test_broken_send_gate_caught () =
  let r = Explore.run ~breakage:send_gate_broken tiny in
  Alcotest.(check bool) "violations found" true (r.Explore.violations <> []);
  let sched, notes = List.hd r.Explore.violations in
  let contains ~needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "oracle names Theorem 4" true
    (List.exists (contains ~needle:"Theorem 4") notes);
  Alcotest.(check bool) "counter-example records its choices" true
    (sched.Schedule.choices <> []);
  (* The schedule round-trips through the codec byte-for-byte ... *)
  (match Schedule.of_string (Schedule.to_string sched) with
  | Ok sched' ->
    Alcotest.(check bool) "codec round-trip" true (sched' = sched);
    Alcotest.(check string) "byte-stable re-encoding"
      (Schedule.to_string sched) (Schedule.to_string sched')
  | Error msg -> Alcotest.failf "re-parse failed: %s" msg);
  (* ... and replays to the verdict class it recorded. *)
  let verdict = Explore.replay sched in
  Alcotest.(check bool) "replays to recorded verdict" true
    (Explore.verdict_matches sched.Schedule.expect verdict)

let test_preemption_bound_truncates () =
  let bounds =
    { Explore.default_bounds with Explore.preemptions = Some 1 }
  in
  let r = Explore.run ~bounds tiny in
  Alcotest.(check bool) "bounded search is a strict under-approximation" true
    (r.Explore.truncated > 0 && not r.Explore.complete);
  Alcotest.(check bool) "still clean" true (Explore.ok r);
  let full = Explore.run tiny in
  Alcotest.(check bool) "explores fewer schedules than the full search" true
    (r.Explore.schedules < full.Explore.schedules)

let test_replay_canonical_drain () =
  (* An empty choice list means: drain in canonical order.  That replay is
     deterministic and certified. *)
  match Explore.replay_explore tiny ~choices:[] with
  | Chaos.Certified _ -> ()
  | v -> Alcotest.failf "canonical drain not certified: %a" Chaos.pp_verdict v

let test_schedule_codec_errors () =
  let bad s =
    match Schedule.of_string s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "empty" true (bad "");
  Alcotest.(check bool) "bad magic" true (bad "koptlog-schedule v0\nname: x\n");
  Alcotest.(check bool) "missing scenario" true
    (bad "koptlog-schedule v1\nname: x\nexpect: certified\n");
  Alcotest.(check bool) "unknown expect" true
    (bad
       "koptlog-schedule v1\nname: x\nexpect: maybe\nscenario: figure1 improved\n");
  Alcotest.(check bool) "fault line under explore" true
    (bad
       "koptlog-schedule v1\nname: x\nexpect: certified\nscenario: explore n=2 \
        k=1 messages=1 crashes=0 flushes=0 seed=1\nfault: loss 0.5\n")

let test_chaos_schedule_roundtrip () =
  (* Every fault constructor, odd floats included, survives the codec. *)
  let case =
    {
      Schedule.n = 5;
      k = 2;
      seed = 10_007;
      faults =
        [
          Schedule.Loss 0.037_000_000_000_000_005;
          Schedule.Duplication (1. /. 3.);
          Schedule.Reorder (0.2, 17.25);
          Schedule.Partition
            { group = [ 0; 2; 4 ]; from_ = 40.5; until = 90.125; drop = false };
          Schedule.Crash { kind = Schedule.Single 1; time = 55. };
          Schedule.Crash { kind = Schedule.Group [ 0; 3 ]; time = 60. };
          Schedule.Crash { kind = Schedule.Cascade [ 1; 2; 3 ]; time = 70. };
          Schedule.Crash { kind = Schedule.In_checkpoint 2; time = 80. };
          Schedule.Crash { kind = Schedule.In_flush 4; time = 85. };
          Schedule.Kill { pid = 3; time = 100.; storage = None };
          Schedule.Kill
            {
              pid = 1;
              time = 120.;
              storage = Some (List.hd Durable.Fault.all);
            };
        ];
    }
  in
  let sched =
    {
      Schedule.name = "roundtrip-all-faults";
      expect = Schedule.Violated;
      breakage =
        { Config.no_breakage with
          Config.break_orphan_check = true;
          break_send_gate = true;
        };
      scenario = Schedule.Chaos { case; calls = 42 };
      choices = [];
    }
  in
  match Schedule.of_string (Schedule.to_string sched) with
  | Ok sched' -> Alcotest.(check bool) "round-trip" true (sched = sched')
  | Error msg -> Alcotest.failf "re-parse failed: %s" msg

let test_chaos_to_schedule_replays () =
  (* A deliberately broken protocol fails a chaos case; the shrunk case
     wrapped as a schedule must replay to the same verdict class. *)
  let rng = Sim.Rng.create 7 in
  let case = Chaos.random_case rng ~index:0 in
  let outcome = Chaos.run_case ~breakage:send_gate_broken ~calls:20 case in
  if Chaos.verdict_failed outcome.Chaos.verdict then begin
    let minimal = Chaos.shrink ~breakage:send_gate_broken case in
    let verdict =
      (Chaos.run_case ~breakage:send_gate_broken minimal).Chaos.verdict
    in
    let sched =
      Chaos.to_schedule ~breakage:send_gate_broken ~calls:60 ~name:"shrunk" minimal
        verdict
    in
    let replayed = Explore.replay sched in
    Alcotest.(check bool) "minimized chaos case replays via schedule" true
      (Explore.verdict_matches sched.Schedule.expect replayed)
  end
  (* If this particular case happens to pass even when broken, the corpus
     test still covers the chaos replay path with a pinned failing case. *)

let test_earliest_scheduler_transparent () =
  (* A Scheduler that always picks index 0 must be observationally
     identical to running without one, on a timed, crashy workload. *)
  let run scheduler =
    let config = Config.k_optimistic ~n:3 ~k:1 () in
    let cluster =
      Harness.Cluster.create ~config ~app:Counter.app ~seed:11 ?scheduler ()
    in
    for i = 1 to 8 do
      Harness.Cluster.inject_at cluster
        ~time:(10. *. float_of_int i)
        ~dst:(i mod 3)
        (Counter.Forward { dst = (i + 1) mod 3; amount = i })
    done;
    Harness.Cluster.crash_at cluster ~time:35. ~pid:1;
    Harness.Cluster.run cluster;
    Harness.Cluster.stats cluster
  in
  let default = run None and earliest = run (Some (Sim.Scheduler.earliest ())) in
  Alcotest.(check bool) "bit-identical statistics" true (default = earliest)

(* ------------------------------------------------------------------ *)
(* Forking a cluster: the state the stateful search branches from      *)

module Cluster = Harness.Cluster
module Node = Recovery.Node
module Trace = Recovery.Trace
module Kv = App_model.Kvstore_app

(* The benchmark's configuration: big enough for crashes, rollbacks and
   held packets to land mid-schedule. *)
let explore33 : Schedule.explore_params =
  { Schedule.n = 3; k = 1; messages = 3; crashes = 1; flushes = 1; seed = 1 }

(* Everything a node exposes, rendered: protocol state, application
   digest, log and sync-area counters, per-process tables and recovery
   progress. *)
let node_digest (app : (_, _) App_model.App_intf.t) nd =
  let rows f =
    String.concat ";"
      (List.init (Node.membership_n nd) (fun j -> Fmt.str "%a" Depend.Entry_set.pp (f nd j)))
  in
  Fmt.str "%a app=%d log=%d+%d/%d sync=%d flushes=%d outs=%d pending=%d log=[%s] iet=[%s]"
    Node.pp_state nd
    (app.App_model.App_intf.digest (Node.app_state nd))
    (Node.stable_log_length nd) (Node.volatile_log_length nd) (Node.live_log_records nd)
    (Node.sync_writes nd) (Node.flushes nd)
    (List.length (Node.committed_outputs nd))
    (Node.recovery_pending nd) (rows Node.log_row) (rows Node.iet_row)

(* An immutable snapshot of a cluster: later steps cannot reach into it. *)
type snap = {
  events : Trace.entry list;
  digests : string list;
  metrics : Recovery.Metrics.t list;
  pending : (int * float * int option * bool) list;
  stats : Cluster.stats;
}

let snap app c =
  let nodes = Array.to_list (Cluster.nodes c) in
  {
    events = Trace.events (Cluster.trace c);
    digests = List.map (node_digest app) nodes;
    metrics = List.map (fun nd -> Recovery.Metrics.copy (Node.metrics nd)) nodes;
    pending =
      List.map
        (fun ev -> Cluster.(ev.key, ev.at, ev.pid, ev.blocked))
        (Cluster.enabled_events c);
    stats = Cluster.stats c;
  }

let check_snap ~msg expected actual =
  Alcotest.(check int) (msg ^ ": trace length") (List.length expected.events)
    (List.length actual.events);
  Alcotest.(check bool) (msg ^ ": trace events") true (expected.events = actual.events);
  Alcotest.(check (list string)) (msg ^ ": node digests") expected.digests actual.digests;
  Alcotest.(check bool) (msg ^ ": node metrics") true (expected.metrics = actual.metrics);
  Alcotest.(check bool) (msg ^ ": pending events") true (expected.pending = actual.pending);
  Alcotest.(check bool) (msg ^ ": cluster stats") true (expected.stats = actual.stats)

let step_exn c pos = if not (Cluster.step_nth c pos) then Alcotest.failf "step %d vanished" pos

(* Execute one uniformly chosen runnable event; its position, or [None]
   when nothing is runnable. *)
let random_step rng c =
  let runnable =
    List.concat
      (List.mapi
         (fun i ev -> if ev.Cluster.blocked then [] else [ i ])
         (Cluster.enabled_events c))
  in
  match runnable with
  | [] -> None
  | _ ->
    let pos = List.nth runnable (Sim.Rng.int rng (List.length runnable)) in
    step_exn c pos;
    Some pos

let rec walk ?(limit = max_int) rng c =
  if limit = 0 then []
  else
    match random_step rng c with
    | None -> []
    | Some pos -> pos :: walk ~limit:(limit - 1) rng c

let gen_walk = QCheck2.Gen.(pair (int_bound 1_000_000) (int_bound 20))

let law_copy_eq_rebuild =
  Util.qtest ~count:60 "copy + continuation == rebuild + prefix replay" gen_walk
    (fun (seed, cut) ->
      let rng = Sim.Rng.create seed in
      let orig = Explore.build explore33 in
      let prefix = walk ~limit:cut rng orig in
      let fork = Cluster.copy orig in
      let suffix = walk rng fork in
      let rebuilt = Explore.build explore33 in
      List.iter (step_exn rebuilt) (prefix @ suffix);
      check_snap ~msg:"fork vs rebuilt" (snap Counter.app rebuilt) (snap Counter.app fork);
      Alcotest.(check bool) "fork's trace certified" true
        (Harness.Oracle.ok
           (Harness.Oracle.check ~k:explore33.Schedule.k ~n:explore33.Schedule.n
              (Cluster.trace fork)));
      true)

(* Fork [orig] (reached from [make ()] by [prefix]), step the fork and
   then the original with [walk], and check that neither run disturbed the
   other: the snapshots taken between the runs hold, and each cluster ends
   where a rebuilt cluster fed the same operations ends.  The rebuilt
   comparison also catches hidden state a snapshot cannot see (a shared
   vector inside a buffered send, a shared replay queue). *)
let check_fork_isolated ~app ~make ~apply ~prefix ~walk orig =
  let fork = Cluster.copy orig in
  let at_fork = snap app orig in
  check_snap ~msg:"fresh fork" at_fork (snap app fork);
  let fork_ops = walk fork in
  check_snap ~msg:"original after stepping the fork" at_fork (snap app orig);
  let fork_done = snap app fork in
  let orig_ops = walk orig in
  check_snap ~msg:"fork after stepping the original" fork_done (snap app fork);
  let rebuilt ops =
    let c = make () in
    List.iter (apply c) (prefix @ ops);
    snap app c
  in
  check_snap ~msg:"fork vs rebuilt" (rebuilt fork_ops) fork_done;
  check_snap ~msg:"original vs rebuilt" (rebuilt orig_ops) (snap app orig)

let law_copy_isolated =
  Util.qtest ~count:100 "stepping a copy or its original leaves the other untouched"
    gen_walk (fun (seed, cut) ->
      let rng = Sim.Rng.create seed in
      let make () = Explore.build explore33 in
      let orig = make () in
      let prefix = walk ~limit:cut rng orig in
      check_fork_isolated ~app:Counter.app ~make ~apply:step_exn ~prefix
        ~walk:(walk rng) orig;
      true)

(* A kvstore cluster with K = 0 (every send waits for stability), stopped
   with P0 in background recovery: P0 crashed after its first flush and
   came back through [restart_begin], so its replay queues are non-empty,
   while sends of the unflushed second wave sit in the send buffers.  The
   restart's actions are dropped: the laws below need a deterministic
   state to fork, not a certified run. *)
let kv_mid_recovery () =
  let config = Config.k_optimistic ~timing:Util.quiet_timing ~n:3 ~k:0 () in
  let c =
    Cluster.create ~config ~app:Kv.app ~seed:5 ~auto_timers:false
      ~net_override:(fun ~src:_ ~dst:_ ~packet_kind:_ -> Some 0.)
      ()
  in
  let put time i =
    Cluster.inject_at c ~time ~dst:(i mod 3) (Kv.Put { key = Fmt.str "k%d" i; value = i })
  in
  for i = 0 to 5 do put 0. i done;
  for pid = 0 to 2 do Cluster.flush_at c ~time:10. ~pid done;
  for i = 6 to 11 do put 20. i done;
  Cluster.run_until c 25.;
  let p0 = Cluster.node c 0 in
  Node.crash p0 ~now:(Cluster.now c);
  ignore (Node.restart_begin p0 ~now:(Cluster.now c) : _ list * _);
  c

type kv_op = Step of int | Replay of { prefer : int; budget : int }

let apply_kv_op c = function
  | Step pos -> step_exn c pos
  | Replay { prefer; budget } ->
    ignore
      (Node.replay_step (Cluster.node c 0) ~now:(Cluster.now c) ~prefer ~budget ()
        : int * _ list * _)

(* Random continuation mixing event steps with P0's replay steps. *)
let rec kv_walk rng c =
  let recovering = Node.recovery_active (Cluster.node c 0) in
  let apply op =
    apply_kv_op c op;
    op :: kv_walk rng c
  in
  if recovering && Sim.Rng.bool rng then
    apply (Replay { prefer = Sim.Rng.int rng Kv.parts; budget = 1 + Sim.Rng.int rng 3 })
  else
    match random_step rng c with
    | Some pos -> Step pos :: kv_walk rng c
    | None when recovering -> apply (Replay { prefer = 0; budget = Kv.parts })
    | None -> []

let law_copy_mid_recovery =
  Util.qtest ~count:60 "kvstore copied mid-recovery == rebuild + same ops"
    QCheck2.Gen.(int_bound 1_000_000) (fun seed ->
      let orig = kv_mid_recovery () in
      Alcotest.(check bool) "P0 is mid-recovery" true
        (Node.recovery_pending (Cluster.node orig 0) > 0);
      Alcotest.(check bool) "sends are buffered" true
        (Array.exists (fun nd -> Node.send_buffer_size nd > 0) (Cluster.nodes orig));
      check_fork_isolated ~app:Kv.app ~make:kv_mid_recovery ~apply:apply_kv_op ~prefix:[]
        ~walk:(kv_walk (Sim.Rng.create seed)) orig;
      Alcotest.(check bool) "replay ran to completion" false
        (Node.recovery_active (Cluster.node orig 0));
      true)

let test_copy_refuses_files_and_schedulers () =
  let config = Config.k_optimistic ~n:2 ~k:1 () in
  let root = Durable.Temp.fresh_dir ~prefix:"explore-copy" () in
  Fun.protect
    ~finally:(fun () -> Durable.Temp.rm_rf root)
    (fun () ->
      let c = Cluster.create ~config ~app:Counter.app ~store_root:root () in
      Alcotest.check_raises "cluster over a store root"
        (Invalid_argument "Cluster.copy: the cluster owns store files") (fun () ->
          ignore (Cluster.copy c : _ Cluster.t));
      let d = Util.Driver.make ~store_dir:(Filename.concat root "solo") config Counter.app in
      Alcotest.check_raises "node over a durable store"
        (Invalid_argument "Stable_store.copy: a durable store owns files") (fun () ->
          ignore (Node.copy ~trace:(Trace.create ()) d.Util.Driver.node : _ Node.t)));
  let c =
    Cluster.create ~config ~app:Counter.app ~scheduler:(Sim.Scheduler.earliest ()) ()
  in
  Alcotest.check_raises "cluster with a custom scheduler"
    (Invalid_argument "Cluster.copy: a custom scheduler cannot be forked") (fun () ->
      ignore (Cluster.copy c : _ Cluster.t))

let suite =
  [
    Alcotest.test_case "exhausts a tiny config, POR prunes, oracle clean" `Slow
      test_exhausts_and_certifies;
    Alcotest.test_case "exploration is deterministic" `Slow
      test_exploration_deterministic;
    Alcotest.test_case "K=0 and K=N boundaries" `Slow test_k_boundaries;
    Alcotest.test_case "broken send gate yields replayable counter-example" `Slow
      test_broken_send_gate_caught;
    Alcotest.test_case "preemption bound under-approximates" `Slow
      test_preemption_bound_truncates;
    Alcotest.test_case "empty choices = canonical drain, certified" `Quick
      test_replay_canonical_drain;
    Alcotest.test_case "codec rejects malformed schedules" `Quick
      test_schedule_codec_errors;
    Alcotest.test_case "chaos schedule round-trips all fault kinds" `Quick
      test_chaos_schedule_roundtrip;
    Alcotest.test_case "shrunk chaos case replays via schedule" `Slow
      test_chaos_to_schedule_replays;
    Alcotest.test_case "earliest scheduler is transparent" `Quick
      test_earliest_scheduler_transparent;
    law_copy_eq_rebuild;
    law_copy_isolated;
    law_copy_mid_recovery;
    Alcotest.test_case "copy refuses store files and custom schedulers" `Quick
      test_copy_refuses_files_and_schedulers;
  ]
