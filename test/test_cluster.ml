(* The simulation engine: routing, timers, failures, retransmission by the
   outside world, statistics. *)

module Cluster = Harness.Cluster
module Node = Recovery.Node
module Config = Recovery.Config
module Counter = App_model.Counter_app

let config ?(k = 4) ?(n = 4) () = Config.k_optimistic ~n ~k ()

let test_inject_and_run () =
  let c = Cluster.create ~config:(config ()) ~app:Counter.app ~horizon:100. () in
  Cluster.inject_at c ~time:1. ~dst:2 (Counter.Add 5);
  Cluster.inject_at c ~time:2. ~dst:2 (Counter.Add 7);
  Cluster.run c;
  let st : Counter.state = Node.app_state (Cluster.node c 2) in
  Alcotest.(check int) "both applied" 12 st.total;
  Alcotest.(check int) "stats count deliveries" 2 (Cluster.stats c).deliveries

let test_forwarding_crosses_network () =
  let c = Cluster.create ~config:(config ()) ~app:Counter.app ~horizon:100. () in
  Cluster.inject_at c ~time:1. ~dst:0 (Counter.Forward { dst = 3; amount = 9 });
  Cluster.run c;
  let st : Counter.state = Node.app_state (Cluster.node c 3) in
  Alcotest.(check int) "arrived at P3" 9 st.total

let test_crash_restart_cycle () =
  let c = Cluster.create ~config:(config ()) ~app:Counter.app ~horizon:500. () in
  Cluster.inject_at c ~time:1. ~dst:1 (Counter.Add 5);
  Cluster.crash_at c ~time:50. ~pid:1;
  Cluster.run c;
  Alcotest.(check bool) "back up" true (Node.is_up (Cluster.node c 1));
  Alcotest.(check int) "restart counted" 1 (Cluster.stats c).restarts;
  Alcotest.(check int) "announcement broadcast" 1 (Cluster.stats c).announcements

let test_client_retry_recovers_lost_request () =
  (* Long flush interval: the injected request is still volatile at the
     crash; the outside world retries it after the failure announcement. *)
  let timing =
    { Config.default_timing with flush_interval = Some 1000.; checkpoint_interval = None }
  in
  let c =
    Cluster.create
      ~config:(Config.k_optimistic ~timing ~n:4 ~k:4 ())
      ~app:Counter.app ~horizon:2000. ()
  in
  Cluster.inject_at c ~time:1. ~dst:1 (Counter.Add 5);
  Cluster.crash_at c ~time:10. ~pid:1;
  Cluster.run c;
  let st : Counter.state = Node.app_state (Cluster.node c 1) in
  Alcotest.(check int) "request recovered exactly once" 5 st.total

let test_packets_to_down_node_held () =
  let c = Cluster.create ~config:(config ()) ~app:Counter.app ~horizon:500. () in
  Cluster.crash_at c ~time:5. ~pid:3;
  (* Sent while P3 is down (restart_delay is 30): must arrive after restart. *)
  Cluster.inject_at c ~time:10. ~dst:0 (Counter.Forward { dst = 3; amount = 4 });
  Cluster.run c;
  let st : Counter.state = Node.app_state (Cluster.node c 3) in
  Alcotest.(check int) "held message delivered after restart" 4 st.total

let test_injection_to_down_node_retried () =
  let c = Cluster.create ~config:(config ()) ~app:Counter.app ~horizon:500. () in
  Cluster.crash_at c ~time:5. ~pid:3;
  Cluster.inject_at c ~time:10. ~dst:3 (Counter.Add 4);
  Cluster.run c;
  let st : Counter.state = Node.app_state (Cluster.node c 3) in
  Alcotest.(check int) "retried until the node is back" 4 st.total

let test_run_until_is_partial () =
  let c = Cluster.create ~config:(config ()) ~app:Counter.app ~horizon:100. () in
  Cluster.inject_at c ~time:1. ~dst:0 (Counter.Add 1);
  Cluster.inject_at c ~time:50. ~dst:0 (Counter.Add 1);
  Cluster.run_until c 10.;
  Alcotest.(check int) "only the first processed" 1 (Cluster.stats c).deliveries;
  Cluster.run c;
  Alcotest.(check int) "rest follows" 2 (Cluster.stats c).deliveries

let test_horizon_stops_run () =
  let c = Cluster.create ~config:(config ()) ~app:Counter.app ~horizon:20. () in
  Cluster.inject_at c ~time:50. ~dst:0 (Counter.Add 1);
  Cluster.run c;
  Alcotest.(check int) "beyond the horizon" 0 (Cluster.stats c).deliveries

let test_net_override_controls_latency () =
  let override ~src:_ ~dst:_ ~packet_kind:_ = Some 25. in
  let c =
    Cluster.create ~config:(config ()) ~app:Counter.app ~horizon:100.
      ~net_override:override ~auto_timers:false ()
  in
  Cluster.inject_at c ~time:1. ~dst:0 (Counter.Forward { dst = 1; amount = 1 });
  Cluster.run_until c 20.;
  let st : Counter.state = Node.app_state (Cluster.node c 1) in
  Alcotest.(check int) "not yet arrived" 0 st.total;
  Cluster.run c;
  let st : Counter.state = Node.app_state (Cluster.node c 1) in
  Alcotest.(check int) "arrived after 25 time units" 1 st.total

let test_fifo_channels () =
  (* With FIFO enforced, two sends on the same channel arrive in order even
     under adversarial jitter. *)
  let timing =
    { Config.default_timing with fifo = true; net_jitter = 10.; net_latency = 1. }
  in
  let c =
    Cluster.create
      ~config:(Config.strom_yemini ~timing ~n:2 ())
      ~app:Counter.app ~horizon:200. ~seed:5 ()
  in
  for i = 1 to 10 do
    Cluster.inject_at c
      ~time:(float_of_int i)
      ~dst:0
      (Counter.Forward { dst = 1; amount = i })
  done;
  Cluster.run c;
  let st : Counter.state = Node.app_state (Cluster.node c 1) in
  Alcotest.(check int) "all arrived" 55 st.total;
  (* in-order delivery means the receiver saw them as 1,2,...,10 *)
  Alcotest.(check int) "handled exactly ten" 10 st.handled

let test_determinism_across_runs () =
  let run () =
    let c =
      Cluster.create ~config:(config ()) ~app:App_model.Chatter_app.app ~seed:99
        ~horizon:500. ()
    in
    for i = 0 to 9 do
      Cluster.inject_at c
        ~time:(float_of_int (i + 1))
        ~dst:(i mod 4)
        (App_model.Chatter_app.Token { hops_left = 6; salt = i })
    done;
    Cluster.crash_at c ~time:40. ~pid:2;
    Cluster.run c;
    let s = Cluster.stats c in
    (s.deliveries, s.releases, s.induced_rollbacks, Recovery.Trace.length (Cluster.trace c))
  in
  Alcotest.(check (pair (pair int int) (pair int int)))
    "identical runs"
    (let a, b, c_, d = run () in
     ((a, b), (c_, d)))
    (let a, b, c_, d = run () in
     ((a, b), (c_, d)))

let test_seed_changes_schedule () =
  let run seed =
    let c =
      Cluster.create ~config:(config ()) ~app:App_model.Chatter_app.app ~seed
        ~horizon:300. ()
    in
    for i = 0 to 9 do
      Cluster.inject_at c ~time:(float_of_int (i + 1)) ~dst:(i mod 4)
        (App_model.Chatter_app.Token { hops_left = 6; salt = i })
    done;
    Cluster.run c;
    (Cluster.stats c).makespan
  in
  Alcotest.(check bool) "different seeds differ" true (run 1 <> run 2)

let test_stats_packets () =
  let c = Cluster.create ~config:(config ()) ~app:Counter.app ~horizon:200. () in
  Cluster.inject_at c ~time:1. ~dst:0 (Counter.Forward { dst = 1; amount = 1 });
  Cluster.run c;
  let packets = (Cluster.stats c).packets in
  Alcotest.(check bool) "app packets counted" true (List.mem_assoc "app" packets);
  Alcotest.(check bool) "notices counted" true (List.mem_assoc "notice" packets)

let test_busy_gating_serializes_node () =
  (* With a large per-delivery cost, a node processes back-to-back arrivals
     sequentially: makespan reflects the serialized work. *)
  let timing = { Util.quiet_timing with t_proc = 10. } in
  let c =
    Cluster.create
      ~config:(Config.k_optimistic ~timing ~n:2 ~k:2 ())
      ~app:Counter.app ~horizon:500. ~auto_timers:false ()
  in
  for _ = 1 to 5 do
    Cluster.inject_at c ~time:1. ~dst:0 (Counter.Add 1)
  done;
  Cluster.run c;
  Alcotest.(check bool) "serialized work visible in makespan" true
    (Cluster.now c >= 41.);
  let st : Counter.state = Node.app_state (Cluster.node c 0) in
  Alcotest.(check int) "all processed" 5 st.total

let test_lifo_scheduler_with_crash () =
  (* A perverse execution order — always the newest pending event first —
     must not break the protocol: delivery conditions and the send gate
     are order-independent, and the oracle certifies the trace.  Timers
     are scripted (a periodic timer would always be the newest event), and
     the run proceeds in phases, each drained to quiescence. *)
  let n = 3 in
  let lifo = Sim.Scheduler.of_fun (fun ~n_enabled -> n_enabled - 1) in
  let c =
    Cluster.create
      ~config:(Config.k_optimistic ~timing:Util.quiet_timing ~n ~k:1 ())
      ~app:Counter.app ~auto_timers:false ~scheduler:lifo ()
  in
  let forwards ~from =
    for i = from to from + 9 do
      Cluster.inject_at c
        ~time:(Cluster.now c +. float_of_int (i - from + 1))
        ~dst:(i mod n)
        (Counter.Forward { dst = (i + 1) mod n; amount = i })
    done
  in
  let logging_round () =
    for pid = 0 to n - 1 do
      Cluster.flush_at c ~time:(Cluster.now c +. 1.) ~pid;
      Cluster.notice_at c ~time:(Cluster.now c +. 2.) ~pid
    done;
    Cluster.run c
  in
  forwards ~from:1;
  Cluster.run c;
  logging_round ();
  (* Scheduled before the next injections, so under LIFO the crash runs
     only once they (and everything they caused) have drained: P1 dies
     with unflushed deliveries. *)
  Cluster.crash_at c ~time:(Cluster.now c +. 0.5) ~pid:1;
  forwards ~from:11;
  Cluster.run c;
  logging_round ();
  logging_round ();
  Alcotest.(check int) "one restart" 1 (Cluster.stats c).restarts;
  let report = Harness.Oracle.check ~k:1 ~n (Cluster.trace c) in
  if not (Harness.Oracle.ok report) then
    Alcotest.failf "oracle under LIFO scheduling: %a" Harness.Oracle.pp_report report;
  Alcotest.(check bool) "the crash lost work" true (report.Harness.Oracle.lost > 0)

let suite =
  [
    Alcotest.test_case "inject and run" `Quick test_inject_and_run;
    Alcotest.test_case "forwarding crosses network" `Quick test_forwarding_crosses_network;
    Alcotest.test_case "crash/restart cycle" `Quick test_crash_restart_cycle;
    Alcotest.test_case "client retry recovers lost request" `Quick
      test_client_retry_recovers_lost_request;
    Alcotest.test_case "packets to down node held" `Quick test_packets_to_down_node_held;
    Alcotest.test_case "injection to down node retried" `Quick
      test_injection_to_down_node_retried;
    Alcotest.test_case "run_until is partial" `Quick test_run_until_is_partial;
    Alcotest.test_case "horizon stops run" `Quick test_horizon_stops_run;
    Alcotest.test_case "net override controls latency" `Quick test_net_override_controls_latency;
    Alcotest.test_case "fifo channels" `Quick test_fifo_channels;
    Alcotest.test_case "determinism across runs" `Quick test_determinism_across_runs;
    Alcotest.test_case "seed changes schedule" `Quick test_seed_changes_schedule;
    Alcotest.test_case "stats packets" `Quick test_stats_packets;
    Alcotest.test_case "busy gating serializes a node" `Quick test_busy_gating_serializes_node;
    Alcotest.test_case "LIFO scheduler with a crash: oracle clean" `Quick
      test_lifo_scheduler_with_crash;
  ]
