(* Fast-recovery unit + property tests, on a single node over the
   in-memory store (crash + restart on the same handle):

   - QCheck law: replay after a crash — background ([restart_begin] +
     [replay_step] in any preference order, any budgets) and synchronous
     ([restart]) — reaches the state of a never-crashed twin fed only the
     stable prefix, for any op sequence and any stability point at the
     crash; over kvstore (eight partitions) and over the unpartitioned
     counter app (one partition).
   - QCheck law: a prefix captured by incremental [Part_ckpt] snapshots
     plus replay of the remainder equals the never-crashed twin.
   - Scripted on-demand timeline: a Get for an already-replayed partition
     is answered while another partition is still replaying; a Get parked
     on an unrecovered partition is answered only after that partition's
     replay completes — from the replayed state, never the pre-crash
     (wiped) one.
   - Records delivered inside a recovery window are never re-certified:
     a later restart or rollback replays them cleanly. *)

module Node = Recovery.Node
module Trace = Recovery.Trace
module App = App_model.Kvstore_app
module Counter = App_model.Counter_app
module D = Util.Driver

(* One process, K = 0, no timers: kvstore keys are all locally owned
   (owner hash mod 1), so every Put is one local log record and the
   recovery partitioning (the second, independent key hash) is the only
   sharding in play. *)
let config () = Recovery.Config.k_optimistic ~timing:Util.quiet_timing ~n:1 ~k:0 ()

let parts = App.parts

(* A small key pool with a known partition for each key. *)
let key_of i = Fmt.str "law-%d" i

let kv_op (ki, v) = App.Put { key = key_of ki; value = v }

(* Counter ops: mostly adds, every fifth a Report, so replay also
   regenerates outputs. *)
let counter_op (ki, v) = if ki mod 5 = 0 then Counter.Report else Counter.Add v

let feed d ops ~flush_at =
  List.iteri
    (fun i msg ->
      D.inject d ~seq:(i + 1) msg;
      if i + 1 = flush_at then D.flush d)
    ops

(* The independent reference: a twin that never crashes, fed only the ops
   that were stable at the crash.  Its live state is what serial execution
   of the surviving log produces, reached without any replay code. *)
let twin app ops ~stable =
  let d = D.make (config ()) app in
  feed d (List.filteri (fun i _ -> i < stable) ops) ~flush_at:stable;
  d

let drain_replay ?(rng = fun _ -> 0) node =
  let fuel = ref 10_000 in
  while Node.recovery_active node do
    decr fuel;
    if !fuel = 0 then Alcotest.fail "replay made no progress";
    let prefer = rng parts in
    let budget = 1 + rng 3 in
    ignore
      (Node.replay_step node ~now:2000. ~prefer ~budget () : int * _ list * _)
  done

(* A seed-dependent preference order with small uneven budgets. *)
let seeded_rng seed =
  let state = ref seed in
  fun bound ->
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod bound

(* Whole-state digest plus each partition's digest. *)
let digests (app : (_, _) App_model.App_intf.t) node =
  app.digest (Node.app_state node)
  :: List.init (Node.partition_count node) (fun p ->
         Option.get (Node.partition_digest node p))

let check_digests ~msg app ~reference d =
  Alcotest.(check (list int)) msg (digests app reference.D.node) (digests app d.D.node)

let check_oracle ~k ~n trace =
  let report = Harness.Oracle.check ~k ~n trace in
  Alcotest.(check (list string)) "oracle violations" [] report.Harness.Oracle.violations

(* Generator: an op sequence over a 24-key pool, a stability point (flush
   position) and a seed for the replay preference/budget walk. *)
let gen_case =
  QCheck2.Gen.(
    triple
      (list_size (int_range 1 40) (pair (int_bound 23) (int_bound 99)))
      (int_bound 40) (int_bound 1000))

let law_replay_eq_twin ~name app to_msg =
  Util.qtest ~count:80 name gen_case (fun (ops, flush_at, seed) ->
      let ops = List.map to_msg ops in
      let flush_at = min flush_at (List.length ops) in
      let reference = twin app ops ~stable:flush_at in
      (* A: background replay; B: synchronous restart. *)
      let a = D.make (config ()) app in
      let b = D.make (config ()) app in
      feed a ops ~flush_at;
      feed b ops ~flush_at;
      D.crash a;
      D.crash b;
      ignore (Node.restart_begin a.D.node ~now:1000. : _ list * _);
      drain_replay ~rng:(seeded_rng seed) a.D.node;
      ignore (Node.restart b.D.node ~now:1000. : _ list * _);
      check_digests ~msg:"restart_begin + replay_step" app ~reference a;
      check_digests ~msg:"restart" app ~reference b;
      check_oracle ~k:0 ~n:1 a.D.trace;
      check_oracle ~k:0 ~n:1 b.D.trace;
      true)

let law_partitioned_eq_serial =
  law_replay_eq_twin ~name:"partitioned replay == serial run of the stable prefix"
    App.app kv_op

let law_unpartitioned_eq_serial =
  law_replay_eq_twin ~name:"one-partition replay == serial run of the stable prefix"
    Counter.app counter_op

let law_ckpt_prefix_eq_twin =
  Util.qtest ~count:80 "Part_ckpt prefix + remainder == never-crashed twin" gen_case
    (fun (ops, split, seed) ->
      let ops = List.map kv_op ops in
      let split = min split (List.length ops) in
      let prefix = List.filteri (fun i _ -> i < split) ops in
      let rest = List.filteri (fun i _ -> i >= split) ops in
      let reference = twin App.app ops ~stable:(List.length ops) in
      (* A and B snapshot every dirty partition after the prefix, then
         take the rest; A recovers in the background, B synchronously. *)
      let snapshotted () =
        let d = D.make (config ()) App.app in
        feed d prefix ~flush_at:split;
        let rec snap n =
          if n > 0 then begin
            let did, _, _ = Node.partition_checkpoint d.D.node ~now:500. in
            if did then snap (n - 1)
          end
        in
        snap parts;
        List.iteri (fun i msg -> D.inject d ~seq:(split + i + 1) msg) rest;
        D.flush d;
        D.crash d;
        d
      in
      let a = snapshotted () in
      let b = snapshotted () in
      ignore (Node.restart_begin a.D.node ~now:1000. : _ list * _);
      drain_replay ~rng:(seeded_rng seed) a.D.node;
      ignore (Node.restart b.D.node ~now:1000. : _ list * _);
      check_digests ~msg:"restart_begin + replay_step" App.app ~reference a;
      check_digests ~msg:"restart" App.app ~reference b;
      check_oracle ~k:0 ~n:1 a.D.trace;
      check_oracle ~k:0 ~n:1 b.D.trace;
      true)

(* ------------------------------------------------------------------ *)
(* Scripted on-demand timeline                                         *)

let committed_outputs trace =
  List.filter_map
    (fun { Trace.ev; _ } ->
      match ev with
      | Trace.Output_committed { text; _ } -> Some text
      | _ -> None)
    (Trace.events trace)

let test_on_demand_timeline () =
  (* Two keys in different recovery partitions. *)
  let ka = key_of 0 in
  let pa = App.part_of_key ka in
  let kb =
    let rec find i =
      if App.part_of_key (key_of i) <> pa then key_of i else find (i + 1)
    in
    find 1
  in
  let pb = App.part_of_key kb in
  let d = D.make (config ()) App.app in
  D.inject d ~seq:1 (App.Put { key = ka; value = 5 });
  D.inject d ~seq:2 (App.Put { key = kb; value = 6 });
  D.inject d ~seq:3 (App.Put { key = ka; value = 7 });
  D.inject d ~seq:4 (App.Put { key = kb; value = 8 });
  D.flush d;
  D.crash d;
  ignore (Node.restart_begin d.D.node ~now:1000. : _ list * _);
  Alcotest.(check bool) "recovery active" true (Node.recovery_active d.D.node);
  Alcotest.(check int) "four records pending" 4 (Node.recovery_pending d.D.node);
  (* Replay exactly partition A (two records); B stays pending. *)
  let executed, _, _ =
    Node.replay_step d.D.node ~now:1001. ~prefer:pa ~budget:2 ()
  in
  Alcotest.(check int) "A's two records replayed" 2 executed;
  Alcotest.(check bool) "A recovered" true (Node.partition_recovered d.D.node pa);
  Alcotest.(check bool) "B not recovered" false
    (Node.partition_recovered d.D.node pb);
  (* A Get on the recovered partition is answered now — mid-recovery —
     and from the replayed state (v7, version 2). *)
  D.inject d ~seq:10 (App.Get ka);
  D.flush d;
  Alcotest.(check bool) "still recovering" true (Node.recovery_active d.D.node);
  Alcotest.(check (list string))
    "Get on recovered partition answered mid-replay"
    [ Fmt.str "get %s -> 7 (v2)" ka ]
    (committed_outputs d.D.trace);
  (* A Get on the unrecovered partition parks: no answer, not even a
     wrong one from the wiped pre-crash state. *)
  D.inject d ~seq:11 (App.Get kb);
  D.flush d;
  Alcotest.(check int) "parked in the receive buffer" 1
    (Node.receive_buffer_size d.D.node);
  Alcotest.(check (list string))
    "parked Get not answered"
    [ Fmt.str "get %s -> 7 (v2)" ka ]
    (committed_outputs d.D.trace);
  (* Finish B's replay: recovery completes, the parked Get drains and is
     answered from the replayed state. *)
  let executed, _, _ =
    Node.replay_step d.D.node ~now:1002. ~prefer:pb ~budget:100 ()
  in
  Alcotest.(check int) "B's two records replayed" 2 executed;
  Alcotest.(check bool) "recovery complete" false (Node.recovery_active d.D.node);
  D.flush d;
  Alcotest.(check (list string))
    "parked Get answered after its partition's replay"
    [ Fmt.str "get %s -> 7 (v2)" ka; Fmt.str "get %s -> 8 (v2)" kb ]
    (committed_outputs d.D.trace);
  let completed =
    List.exists
      (fun { Trace.ev; _ } ->
        match ev with Trace.Recovery_completed _ -> true | _ -> false)
      (Trace.events d.D.trace)
  in
  Alcotest.(check bool) "Recovery_completed traced" true completed

(* ------------------------------------------------------------------ *)
(* Records delivered inside a recovery window                          *)

(* Two keys owned by [pid] (for [n] processes) in different recovery
   partitions, and a partition-A-only replay window: Put A, B, A, B; crash;
   come back with [restart_begin]; replay only A's two records; Put A live
   while B is still pending (that record is window-marked: its live digest
   covers a state where B is still at its checkpoint); finish; flush. *)
let window_prefix d ~n =
  let owned i = App.owner ~n (key_of i) = Node.pid d.D.node in
  let rec find i pred =
    if owned i && pred (key_of i) then key_of i else find (i + 1) pred
  in
  let ka = find 0 (fun _ -> true) in
  let pa = App.part_of_key ka in
  let kb = find 0 (fun k -> App.part_of_key k <> pa) in
  List.iteri
    (fun i key -> D.inject d ~seq:(i + 1) (App.Put { key; value = i }))
    [ ka; kb; ka; kb ];
  D.flush d;
  D.crash d;
  D.absorb d (Node.restart_begin d.D.node ~now:(D.tick d));
  let executed, actions, cost =
    Node.replay_step d.D.node ~now:(D.tick d) ~prefer:pa ~budget:2 ()
  in
  Alcotest.(check int) "A's records replayed" 2 executed;
  D.absorb d (actions, cost);
  D.inject d ~seq:5 (App.Put { key = ka; value = 9 });
  drain_replay d.D.node;
  D.flush d

let test_window_record_restart () =
  let d = D.make (config ()) App.app in
  window_prefix d ~n:1;
  D.crash d;
  D.restart d;
  check_oracle ~k:0 ~n:1 d.D.trace

let test_window_record_rollback () =
  let config = Recovery.Config.k_optimistic ~timing:Util.quiet_timing ~n:2 ~k:2 () in
  let trace = Trace.create () in
  let p0 = D.make ~trace config App.app in
  let p1 = D.make ~pid:1 ~trace config App.app in
  window_prefix p0 ~n:2;
  (* P1 applies four Puts to a key it owns, flushing after the third, so
     its interval (0,5) is volatile.  Each Put replicates to P0. *)
  p1.D.clock <- p0.D.clock;
  let kc =
    let rec find i = if App.owner ~n:2 (key_of i) = 1 then key_of i else find (i + 1) in
    find 0
  in
  for i = 1 to 4 do
    D.inject p1 ~seq:i (App.Put { key = kc; value = i });
    if i = 3 then D.flush p1
  done;
  let replica = List.nth (D.released p1) 3 in
  Alcotest.(check (list (pair int Util.entry)))
    "replica depends on P1's volatile interval"
    [ (1, Util.e ~inc:0 ~sii:5) ]
    replica.Recovery.Wire.dep;
  p0.D.clock <- p1.D.clock;
  D.packet p0 (Recovery.Wire.App replica);
  D.flush p0;
  (* P1 fails, losing (0,5); its announcement ends incarnation 0 at (0,4)
     and rolls P0 back past the replica, replaying the window record. *)
  p1.D.clock <- p0.D.clock;
  D.crash p1;
  D.clear p1;
  D.restart p1;
  let ann = List.hd (D.announcements p1) in
  Alcotest.(check Util.entry)
    "announced ending" (Util.e ~inc:0 ~sii:4) ann.Recovery.Wire.ending;
  p0.D.clock <- p1.D.clock;
  D.packet p0 (Recovery.Wire.Ann ann);
  Alcotest.(check int)
    "P0 rolled back" 1 (Node.metrics p0.D.node).Recovery.Metrics.induced_rollbacks;
  check_oracle ~k:2 ~n:2 trace

let suite =
  [
    law_partitioned_eq_serial;
    law_unpartitioned_eq_serial;
    law_ckpt_prefix_eq_twin;
    Alcotest.test_case "on-demand timeline: serve early, park until replayed"
      `Quick test_on_demand_timeline;
    Alcotest.test_case "window-marked record: restart replays it uncertified" `Quick
      test_window_record_restart;
    Alcotest.test_case "window-marked record: rollback replays it uncertified" `Quick
      test_window_record_rollback;
  ]
