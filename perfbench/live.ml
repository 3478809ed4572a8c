(* The three live workloads: koptnode daemons on durable stores, driven
   through Net.Deployment and Shardkv.Service from this single-threaded
   benchmark.  Every measured window is bounded by merged-trace timestamps
   (the daemons share one epoch with the benchmark's clock), never by the
   return of Deployment.settle, which only decides when a round may end. *)

module D = Net.Deployment
module Kv = App_model.Kvstore_app
module Trace = Recovery.Trace

type ctx = {
  exe : string;  (** koptnode binary *)
  work : string;  (** directory holding every deployment root of the run *)
  seed : int;
  seconds : float;
}

(* Two daemons: the single-threaded benchmark then holds no more control
   connections than a 2-core box has cores. *)
let n = 2
let k = 1

type round = {
  setup : float;  (** seconds: launch until every daemon answers Status *)
  obs : Obs.Snapshot.t;  (** merged Quit-time daemon metrics *)
  trace : Trace.t;
  scale : float;  (** seconds of wall clock per abstract time unit *)
  certify : float;  (** seconds of one Oracle.check over the merged trace *)
  scrapes : float list;  (** traced runs: per-scrape seconds, oldest first *)
}

let now = Unix.gettimeofday
let fail fmt = Fmt.kstr failwith fmt

(* Launch, and wait until every daemon answers its control socket: the
   set-up a user pays before the first request. *)
let launch ?app ?ckpt_interval ctx =
  let t0 = now () in
  let t =
    Spans.time "deployment.launch" (fun () ->
        D.launch ~n ~k ?app ?ckpt_interval ~seed:ctx.seed ~root:(Durable.Temp.fresh_dir ~base:ctx.work ~prefix:"dep" ())
          ~exe:ctx.exe ())
  in
  match
    for dst = 0 to n - 1 do
      match D.status t ~dst with
      | Some s when s.Net.Wire_codec.st_up -> ()
      | _ -> fail "daemon %d never answered its control socket" dst
    done
  with
  | () -> (t, now () -. t0)
  | exception e ->
    D.destroy t;
    raise e

(* Run [f] on a launched deployment; whatever happens, no daemon and no
   store directory outlives it. *)
let with_deployment (t, setup) f =
  Fun.protect ~finally:(fun () -> D.destroy t) (fun () -> f t setup)

let scrape_all t scrapes =
  if !Spans.on then
    for dst = 0 to n - 1 do
      let t0 = now () in
      (match Spans.time "obs.scrape" (fun () -> D.scrape t ~dst) with
      | Some (Ok _) -> ()
      | Some (Error e) -> fail "daemon %d exposition unparseable: %s" dst e
      | None -> fail "daemon %d unreachable for a scrape" dst);
      scrapes := (now () -. t0) :: !scrapes
    done

(* Drain the cluster, take the daemons' last CPU and memory readings, stop
   it, and certify the merged trace: zero oracle violations, measured risk
   at most K, no frame decoded as garbage. *)
let finish t ~setup ~procs ~scrapes ~fault_free =
  if not (D.settle ~timeout:60. t) then fail "cluster never quiesced";
  Procs.sample procs;
  scrape_all t scrapes;
  let o = Spans.time "deployment.finish" (fun () -> D.finish t) in
  let r = o.D.oracle in
  if r.Harness.Oracle.violations <> [] then
    fail "oracle violations: %s" (String.concat "; " r.Harness.Oracle.violations);
  if r.Harness.Oracle.max_risk > k then
    fail "measured risk %d exceeds K=%d" r.Harness.Oracle.max_risk k;
  if o.D.decode_errors > 0 then fail "%d frames decoded as garbage" o.D.decode_errors;
  if fault_free then begin
    D.check_fault_free o;
    if o.D.damage <> [] then fail "trace damage: %s" (String.concat "; " o.D.damage)
  end;
  let certify =
    if not !Spans.on then 0.
    else begin
      let t0 = now () in
      ignore
        (Spans.time "harness.certify" (fun () ->
             Harness.Oracle.check ~k ~n o.D.trace)
          : Harness.Oracle.report);
      now () -. t0
    end
  in
  ( o,
    {
      setup;
      obs = o.D.obs;
      trace = o.D.trace;
      scale = D.time_scale t;
      certify;
      scrapes = List.rev !scrapes;
    } )

let wall t time = D.epoch t +. (time *. D.time_scale t)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Outside-world messages the cluster delivered: every injected op must be
   delivered exactly once on these benign runs. *)
let injected_deliveries trace =
  List.fold_left
    (fun acc { Trace.ev; _ } ->
      match ev with
      | Trace.Message_delivered { id; _ }
        when id.Recovery.Wire.origin = App_model.App_intf.outside_world ->
        acc + 1
      | _ -> acc)
    0 (Trace.events trace)

(* Live-delivery wall times, oldest first. *)
let delivery_walls t trace =
  List.filter_map
    (fun { Trace.time; ev; _ } ->
      match ev with Trace.Message_delivered _ -> Some (wall t time) | _ -> None)
    (Trace.events trace)

(* ------------------------------------------------------------------ *)
(* Results                                                             *)

type result = {
  attempted : int;
  failed : int;
  e2e : (string * float) list;  (** the benchmark's end-to-end metrics *)
  named : (string * float * string) list;
      (** the same run under the workload's own metric names, with units *)
  layers : (string * float) list;  (** per-layer metrics (traced runs) *)
}

let ms x = 1000. *. x
let per_k a b = if b = 0 then 0. else 1000. *. float_of_int a /. float_of_int b
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let span_mean_us name = match Spans.durations name with [] -> 0. | d -> 1e6 *. Stats.mean d

(* Per-layer numbers every live workload reports: daemon counters from the
   merged Quit-time snapshots, protocol timings from the merged trace, and
   the bench's own spans around layer calls. *)
let daemon_layers rounds =
  let obs = Obs.Snapshot.merge_all (List.map (fun r -> r.obs) rounds) in
  let c = Obs.Snapshot.counter obs in
  let delivs = c "deliveries_total" in
  let hist_mean name =
    match Obs.Snapshot.hist obs name with
    | Some h when Obs.Snapshot.hist_count h > 0 -> Obs.Snapshot.hist_mean h
    | _ -> 0.
  in
  let fsyncs =
    match Obs.Snapshot.hist obs "fsync_seconds" with
    | Some h -> Obs.Snapshot.hist_count h
    | None -> 0
  in
  let phase p =
    match Obs.Snapshot.hist obs ~labels:[ ("phase", p) ] "phase_seconds" with
    | Some h when delivs > 0 -> 1e6 *. h.Obs.Snapshot.sum /. float_of_int delivs
    | _ -> 0.
  in
  let commit_waits = ref [] and blocked = ref [] in
  List.iter
    (fun r ->
      List.iter
        (fun { Trace.ev; _ } ->
          match ev with
          | Trace.Output_committed { latency; _ } ->
            commit_waits := ms (latency *. r.scale) :: !commit_waits
          | Trace.Message_released { blocked = b; _ } ->
            blocked := ms (b *. r.scale) :: !blocked
          | _ -> ())
        (Trace.events r.trace))
    rounds;
  let or0 x = if Float.is_nan x then 0. else x in
  let scrapes = List.map (fun r -> r.scrapes) rounds in
  let first_scrape =
    List.filter_map (function s :: _ -> Some s | [] -> None) scrapes
  and last_scrape =
    List.filter_map (fun s -> match List.rev s with s :: _ -> Some s | [] -> None) scrapes
  in
  [
    ("durable.fsync_mean_ms", ms (hist_mean "fsync_seconds"));
    ("durable.fsyncs_per_kdeliv", per_k fsyncs delivs);
    ("durable.coalesce_ratio", ratio (c "flush_coalesced_total") (c "flush_rounds_total"));
    ("koptnode.handle_us_per_deliv", phase "handle");
    ("koptnode.flush_us_per_deliv", phase "flush");
    ("koptnode.sync_us_per_deliv", phase "sync");
    ("koptnode.dispatch_us_per_deliv", phase "dispatch");
    ("koptnode.batch_events_mean", ratio (c "batch_events_total") (c "batches_total"));
    ("recovery.dep_entries_mean", hist_mean "release_dep_entries");
    ("recovery.notices_per_kdeliv", per_k (c "notices_total") delivs);
    ("recovery.acks_per_kdeliv", per_k (c "acks_sent_total") delivs);
    ("recovery.commit_wait_p50_ms", or0 (Stats.percentile 50. !commit_waits));
    ("recovery.commit_wait_p99_ms", or0 (Stats.percentile 99. !commit_waits));
    ("recovery.blocked_mean_ms", or0 (Stats.mean !blocked));
    ("net.frames_sent_per_deliv", ratio (c "transport_frames_sent_total") delivs);
    ("net.frames_recv_per_deliv", ratio (c "transport_frames_received_total") delivs);
    ("net.inject_us", span_mean_us "net.inject");
    ("net.reconnects", float_of_int (c "transport_reconnects_total"));
    ("net.decode_errors", float_of_int (c "transport_decode_errors_total"));
    ("net.frames_dropped", float_of_int (c "transport_frames_dropped_total"));
    ("harness.certify_s", Stats.median (List.map (fun r -> r.certify) rounds));
    ("obs.scrape_first_ms", ms (or0 (Stats.median first_scrape)));
    ("obs.scrape_last_ms", ms (or0 (Stats.median last_scrape)));
  ]

(* Repeat [round] at least [min_rounds] times, and after that only while
   another round of the mean length so far still ends within [seconds]. *)
let rounds ctx ~min_rounds round =
  let t0 = now () in
  let rec go i acc =
    let elapsed = now () -. t0 in
    if i >= min_rounds && elapsed *. float_of_int (i + 1) /. float_of_int i > ctx.seconds
    then List.rev acc
    else go (i + 1) (round i :: acc)
  in
  go 0 []

(* ------------------------------------------------------------------ *)
(* kv-burst                                                            *)

(* The saturated hot path: a fixed count of kvstore ops (7 Puts : 1 Get
   over 17 hot keys, round-robin across the daemons), injected with no
   pacing other than a window, then the round waits for quiescence.  Each
   round is a fresh cluster, so rounds are independent samples.

   The window: after every [window] ops per daemon, a Status round trip to
   each daemon, which its main loop answers only once it has consumed
   everything injected before it.  Fully unpaced bursts overflow the
   transport's per-peer send queue (frames shed, then retransmitted), which
   the fault-free gate rejects.  A window of 256 ops (one full main-loop
   batch) still shed frames; at 64 the main loop waits for the next window
   every few milliseconds of work, which lets the transport's writer
   threads drain, and the daemons never run dry for longer than a round
   trip. *)
let burst_ops = 16_000
let window = 64

type burst = {
  b_round : round;
  b_window : float;  (** first injection -> last delivery, seconds *)
  b_delivs : int;
  b_cpu : float;  (** daemon CPU seconds over the round *)
  b_rss : float;
  b_get_lat : float list;  (** seconds, injection -> output commit *)
  b_unanswered : int;
  b_undelivered : int;
}

let burst_round ctx i =
  with_deployment (launch ctx) @@ fun t setup ->
  let procs = Procs.start () in
  let scrapes = ref [] in
  scrape_all t scrapes;
  (* Gets to one daemon on one key are delivered in injection order, and
     their replies are buffered in delivery order: match per (dst, key). *)
  let pending = Hashtbl.create 64 in
  let first_inject = now () in
  for op = 0 to burst_ops - 1 do
    let key = Fmt.str "key%d" ((op + i) mod 17) in
    let dst = op mod n in
    let msg =
      if op mod 8 = 7 then Kv.Get key else Kv.Put { key; value = (op * 37) + ctx.seed }
    in
    let at = now () in
    Spans.time ~op "net.inject" (fun () -> D.inject t ~dst msg);
    if op mod 8 = 7 then begin
      let q =
        match Hashtbl.find_opt pending (dst, key) with
        | Some q -> q
        | None ->
          let q = Queue.create () in
          Hashtbl.replace pending (dst, key) q;
          q
      in
      Queue.push at q
    end;
    if (op + 1) mod (window * n) = 0 then
      for dst = 0 to n - 1 do
        if Spans.time "net.status" (fun () -> D.status t ~dst) = None then
          fail "kv-burst: daemon %d stopped answering" dst
      done
  done;
  let o, round = finish t ~setup ~procs ~scrapes ~fault_free:true in
  let trace = o.D.trace in
  let answers =
    List.filter_map
      (fun { Trace.time; ev; _ } ->
        match ev with
        | Trace.Output_committed { pid; id; text; _ } -> (
          match String.split_on_char ' ' text with
          | "get" :: key :: _ -> Some ((pid, key), id.Recovery.Wire.out_interval, wall t time)
          | _ -> None)
        | _ -> None)
      (Trace.events trace)
    |> List.sort (fun (_, a, _) (_, b, _) -> Depend.Entry.compare a b)
  in
  let lat =
    List.filter_map
      (fun (pk, _, commit) ->
        match Hashtbl.find_opt pending pk with
        | Some q when not (Queue.is_empty q) -> Some (commit -. Queue.pop q)
        | _ -> fail "kv-burst: a Get reply matches no injected Get")
      answers
  in
  let unanswered = Hashtbl.fold (fun _ q acc -> acc + Queue.length q) pending 0 in
  let walls = delivery_walls t trace in
  let last = List.fold_left Float.max first_inject walls in
  {
    b_round = round;
    b_window = last -. first_inject;
    b_delivs = List.length walls;
    b_cpu = Procs.cpu procs;
    b_rss = Procs.peak_mb procs;
    b_get_lat = lat;
    b_unanswered = unanswered;
    b_undelivered = burst_ops - injected_deliveries trace;
  }

let kv_burst ctx =
  let bursts = rounds ctx ~min_rounds:3 (burst_round ctx) in
  let med f = Stats.median (List.map f bursts) in
  let tput = med (fun b -> float_of_int b.b_delivs /. b.b_window) in
  let cpu_us = med (fun b -> 1e6 *. b.b_cpu /. float_of_int b.b_delivs) in
  let rss = med (fun b -> b.b_rss) in
  (* Every figure is a median over bursts, the latency percentiles too. *)
  let p50 = ms (med (fun b -> Stats.percentile 50. b.b_get_lat)) in
  let p90 = ms (med (fun b -> Stats.percentile 90. b.b_get_lat)) in
  let p99 = ms (med (fun b -> Stats.percentile 99. b.b_get_lat)) in
  let setup = med (fun b -> b.b_round.setup) in
  let attempted = burst_ops * List.length bursts in
  let failed =
    List.fold_left (fun a b -> a + b.b_unanswered + abs b.b_undelivered) 0 bursts
  in
  {
    attempted;
    failed;
    e2e =
      [
        ("setup_s", setup);
        ("throughput_per_s", tput);
        ("peak_rss_mb", rss);
        ("completion_ms", ms (med (fun b -> b.b_window)));
      ];
    named =
      [
        ("setup_s", setup, "s");
        ("delivs_per_s", tput, "1/s");
        ("cpu_us_per_deliv", cpu_us, "us");
        ("peak_rss_mb", rss, "MB");
        ("failed_share", ratio failed attempted, "ratio");
        ("get_p50_ms", p50, "ms");
        ("get_p90_ms", p90, "ms");
        ("get_p99_ms", p99, "ms");
        ("burst_ms", ms (med (fun b -> b.b_window)), "ms");
      ];
    layers =
      daemon_layers (List.map (fun b -> b.b_round) bursts)
      @ [ ("koptnode.cpu_us_per_op", cpu_us) ];
  }

(* ------------------------------------------------------------------ *)
(* kv-open                                                             *)

(* Below the knee: the sharded store under Harness.Workload.open_loop_kv
   at a fixed 1000 ops/s over 1000 Zipf(0.99) keys — 25% gets, 10%
   multi-puts of width 3, the rest puts — for the run's whole length.
   Every op is timed from its due time, so a stall is charged to the ops
   queued behind it. *)
let open_rate = 1000.
let open_keys = 1000

let kv_open ctx =
  (* Set-up is cheap next to the measured window: take its median over
     three launches, keeping the last cluster for the load. *)
  let setups =
    List.init 2 (fun _ -> with_deployment (launch ~app:"shardkv" ctx) (fun _ s -> s))
  in
  with_deployment (launch ~app:"shardkv" ctx) @@ fun t setup ->
  let setup = Stats.median (setup :: setups) in
  let svc = Shardkv.Service.connect t in
  let ops = int_of_float (open_rate *. ctx.seconds) in
  let schedule =
    Harness.Workload.open_loop_kv ~rng:(Sim.Rng.create ctx.seed) ~ops ~keys:open_keys
      ~rate:open_rate ~theta:0.99 ~gets:0.25 ~multi:0.1 ~multi_width:3 ()
  in
  let procs = Procs.start () in
  let scrapes = ref [] in
  scrape_all t scrapes;
  (* Tags follow call order: the g-th get is "get:g", the m-th multi-put
     "mp:m" (Shardkv.Service numbers them the same way). *)
  let due_of = Hashtbl.create 4096 in
  let gets = ref 0 and mps = ref 0 and lags = ref [] in
  let start = now () +. 0.05 in
  let next_scrape = ref (start +. 1.) in
  List.iteri
    (fun op { Harness.Workload.at; kv } ->
      let due = start +. at in
      let wait = due -. now () in
      if wait > 0. then Unix.sleepf wait;
      lags := (now () -. due) :: !lags;
      let call f = Spans.time ~op "shardkv.call" f in
      (match kv with
      | Harness.Workload.Kv_get r ->
        Hashtbl.replace due_of (Fmt.str "get:%d" !gets) (due, `Get);
        incr gets;
        call (fun () -> Shardkv.Service.get svc ~key:(Shardkv.Service.key_of_rank r))
      | Harness.Workload.Kv_put (r, v) ->
        call (fun () ->
            Shardkv.Service.put svc ~key:(Shardkv.Service.key_of_rank r) ~value:v)
      | Harness.Workload.Kv_multi_put pairs ->
        Hashtbl.replace due_of (Fmt.str "mp:%d" !mps) (due, `Mput);
        incr mps;
        call (fun () ->
            Shardkv.Service.multi_put svc
              (List.map (fun (r, v) -> (Shardkv.Service.key_of_rank r, v)) pairs)));
      if !Spans.on && now () >= !next_scrape then begin
        scrape_all t scrapes;
        next_scrape := !next_scrape +. 1.
      end)
    schedule;
  let o, round = finish t ~setup ~procs ~scrapes ~fault_free:true in
  let trace = o.D.trace in
  let acked = Hashtbl.create 4096 in
  List.iter
    (fun { Trace.time; ev; _ } ->
      match ev with
      | Trace.Output_committed { text; _ } -> (
        let tag = List.hd (String.split_on_char ' ' text) in
        match Hashtbl.find_opt due_of tag with
        | Some (due, kind) when not (Hashtbl.mem acked tag) ->
          Hashtbl.replace acked tag (due, kind, wall t time -. due)
        | Some _ -> ()
        | None -> fail "kv-open: output %S matches no issued op" text)
      | _ -> ())
    (Trace.events trace);
  let lat ?kind ?(from = 0.) ?(until = infinity) () =
    Hashtbl.fold
      (fun _ (due, k, l) acc ->
        let at = due -. start in
        if at >= from && at < until && (kind = None || kind = Some k) then l :: acc else acc)
      acked []
  in
  let p ?kind q = ms (Stats.percentile q (lat ?kind ())) in
  (* Drift: p50 of ops due in the last fifth of the schedule over that of
     the first fifth, at a constant offered rate. *)
  let fifth = ctx.seconds /. 5. in
  let drift = Stats.median (lat ~from:(4. *. fifth) ()) /. Stats.median (lat ~until:fifth ()) in
  let walls = delivery_walls t trace in
  let first_inject = start +. (List.hd schedule).Harness.Workload.at in
  let last = List.fold_left Float.max first_inject walls in
  let window = last -. first_inject in
  let delivs = List.length walls in
  let tput = float_of_int delivs /. window in
  let cpu_us = 1e6 *. Procs.cpu procs /. float_of_int delivs in
  let rss = Procs.peak_mb procs in
  let unacked = Hashtbl.length due_of - Hashtbl.length acked in
  let failed = unacked + abs (ops - injected_deliveries trace) in
  {
    attempted = ops;
    failed;
    e2e =
      [
        ("setup_s", setup);
        ("throughput_per_s", tput);
        ("peak_rss_mb", rss);
        ("completion_ms", ms window);
      ];
    named =
      [
        ("setup_s", setup, "s");
        ("delivs_per_s", tput, "1/s");
        ("cpu_us_per_deliv", cpu_us, "us");
        ("peak_rss_mb", rss, "MB");
        ("failed_share", ratio failed ops, "ratio");
        ("ack_p50_ms", p 50., "ms");
        ("ack_p90_ms", p 90., "ms");
        ("ack_p99_ms", p 99., "ms");
        ("get_p50_ms", p ~kind:`Get 50., "ms");
        ("get_p99_ms", p ~kind:`Get 99., "ms");
        ("mput_p50_ms", p ~kind:`Mput 50., "ms");
        ("mput_p99_ms", p ~kind:`Mput 99., "ms");
        ("gen_lag_p99_ms", ms (Stats.percentile 99. !lags), "ms");
      ];
    layers =
      daemon_layers [ round ]
      @ [
          ("koptnode.cpu_us_per_op", cpu_us);
          ("shardkv.call_us", span_mean_us "shardkv.call");
          ("drift.ack_p50_ratio", drift);
          ("bench.gen_lag_p99_ms", ms (Stats.percentile 99. !lags));
        ];
  }

(* ------------------------------------------------------------------ *)
(* recover                                                             *)

(* Crash recovery on the default 1 ms/unit clock, full checkpoints off:
   set-up builds a log of [log_records] Puts owned by one victim; each
   cycle SIGKILLs it, respawns it at once and races a probe Get for the
   last-written key against the replay.  Three rounds, each a fresh
   cluster, give the set-up median. *)
let log_records = 8000
let victim = 1

type cycle = {
  c_probe : float;  (** kill -> probe answer committed, seconds *)
  c_full : float;  (** kill -> Recovery_completed *)
  c_boot : float;  (** kill -> Restarted *)
  c_replayed : int;
}

type recovery_round = {
  r_round : round;
  r_cycles : cycle list;
  r_cpu : float;
  r_rss : float;  (** peak VmHWM of the respawned victims *)
  r_probes : int;
  r_pace : float;  (** wall seconds the replay pump sleeps per record *)
}

let recover_round ctx ~budget i =
  let t0 = now () in
  let t, _ = launch ~ckpt_interval:0. ctx in
  with_deployment (t, 0.) @@ fun t _ ->
  let keys =
    let rec collect j acc left =
      if left = 0 then List.rev acc
      else
        let key = Fmt.str "r%d-%d-%d" ctx.seed i j in
        if Kv.owner ~n key = victim then collect (j + 1) (key :: acc) (left - 1)
        else collect (j + 1) acc left
    in
    collect 0 [] log_records
  in
  let last_value = ref 0 in
  List.iteri
    (fun j key ->
      last_value := (j * 7919) + ctx.seed;
      D.inject t ~dst:victim (Kv.Put { key; value = !last_value }))
    keys;
  if not (D.settle ~timeout:60. t) then fail "recover: log build never quiesced";
  let setup = now () -. t0 in
  let probe = List.nth keys (log_records - 1) in
  let procs = Procs.start () in
  let scrapes = ref [] in
  scrape_all t scrapes;
  let kills = ref [] in
  let start = now () in
  while !kills = [] || now () -. start < budget do
    Procs.sample procs;
    let kill = now () in
    Spans.time "net.kill" (fun () -> D.kill_only t ~dst:victim);
    Spans.time "net.respawn" (fun () -> D.respawn t ~dst:victim);
    Spans.time "net.inject" (fun () -> D.inject t ~dst:victim (Kv.Get probe));
    kills := kill :: !kills;
    let deadline = now () +. 60. in
    let rec await () =
      match D.status t ~dst:victim with
      | Some s when s.Net.Wire_codec.st_up && not s.Net.Wire_codec.st_recovering -> ()
      | _ when now () > deadline -> fail "recover: the victim never finished replay"
      | _ ->
        Thread.delay 0.01;
        await ()
    in
    await ();
    if not (D.settle ~timeout:60. t) then fail "recover: cluster never quiesced"
  done;
  let o, round = finish t ~setup ~procs ~scrapes ~fault_free:false in
  let answer = Fmt.str "get %s -> %d (" probe !last_value in
  let events = Trace.events o.D.trace in
  (* The first matching victim event after a given wall-clock instant. *)
  let first_after at pick =
    List.find_map
      (fun { Trace.time; ev; _ } ->
        let w = wall t time in
        if w < at then None else Option.map (fun x -> (w, x)) (pick ev))
      events
  in
  let cycles =
    List.rev !kills
    |> List.mapi (fun c kill ->
           let probe_at =
             match
               first_after kill (function
                 | Trace.Output_committed { pid; text; _ }
                   when pid = victim && starts_with ~prefix:(Fmt.str "get %s ->" probe) text ->
                   Some text
                 | _ -> None)
             with
             | Some (w, text) when starts_with ~prefix:answer text -> w
             | Some (_, text) -> fail "recover: probe answered %S, expected %S..." text answer
             | None -> fail "recover: cycle %d's probe was never answered" c
           in
           let boot =
             match
               first_after kill (function
                 | Trace.Restarted { pid; _ } when pid = victim -> Some ()
                 | _ -> None)
             with
             | Some (w, ()) -> w
             | None -> fail "recover: cycle %d has no Restarted" c
           in
           let full, replayed =
             match
               first_after kill (function
                 | Trace.Recovery_completed { pid; replayed } when pid = victim ->
                   Some replayed
                 | _ -> None)
             with
             | Some (w, r) -> (w, r)
             | None -> fail "recover: cycle %d never completed recovery" c
           in
           (* The log holds the set-up Puts plus one probe Get per earlier
              cycle, all stable before the kill (each cycle ends quiesced,
              full checkpoints are off). *)
           if replayed <> log_records + c then
             fail "recover: cycle %d replayed %d records, log holds %d" c replayed
               (log_records + c);
           {
             c_probe = probe_at -. kill;
             c_full = full -. kill;
             c_boot = boot -. kill;
             c_replayed = replayed;
           })
  in
  {
    r_round = round;
    r_cycles = cycles;
    r_cpu = Procs.cpu procs;
    r_rss = Procs.peak_new_mb procs;
    r_probes = List.length cycles;
    r_pace =
      (D.config t).Recovery.Config.timing.Recovery.Config.t_replay *. D.time_scale t;
  }

let recover ctx =
  let n_rounds = 3 in
  let budget = ctx.seconds /. float_of_int n_rounds in
  let rs = List.init n_rounds (fun i -> recover_round ctx ~budget i) in
  let cycles = List.concat_map (fun r -> r.r_cycles) rs in
  let replayed = List.fold_left (fun a c -> a + c.c_replayed) 0 cycles in
  let replay_s = Stats.sum (List.map (fun c -> c.c_full -. c.c_boot) cycles) in
  let tput = float_of_int replayed /. replay_s in
  let cpu_us = 1e6 *. Stats.sum (List.map (fun r -> r.r_cpu) rs) /. float_of_int replayed in
  let rss = Stats.median (List.map (fun r -> r.r_rss) rs) in
  let setup = Stats.median (List.map (fun r -> r.r_round.setup) rs) in
  let down = List.map (fun c -> c.c_probe) cycles in
  let full = List.map (fun c -> c.c_full) cycles in
  let probes = List.fold_left (fun a r -> a + r.r_probes) 0 rs in
  let med f = ms (Stats.median (List.map f cycles)) in
  let pace = (List.hd rs).r_pace in
  {
    attempted = probes + (n_rounds * log_records);
    failed = 0;
    e2e =
      [
        ("setup_s", setup);
        ("throughput_per_s", tput);
        ("peak_rss_mb", rss);
        ("completion_ms", ms (Stats.median full));
      ];
    named =
      [
        ("setup_s", setup, "s");
        ("peak_rss_mb", rss, "MB");
        ("failed_share", 0., "ratio");
        ("downtime_ms", ms (Stats.median down), "ms");
        ("full_recovery_ms", ms (Stats.median full), "ms");
        ("replayed_per_s", tput, "1/s");
        ("cpu_us_per_record", cpu_us, "us");
        ("cycles", float_of_int (List.length cycles), "count");
      ];
    layers =
      daemon_layers (List.map (fun r -> r.r_round) rs)
      @ [
          ("koptnode.cpu_us_per_op", cpu_us);
          ("recovery.boot_ms", med (fun c -> c.c_boot));
          ("recovery.first_answer_ms", med (fun c -> c.c_probe -. c.c_boot));
          ("recovery.replay_ms", med (fun c -> c.c_full -. c.c_boot));
          ("recovery.replayed", Stats.median (List.map (fun c -> float_of_int c.c_replayed) cycles));
          ( "recovery.replay_pacing_share",
            float_of_int replayed *. pace /. replay_s );
        ];
  }
