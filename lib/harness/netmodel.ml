type override = src:int -> dst:int -> packet_kind:string -> float option

(* --- Adversarial fault plan ----------------------------------------- *)

type partition_mode = Drop_packets | Queue_packets

type partition = {
  group : int list; (* one side; the other side is the complement *)
  from_ : float;
  until : float;
  mode : partition_mode;
}

type fault_plan = {
  loss : float;
  duplicate : float;
  reorder : float;
  reorder_spread : float;
  partitions : partition list;
}

let benign =
  { loss = 0.; duplicate = 0.; reorder = 0.; reorder_spread = 0.; partitions = [] }

let plan_is_benign p =
  p.loss <= 0. && p.duplicate <= 0. && p.reorder <= 0. && p.partitions = []

type fault_stats = {
  lost : int;
  duplicated : int;
  reordered : int;
  partition_dropped : int;
  partition_queued : int;
}

type t = {
  timing : Recovery.Config.timing;
  rng : Sim.Rng.t;
  fault_rng : Sim.Rng.t;
  plan : fault_plan;
  override : override option;
  mutable channel_last : float array array;
      (* last scheduled arrival per (src,dst); grows when membership does *)
  counts : (string, int) Hashtbl.t;
  mutable entries : int;
  mutable lost : int;
  mutable duplicated : int;
  mutable reordered : int;
  mutable partition_dropped : int;
  mutable partition_queued : int;
}

let create ~n ~timing ~rng ?fault_rng ?(plan = benign) ?override () =
  {
    timing;
    rng;
    (* The fault stream is separate from the timing stream so a benign plan
       leaves every jitter draw — and therefore every experiment table —
       bit-for-bit unchanged. *)
    fault_rng = (match fault_rng with Some r -> r | None -> Sim.Rng.create 0);
    plan;
    override;
    channel_last = Array.make_matrix (n + 1) (n + 1) 0.;
    counts = Hashtbl.create 8;
    entries = 0;
    lost = 0;
    duplicated = 0;
    reordered = 0;
    partition_dropped = 0;
    partition_queued = 0;
  }

let copy t =
  {
    t with
    rng = Sim.Rng.copy t.rng;
    fault_rng = Sim.Rng.copy t.fault_rng;
    channel_last = Array.map Array.copy t.channel_last;
    counts = Hashtbl.copy t.counts;
  }

(* Widen the per-channel FIFO matrix when a joiner brings a pid the
   cluster was not created with.  New channels start at 0 (no previous
   arrival), exactly like the channels of the original membership. *)
let ensure_pid t pid =
  let size = Array.length t.channel_last in
  if pid + 1 >= size then begin
    let size' = pid + 2 in
    let fresh =
      Array.init size' (fun i ->
          let row = Array.make size' 0. in
          if i < size then Array.blit t.channel_last.(i) 0 row 0 size;
          row)
    in
    t.channel_last <- fresh
  end

let transit t ~now ~src ~dst ~kind ~entries =
  Hashtbl.replace t.counts kind (1 + Option.value ~default:0 (Hashtbl.find_opt t.counts kind));
  t.entries <- t.entries + entries;
  let tm = t.timing in
  let delay =
    match t.override with
    | Some f -> (
      match f ~src ~dst ~packet_kind:kind with
      | Some d -> d
      | None ->
        tm.net_latency
        +. Sim.Rng.float t.rng (Stdlib.max 1e-9 tm.net_jitter)
        +. (float_of_int entries *. tm.per_entry_overhead))
    | None ->
      tm.net_latency
      +. Sim.Rng.float t.rng (Stdlib.max 1e-9 tm.net_jitter)
      +. (float_of_int entries *. tm.per_entry_overhead)
  in
  let arrival = now +. Stdlib.max 0. delay in
  if tm.fifo && src >= 0 && dst >= 0 then begin
    ensure_pid t (Stdlib.max src dst);
    let last = t.channel_last.(src).(dst) in
    let arrival = Stdlib.max arrival (last +. 1e-9) in
    t.channel_last.(src).(dst) <- arrival;
    arrival
  end
  else arrival

let partition_separates p ~src ~dst =
  let in_group pid = List.mem pid p.group in
  in_group src <> in_group dst

let active_partition t ~now ~src ~dst =
  if src < 0 || dst < 0 then None
  else
    List.find_opt
      (fun p -> now >= p.from_ && now < p.until && partition_separates p ~src ~dst)
      t.plan.partitions

(* Absolute arrival times for one packet handed to the network at [now]:
   [] if the wire eats it, two entries if it is duplicated.  The timing
   draw happens first and unconditionally (identical to [transit]), then
   each fault consumes the fault stream. *)
let arrivals t ~now ~src ~dst ~kind ~entries =
  let base = transit t ~now ~src ~dst ~kind ~entries in
  if plan_is_benign t.plan then [ base ]
  else
    let p = t.plan in
    match active_partition t ~now ~src ~dst with
    | Some part when part.mode = Drop_packets ->
      t.partition_dropped <- t.partition_dropped + 1;
      []
    | (Some _ | None) as part ->
      if p.loss > 0. && Sim.Rng.bernoulli t.fault_rng ~p:p.loss then begin
        t.lost <- t.lost + 1;
        []
      end
      else begin
        let arrival =
          match part with
          | Some q ->
            (* Queued at the partition boundary: delivered shortly after
               the partition heals, in a fault-stream-jittered order. *)
            t.partition_queued <- t.partition_queued + 1;
            Stdlib.max base (q.until +. Sim.Rng.float t.fault_rng 1.0)
          | None -> base
        in
        let arrival =
          if p.reorder > 0. && Sim.Rng.bernoulli t.fault_rng ~p:p.reorder then begin
            t.reordered <- t.reordered + 1;
            arrival +. Sim.Rng.float t.fault_rng (Stdlib.max 1e-9 p.reorder_spread)
          end
          else arrival
        in
        if p.duplicate > 0. && Sim.Rng.bernoulli t.fault_rng ~p:p.duplicate then begin
          t.duplicated <- t.duplicated + 1;
          let echo =
            arrival +. Sim.Rng.float t.fault_rng (Stdlib.max 1e-9 t.timing.net_jitter)
          in
          [ arrival; echo ]
        end
        else [ arrival ]
      end

let packets_sent t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.counts []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let entries_carried t = t.entries

let fault_stats t =
  {
    lost = t.lost;
    duplicated = t.duplicated;
    reordered = t.reordered;
    partition_dropped = t.partition_dropped;
    partition_queued = t.partition_queued;
  }
