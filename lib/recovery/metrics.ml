type t = {
  mutable deliveries : int;
  mutable sends : int;
  mutable releases : int;
  mutable orphans_discarded : int;
  mutable duplicates_dropped : int;
  mutable cancelled_sends : int;
  mutable induced_rollbacks : int;
  mutable restarts : int;
  mutable undone_intervals : int;
  mutable lost_intervals : int;
  mutable replayed : int;
  mutable outputs_committed : int;
  mutable notices : int;
  mutable notice_entries : int;
  mutable announcements_sent : int;
  mutable acks_sent : int;
  mutable retransmissions : int;
  mutable gc_records : int;
  mutable dep_queries : int;
  mutable part_ckpt_dropped : int;
}

let copy m = { m with deliveries = m.deliveries }

let create () =
  {
    deliveries = 0;
    sends = 0;
    releases = 0;
    orphans_discarded = 0;
    duplicates_dropped = 0;
    cancelled_sends = 0;
    induced_rollbacks = 0;
    restarts = 0;
    undone_intervals = 0;
    lost_intervals = 0;
    replayed = 0;
    outputs_committed = 0;
    notices = 0;
    notice_entries = 0;
    announcements_sent = 0;
    acks_sent = 0;
    retransmissions = 0;
    gc_records = 0;
    dep_queries = 0;
    part_ckpt_dropped = 0;
  }

type distribution =
  | Blocked_time
  | Release_dep_entries
  | Wire_vector_size
  | Delivery_delay
  | Output_latency

let iter_samples (cfg : Config.t) f (ev : Trace.event) =
  match ev with
  | Trace.Message_released { dep_size; blocked; _ } ->
    f Blocked_time blocked;
    f Release_dep_entries (float_of_int dep_size);
    f Wire_vector_size
      (float_of_int (if cfg.Config.protocol.commit_tracking then dep_size else cfg.Config.n))
  | Trace.Message_delivered { waited; _ } -> f Delivery_delay waited
  | Trace.Output_committed { latency; _ } -> f Output_latency latency
  | _ -> ()
