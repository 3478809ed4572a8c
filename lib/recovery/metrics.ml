type t = {
  mutable deliveries : int;
  mutable sends : int;
  mutable releases : int;
  blocked_time : Sim.Summary.t;
  release_dep_entries : Sim.Summary.t;
  wire_vector_size : Sim.Summary.t;
  mutable orphans_discarded : int;
  mutable duplicates_dropped : int;
  delivery_delay : Sim.Summary.t;
  mutable cancelled_sends : int;
  mutable induced_rollbacks : int;
  mutable restarts : int;
  mutable undone_intervals : int;
  mutable lost_intervals : int;
  mutable replayed : int;
  mutable outputs_committed : int;
  output_latency : Sim.Summary.t;
  mutable notices : int;
  mutable notice_entries : int;
  mutable announcements_sent : int;
  mutable acks_sent : int;
  mutable retransmissions : int;
  mutable gc_records : int;
  mutable dep_queries : int;
  mutable part_ckpt_dropped : int;
}

let copy m =
  {
    m with
    blocked_time = Sim.Summary.copy m.blocked_time;
    release_dep_entries = Sim.Summary.copy m.release_dep_entries;
    wire_vector_size = Sim.Summary.copy m.wire_vector_size;
    delivery_delay = Sim.Summary.copy m.delivery_delay;
    output_latency = Sim.Summary.copy m.output_latency;
  }

let create () =
  {
    deliveries = 0;
    sends = 0;
    releases = 0;
    blocked_time = Sim.Summary.create ();
    release_dep_entries = Sim.Summary.create ();
    wire_vector_size = Sim.Summary.create ();
    orphans_discarded = 0;
    duplicates_dropped = 0;
    delivery_delay = Sim.Summary.create ();
    cancelled_sends = 0;
    induced_rollbacks = 0;
    restarts = 0;
    undone_intervals = 0;
    lost_intervals = 0;
    replayed = 0;
    outputs_committed = 0;
    output_latency = Sim.Summary.create ();
    notices = 0;
    notice_entries = 0;
    announcements_sent = 0;
    acks_sent = 0;
    retransmissions = 0;
    gc_records = 0;
    dep_queries = 0;
    part_ckpt_dropped = 0;
  }
