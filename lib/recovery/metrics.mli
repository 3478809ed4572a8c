(** Per-node protocol counters and distributions.

    Populated by {!Node}; aggregated across a cluster by the harness.  The
    distinctions mirror the paper's two performance axes: failure-free
    overhead (blocked send time, piggyback size, synchronous writes) and
    recovery efficiency (rollbacks, undone intervals, orphans, replay). *)

type t = {
  mutable deliveries : int;  (** application messages delivered (live) *)
  mutable sends : int;  (** logical sends performed by the application *)
  mutable releases : int;  (** messages actually released to the network *)
  blocked_time : Sim.Summary.t;
      (** per released message: time spent held in the send buffer *)
  release_dep_entries : Sim.Summary.t;
      (** piggybacked dependency entries per released message *)
  wire_vector_size : Sim.Summary.t;
      (** on-the-wire vector size: equals the entry count under commit
          dependency tracking, and N for fixed-size-vector protocols *)
  mutable orphans_discarded : int;
  mutable duplicates_dropped : int;
  delivery_delay : Sim.Summary.t;
      (** per delivered message: time spent undeliverable in the receive
          buffer (the Corollary 1 ablation measures this) *)
  mutable cancelled_sends : int;  (** unreleased sends dropped at rollback *)
  mutable induced_rollbacks : int;  (** rollbacks of non-failed processes *)
  mutable restarts : int;  (** recoveries from actual crashes *)
  mutable undone_intervals : int;  (** state intervals rolled back *)
  mutable lost_intervals : int;  (** intervals irrecoverably lost to crashes *)
  mutable replayed : int;  (** logged deliveries re-executed during recovery *)
  mutable outputs_committed : int;
  output_latency : Sim.Summary.t;  (** buffer-to-commit delay per output *)
  mutable notices : int;
  mutable notice_entries : int;
  mutable announcements_sent : int;
  mutable acks_sent : int;
  mutable retransmissions : int;
  mutable gc_records : int;
      (** stable-log records reclaimed by garbage collection *)
  mutable dep_queries : int;
      (** direct-tracking assembly queries sent (commit-time cost) *)
  mutable part_ckpt_dropped : int;
      (** damaged or unreadable {!Wire.sync_record.Part_ckpt} payloads
          dropped at restart; the covered partitions fell back to replay
          from the full checkpoint *)
}

val create : unit -> t

val copy : t -> t
(** An independent record: the counters and a copy of every summary. *)
