(** Per-node protocol counters, and the mapping from trace events to the
    protocol's cost distributions.

    Populated by {!Node}; aggregated across a cluster by the harness.  The
    distinctions mirror the paper's two performance axes: failure-free
    overhead (blocked send time, piggyback size, synchronous writes) and
    recovery efficiency (rollbacks, undone intervals, orphans, replay).
    Per-event samples (send blocking, piggyback size, receive-buffer wait,
    output-commit latency) are not kept here: each is a field of the
    {!Trace} event that records the occurrence, and {!iter_samples} reads
    them back. *)

type t = {
  mutable deliveries : int;  (** application messages delivered (live) *)
  mutable sends : int;  (** logical sends performed by the application *)
  mutable releases : int;  (** messages actually released to the network *)
  mutable orphans_discarded : int;
  mutable duplicates_dropped : int;
  mutable cancelled_sends : int;  (** unreleased sends dropped at rollback *)
  mutable induced_rollbacks : int;  (** rollbacks of non-failed processes *)
  mutable restarts : int;  (** recoveries from actual crashes *)
  mutable undone_intervals : int;  (** state intervals rolled back *)
  mutable lost_intervals : int;  (** intervals irrecoverably lost to crashes *)
  mutable replayed : int;  (** logged deliveries re-executed during recovery *)
  mutable outputs_committed : int;
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
(** An independent record with the same counts. *)

(** The per-event cost distributions.  Each released message contributes
    one sample to each of the first three, each delivery one
    [Delivery_delay] sample and each committed output one
    [Output_latency] sample, so a distribution's count equals the
    matching counter ([releases], [deliveries], [outputs_committed]). *)
type distribution =
  | Blocked_time  (** time a released message was held in the send buffer *)
  | Release_dep_entries  (** piggybacked dependency entries per release *)
  | Wire_vector_size
      (** on-the-wire vector size: the entry count under commit dependency
          tracking, and N for fixed-size-vector protocols *)
  | Delivery_delay
      (** time a delivered message spent undeliverable in the receive
          buffer (the Corollary 1 ablation measures this) *)
  | Output_latency  (** buffer-to-commit delay per output *)

val iter_samples : Config.t -> (distribution -> float -> unit) -> Trace.event -> unit
(** [iter_samples cfg f ev] calls [f] once per sample [ev] records: a
    [Message_released] feeds the first three distributions, a
    [Message_delivered] its [waited] time, an [Output_committed] its
    [latency]; every other event feeds none.  [cfg] decides
    [Wire_vector_size]: fixed-size-vector protocols carry [cfg.n] entries
    (they admit no joins — {!Config.validate} requires [k = n] without
    commit tracking — so the width never changes). *)
