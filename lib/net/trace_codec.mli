(** Serialization of execution-trace entries.

    Each daemon appends its {!Recovery.Trace} entries to a per-process
    trace file as they happen (one {!Wire_codec} frame per entry, flushed
    after every protocol step), so the trace written {e before} a [SIGKILL]
    survives the kill.  The deployment driver loads the per-process files,
    merges them into one global trace and certifies it with the offline
    causality oracle — the same end-to-end argument the simulator and the
    threaded runtime use, now across real process boundaries.

    A file killed mid-append ends in a torn frame; the loader truncates at
    the first undecodable byte and {e reports} the damage, mirroring the
    durable store's open-time recovery discipline. *)

val encode_entry : Recovery.Trace.entry -> string
(** One full frame. *)

val decode_entry : string -> (Recovery.Trace.entry, string) result

type load = {
  entries : Recovery.Trace.entry list;  (** file order *)
  damage : string option;
      (** [Some reason] if the file ended in a torn or corrupt frame;
          never silent *)
}

val decode_stream : string -> load
(** Decode concatenated frames until the bytes run out or stop decoding. *)

val load_file : string -> (load, string) result
(** [Error] only if the file cannot be read at all. *)

(** {1 Incremental writer} *)

type writer

val open_writer : string -> writer
(** Open (append mode, created if missing) a trace file. *)

val append : writer -> Recovery.Trace.entry list -> unit
(** Write entries and flush them to the file descriptor, so they survive a
    subsequent [SIGKILL] of the writing process. *)

val close_writer : writer -> unit

val sync : writer -> Recovery.Trace.t -> Recovery.Trace.entry list
(** Append every entry of [trace] beyond what this writer already wrote,
    then {!Recovery.Trace.forget} them, and return them, oldest first.
    The trace file is then the only copy, so a long-running daemon's
    trace memory stays bounded by one protocol step.  The daemon calls
    this after each protocol step and feeds the returned entries to its
    metric histograms, so each entry is counted exactly once. *)
