(** Process-local observability: named counters, gauges and log-scale
    latency histograms in a registry, snapshotted into a mergeable value
    with a versioned text exposition format.

    This is the live side's one measurement plane: the transport, the
    fault proxy, the durable store and the daemon's main loop register
    their cells here and expose no statistics records of their own — a
    caller that wants a count reads a {!Registry.snapshot}.  Hot paths
    bump plain [int]/[float] cells (no atomics, no locks of their own),
    the owning module's existing lock — if it has one — is what makes
    multi-writer bumps consistent, and a {!Registry.snapshot} turns the
    live cells into an immutable {!Snapshot.t} that daemons serve over
    their control socket and drivers merge across processes.  The recovery protocol's per-event
    samples are not collected here: they are fields of its trace events,
    and a daemon observes each one into a histogram as it writes the
    event to its trace file.

    {2 Consistency contract}

    Metric cells are word-sized OCaml values, so every individual read
    and write is atomic — a reader can never observe a torn counter.
    What is {e not} guaranteed without external serialization:

    - [Counter.add]/[Counter.incr] from two threads may lose updates
      (read-modify-write races).  Modules with multiple writer threads
      must bump under their own mutex, as [Net.Transport] does.
    - A histogram observation updates several cells (bucket, sum,
      min/max, count); concurrent observers of the {e same} histogram
      must be serialized by the caller.
    - {!Registry.snapshot} reads each cell atomically but does not
      freeze writers: a snapshot taken mid-bump may see metric A
      before and metric B after the same logical event.  Snapshots
      are exact whenever the caller quiesces writers or holds the
      lock the writers bump under.

    Registration ({!Registry.counter} and friends) and snapshotting
    are serialized by the registry's own mutex and may be called from
    any thread. *)

module Counter : sig
  type t

  val value : t -> int
  val incr : t -> unit
  val add : t -> int -> unit

  val set : t -> int -> unit
  (** [set] serves the daemon's counter mirror, which copies the
      [Recovery.Metrics] counters into the registry from a
      {!Registry.on_collect} hook; hot paths use {!incr}/{!add}. *)
end

module Gauge : sig
  type t

  val value : t -> float
  val set : t -> float -> unit
  val add : t -> float -> unit
end

module Histogram : sig
  (** Fixed-bucket base-2 log-scale histogram.  Bucket [i] counts
      observations in [(2^(i-31), 2^(i-30)]] seconds — spanning
      ~1 ns to 128 s — with one final overflow bucket; underflow and
      non-positive values land in bucket 0.  Observing is O(1): one
      [frexp], five cell writes.  NaN observations are ignored. *)

  type t

  val bucket_count : int
  (** Number of buckets including the overflow bucket. *)

  val bound : int -> float
  (** Inclusive upper bound of bucket [i]; [infinity] for the last. *)

  val observe : t -> float -> unit
  val count : t -> int
  val sum : t -> float

  val max_value : t -> float
  (** Largest observation, [nan] while empty. *)
end

module Snapshot : sig
  (** An immutable, mergeable view of a registry's metrics. *)

  type hist = {
    counts : int array;  (** per-bucket counts, {!Histogram.bucket_count} long *)
    sum : float;
    minv : float;  (** [nan] when empty *)
    maxv : float;  (** [nan] when empty *)
  }

  type value = Counter of int | Gauge of float | Hist of hist

  type t

  val empty : t

  val bindings : t -> ((string * (string * string) list) * value) list
  (** Sorted by (name, labels). *)

  val counter : t -> ?labels:(string * string) list -> string -> int
  (** Value of a counter sample; [0] when absent. *)

  val gauge : t -> ?labels:(string * string) list -> string -> float
  (** Value of a gauge sample; [0.] when absent. *)

  val hist : t -> ?labels:(string * string) list -> string -> hist option

  val hist_count : hist -> int
  val hist_mean : hist -> float
  (** [nan] when empty. *)

  val quantile : hist -> float -> float option
  (** [quantile h p] for [p] in [0..100]: the upper bound of the
      bucket holding the rank-[ceil (p/100 * count)] observation,
      clamped into [[minv, maxv]] — so any returned estimate is
      bounded by the recorded extremes.  [None] when empty. *)

  val merge : t -> t -> t
  (** Pointwise on (name, labels): counters sum exactly, gauges sum,
      histograms add bucket-wise with [sum] summed and [minv]/[maxv]
      taken as min/max.  A key present on one side passes through, so
      [empty] is the identity.  Merge is commutative.  It is associative
      exactly on counters, bucket counts and extremes; gauge values and
      histogram [sum]s are float additions, so regrouping a merge can
      move them by a rounding step, and {!equal} (which compares bits)
      may tell the two groupings apart.
      @raise Invalid_argument when the two sides disagree on a
      sample's kind. *)

  val merge_all : t list -> t

  val equal : t -> t -> bool
  (** Structural, with floats compared by bits (so [nan] = [nan]). *)

  val to_text : t -> string
  (** Versioned text exposition.  First line is [# koptlog-obs v1];
      each family is announced by a [# TYPE name kind] line followed
      by Prometheus-style samples [name{label="v",...} value].
      Histograms render as cumulative [_bucket{le="..."}] lines
      (zero-increment buckets elided, [le="+Inf"] always present)
      plus [_sum], [_count], [_min] and [_max] samples. *)

  val of_text : string -> (t, string) result
  (** Parses what {!to_text} emits; [to_text] then [of_text] is the
      identity.  Unknown [#] comment lines are ignored; anything else
      malformed — bad header, untyped sample, non-monotone bucket
      cumulative, missing histogram component — is an [Error] naming
      the offending line. *)
end

module Registry : sig
  type t

  val create : unit -> t

  val counter : t -> ?labels:(string * string) list -> string -> Counter.t
  (** Get-or-create.  Metric names must match
      [[A-Za-z_][A-Za-z0-9_]*]; labels are sorted internally so label
      order never distinguishes metrics.
      @raise Invalid_argument on a malformed name, a kind clash with
      an existing metric of the same name, or a reserved histogram
      suffix ([_bucket]/[_sum]/[_count]/[_min]/[_max] when the base
      name is a histogram). *)

  val gauge : t -> ?labels:(string * string) list -> string -> Gauge.t
  val histogram : t -> ?labels:(string * string) list -> string -> Histogram.t

  val on_collect : t -> (unit -> unit) -> unit
  (** Register a hook run at the start of every {!snapshot} — the
      bridge point for modules that keep their own bookkeeping
      (hooks typically [Counter.set] mirrored values).  Hooks run
      outside the registry mutex and may register metrics. *)

  val snapshot : t -> Snapshot.t
end

module Span : sig
  (** Phase timers: a named histogram observed in seconds.  Subsumes
      the old env-gated [KOPT_PROF] profiler — spans are always on;
      the cost is two clock reads per timed section. *)

  type t

  val create : Registry.t -> ?labels:(string * string) list -> string -> t
  val time : t -> (unit -> 'a) -> 'a
  val record : t -> seconds:float -> unit
end
