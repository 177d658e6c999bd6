(** Structured observability for the mapping engine: hierarchical trace
    spans, a metrics registry, rate-limited warnings, and exporters.

    The layer is deliberately theory-free — it never inspects matrices
    or verdicts, only names and clocks — so every library from
    [Hnf] up to [Diff] can depend on it without cycles.  Design
    constraints, in order:

    - {e near-zero cost when disabled}: {!Trace.with_span} is one
      atomic load plus a closure call while tracing is off, so the hot
      screening paths of [Analysis] and [Procedure51] stay
      instrumented permanently;
    - {e thread-safety}: span stacks are per {e thread} (not per
      domain — the daemon runs its event loop and batcher workers as
      sibling threads of one domain, and a shared stack would
      interleave their span trees), the collector and every metric are
      safe to touch from any domain, and [Engine.Pool] re-parents
      worker spans under the span that was open at the [map] call;
    - {e machine-readable output}: {!Export} renders the same data as
      Chrome [trace_event] JSON (for [chrome://tracing] / Perfetto)
      and as the [spans]/[metrics] fields of the schema-v2 CLI
      documents (see [docs/SCHEMA.md]). *)

(** A monotonic clock, for durations that must not jump when the wall
    clock is stepped (hedge delays, token-bucket refills, probe
    timings). *)
module Clock : sig
  val now_s : unit -> float
  (** Seconds since an arbitrary fixed origin ([CLOCK_MONOTONIC]).
      Only differences of two readings mean anything. *)
end

(** Hierarchical wall-clock spans.

    Tracing is globally off until {!Trace.enable}; while off,
    {!Trace.with_span} runs its thunk with no allocation beyond the
    closure.  While on, each [with_span] records one completed {!Trace.span}
    with its parent (the innermost span open {e on the same thread},
    or the parent installed by {!Trace.with_parent} for pool workers
    and the daemon's loop-inline fastpaths).
    The collector keeps at most {!Trace.capacity} spans per session;
    excess spans are dropped (counted by {!Trace.dropped}) rather than
    growing without bound. *)
module Trace : sig
  type span = {
    id : int;                       (** Unique within the session. *)
    parent : int option;            (** [None] for a root span. *)
    name : string;
    domain : int;                   (** Numeric id of the recording domain. *)
    start_s : float;                (** Seconds since {!enable}. *)
    dur_s : float;                  (** Wall-clock duration, [>= 0]. *)
    args : (string * string) list;  (** Static key/value annotations. *)
  }

  val enable : unit -> unit
  (** Start a tracing session: clears previously collected spans and
      restarts the epoch clock. *)

  val disable : unit -> unit
  (** Stop collecting.  Already-recorded spans remain readable. *)

  val enabled : unit -> bool

  val clear : unit -> unit
  (** Drop all collected spans and the dropped-span count (the enabled
      flag is left as is). *)

  val with_span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
  (** [with_span name f] runs [f] and, when tracing is enabled, records
      a span covering its execution — including when [f] raises (the
      exception is re-raised after the span is closed).  Nesting is per
      thread: spans opened inside [f] on the same thread become its
      children. *)

  val current : unit -> int option
  (** The id of the innermost open span on the calling thread, if any
      (always [None] while tracing is disabled).  Pool implementations
      capture this before fanning work out. *)

  val with_parent : int option -> (unit -> 'a) -> 'a
  (** [with_parent p f] runs [f] with the span stack of the calling
      thread temporarily replaced by [p], so spans opened by [f] become
      children of [p] even though [p] was opened on another thread —
      or roots, with [with_parent None].  Restores the previous stack
      afterwards (also on exceptions).  A no-op while tracing is
      disabled. *)

  val spans : unit -> span list
  (** All completed spans of the session, in completion order.  Spans
      still open (e.g. read from inside a [with_span]) are absent. *)

  val aggregate : span list -> (string * int * float) list
  (** [(name, count, total_seconds)] per span name, sorted by name —
      the per-phase wall-time totals used by the CLI and the bench
      harness. *)

  val capacity : int
  (** Maximum spans retained per session (1_000_000). *)

  val dropped : unit -> int
  (** Spans discarded because the collector was full. *)
end

(** A process-wide registry of named counters, gauges and histograms.

    Instruments are created on first use ([counter name] twice returns
    the same instrument) and live for the whole process; {!Metrics.reset}
    zeroes every value but keeps the registrations.  Counters are
    atomic and safe to bump from any domain; gauges and histograms are
    mutex-protected.  This registry replaces the former
    [Engine.Telemetry] counters — the metric names the engine emits
    are listed in [docs/SCHEMA.md]. *)
module Metrics : sig
  type counter
  type gauge
  type histogram

  val counter : string -> counter
  (** Get or create the counter registered under [name]. *)

  val incr : counter -> unit
  val add : counter -> int -> unit
  val value : counter -> int

  val set_counter : counter -> int -> unit
  (** Overwrite a counter (used by cache [clear]-style resets; normal
      producers should only ever {!incr}/{!add}). *)

  val gauge : string -> gauge
  (** Get or create the gauge registered under [name]. *)

  val set_gauge : gauge -> float -> unit
  val set_gauge_max : gauge -> float -> unit
  (** Keep the maximum of the current and the given value — the
      "widest pool observed" style of gauge. *)

  val gauge_value : gauge -> float

  val histogram : string -> histogram
  (** Get or create the histogram registered under [name]. *)

  val observe : histogram -> float -> unit
  (** Record one sample (the engine observes milliseconds). *)

  type hist = {
    count : int;
    sum : float;
    min_v : float;  (** [infinity] when no sample was recorded. *)
    max_v : float;  (** [neg_infinity] when no sample was recorded. *)
  }

  type snapshot = {
    counters : (string * int) list;        (** Sorted by name. *)
    gauges : (string * float) list;        (** Sorted by name. *)
    histograms : (string * hist) list;     (** Sorted by name. *)
  }

  val snapshot : unit -> snapshot

  val counter_value : snapshot -> string -> int
  (** The snapshotted value of a counter, [0] when absent. *)

  val reset : unit -> unit
  (** Zero every registered instrument (registrations survive). *)

  val pp : Format.formatter -> snapshot -> unit
  (** Human-readable one-instrument-per-line rendering; zero-valued
      instruments are omitted. *)
end

(** Rate-limited stderr warnings, for pathologies that should be
    visible once per process rather than once per query (e.g. the
    rank-deficient mapping matrices that force the exact-oracle slow
    path; see [docs/SCHEMA.md]). *)
module Warn : sig
  val once : string -> string -> bool
  (** [once key message] prints ["warning: " ^ message] to stderr the
      first time [key] is seen and returns whether it printed. *)

  val reset : unit -> unit
  (** Forget all seen keys (tests only). *)
end

(** Renderers from the collected data to {!Json.t} documents. *)
module Export : sig
  val chrome_trace : Trace.span list -> Json.t
  (** A Chrome [trace_event] document — [{"traceEvents": [...]}] with
      one complete ("ph":"X") event per span, timestamps in
      microseconds, one thread lane per domain.  Loadable in
      [chrome://tracing] and Perfetto. *)

  val span_tree : Trace.span list -> Json.t
  (** The hierarchical span forest for the schema-v2 reports: an array
      of root spans, each [{"name", "domain", "start_ms", "dur_ms",
      "args", "children"}] with children nested recursively.  Spans
      whose parent was dropped by the collector cap surface as
      additional roots. *)

  val metrics : Metrics.snapshot -> Json.t
  (** [{"counters": {...}, "gauges": {...}, "histograms": {...}}] with
      instrument names as keys.  Zero-valued instruments are included —
      consumers can rely on a registered name being present. *)

  val phases : (string * int * float) list -> Json.t
  (** {!Trace.aggregate} output as [[{"name", "count", "total_ms"}]]. *)

  val write_file : string -> Json.t -> unit
  (** Serialize compactly to a file, newline-terminated.
      @raise Sys_error when the path is not writable. *)
end
