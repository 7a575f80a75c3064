(** Observability: metrics registry, timing spans and a JSON snapshot
    API.

    Single-domain contract: every function here must be called from the
    one domain the program runs on. Counters, gauges and histogram
    buckets are plain mutable fields, the enabled flag is a [bool ref]
    and the span stack a plain list; nothing takes a lock. Nothing in
    [lib/] or [bin/] spawns a domain, and a tier-1 check in [test/dune]
    fails if [Domain], [Atomic] or [Mutex] appear there. Recording never
    mutates anything outside this module — in particular it never
    touches a {!Lockdoc_db.Store} — and never writes to stdout/stderr,
    so enabling metrics cannot change analysis output bytes.

    Recording is off by default. {!set_enabled}[ true] (done by the CLI
    when [--metrics] or [lockdoc profile] is used, and by the
    differential test harnesses) turns every [incr]/[observe]/span
    recording into a live update; when disabled they cost one load and
    a branch. Handles may be created at module-initialisation time
    either way. *)

(** {1 Clocks}

    The pre-existing pipeline timed phases with [Sys.time ()], which is
    {e process CPU time}: it stops while the process waits on I/O or a
    socket, so it is not elapsed time. [Clock] keeps the two notions
    separate.

    The wall clock is [CLOCK_MONOTONIC]: spans, histograms and the
    serve daemon's deadlines are all durations, and a wall-clock step
    (NTP, a manual date set) must not move them. Its epoch is
    unspecified (seconds since boot on Linux); only differences mean
    anything. *)

module Clock : sig
  type t = {
    wall : float;  (** elapsed real time, seconds ([CLOCK_MONOTONIC]) *)
    cpu : float;  (** process CPU time, seconds ([Sys.time]) *)
  }

  val wall : unit -> float
  (** Monotonic seconds: never decreases, unaffected by wall-clock
      steps. *)

  val cpu : unit -> float

  val now : unit -> t
  (** Current wall/cpu reading (absolute, only meaningful as a pair of
      endpoints). *)

  val elapsed : t -> t
  (** [elapsed t0] is the duration since [now ()] returned [t0]. *)

  val timed : (unit -> 'a) -> 'a * t
  (** Run a thunk and measure its wall and cpu duration. Always
      measures, independent of {!enabled} — callers that only want a
      number (e.g. the experiment context) rely on that. *)
end

(** {1 Enabling} *)

val set_enabled : bool -> unit
val enabled : unit -> bool

val reset : unit -> unit
(** Zero every registered metric and drop every span aggregate.
    Handles stay valid. Test-harness use only. *)

(** {1 Counters} *)

type counter

val counter : string -> counter
(** Find-or-create the counter with this name. Total order of
    registration does not matter; snapshots sort by name. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

(** {1 Gauges} *)

type gauge

val gauge : string -> gauge
val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

(** {1 Histograms} *)

type histogram

val default_buckets : float array
(** Upper bounds (exclusive final overflow bucket) for latency-style
    observations in milliseconds: 0.05 … 10000. *)

val histogram : ?buckets:float array -> string -> histogram
(** Find-or-create. [buckets] must be strictly increasing; it is fixed
    at first creation and ignored on subsequent lookups. *)

val observe : histogram -> float -> unit
val histogram_count : histogram -> int
val histogram_sum : histogram -> float

(** {1 Spans}

    A span is a named wall+cpu duration aggregated per name. Nested
    spans record under a slash-joined path:
    [Span.time "derive" (fun () -> Span.time "enumerate" …)] records
    ["derive"] and ["derive/enumerate"]. *)

module Span : sig
  val time : string -> (unit -> 'a) -> 'a
  (** Run the thunk inside a span. When disabled, runs the thunk with
      no clock reads at all. *)

  val timed : string -> (unit -> 'a) -> 'a * Clock.t
  (** Like {!time} but also returns the measured duration to the
      caller. Always measures (the duration is part of the caller's
      result); records into the registry only when enabled. *)

  val record : string -> Clock.t -> unit
  (** Fold an externally measured duration into the aggregate for
      [name] (benchmarks reuse this so BENCH JSON and [--metrics]
      output come from the same accumulators). *)

  val current_path : unit -> string list
  (** Enclosing span names, innermost first.
      Exposed for tests. *)
end

(** {1 Snapshots} *)

type hist_snapshot = {
  hs_buckets : float array;
  hs_counts : int array;  (** one longer than [hs_buckets]: overflow last *)
  hs_count : int;
  hs_sum : float;
}

type span_stat = { sp_count : int; sp_wall : float; sp_cpu : float }

type snapshot = {
  sn_counters : (string * int) list;  (** sorted by name *)
  sn_gauges : (string * float) list;
  sn_histograms : (string * hist_snapshot) list;
  sn_spans : (string * span_stat) list;
}

val snapshot : unit -> snapshot
(** A copy of every registered metric, sorted by name. *)

val snapshot_to_json : snapshot -> Json.t
val to_json_string : unit -> string

val write : string -> unit
(** Write [to_json_string () ^ "\n"] to a file (atomically: temp file +
    rename). *)

val write_on_exit : string -> unit
(** Arrange for {!write}[ path] to run when the process terminates —
    including through [Stdlib.exit], which skips [Fun.protect]
    finalisers but runs [at_exit] handlers. Writes at most once per
    registration; write errors at exit time are swallowed (the metrics
    snapshot must never change the command's exit code). *)

val find_counter : snapshot -> string -> int option
val find_span : snapshot -> string -> span_stat option
