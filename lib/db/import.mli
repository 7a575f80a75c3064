(** Trace post-processing: turn a raw event stream into the relational
    store (paper phase ❶, Sec. 5.3/6).

    The importer replays the single-core event stream, keeping per-control-
    flow state (function stack, ordered held-lock list, current transaction)
    across {!Lockdoc_trace.Event.Ctx_switch} boundaries. A transaction
    starts at a lock acquisition and is resumed when a nested acquisition
    is released again (paper Sec. 4.2); out-of-order releases rebuild the
    affected nested transactions. *)

type irq_mode =
  | Inherit
      (** paper behaviour on a single core: an interrupt handler observes
          the interrupted flow's held locks (plus the synthetic
          softirq/hardirq pseudo-locks the kernel emits on entry) *)
  | Separate
      (** ablation: handlers start with a clean lock set *)

(** The reader's strictness, one type for both layers. For the
    importer:
    - [Strict] raises {!Lockdoc_trace.Trace.Invalid} on the first
      fatal anomaly (the historical behaviour);
    - [Lenient] recovers from every anomaly, counts it in
      {!anomalies}, and keeps importing. *)
type mode = Lockdoc_trace.Trace.mode = Strict | Lenient

type anomalies = {
  an_unknown_data_type : int;  (** alloc of a type with no layout; skipped *)
  an_double_free : int;  (** free of an already-freed region *)
  an_free_without_alloc : int;  (** free of a never-allocated pointer *)
  an_access_after_free : int;  (** monitored access inside a freed region *)
  an_acquire_on_freed : int;  (** lock acquire inside a freed region *)
  an_flow_conflict : int;  (** one flow id seen with two context kinds *)
  an_unclosed_txns : int;  (** locks still held at end of trace; their
                               transactions are flushed, not dropped *)
}

val no_anomalies : anomalies

type stats = {
  total_events : int;
  lock_ops : int;  (** acquisitions + releases *)
  mem_accesses : int;  (** raw memory-access events *)
  accesses_kept : int;
  filtered_fn : int;  (** dropped: init/teardown or ignored helper on stack *)
  filtered_member : int;  (** dropped: black-listed member *)
  filtered_kind : int;  (** dropped: lock-typed or atomic member *)
  unresolved : int;  (** accesses outside any live monitored allocation *)
  unbalanced_releases : int;  (** releases of locks not held by the flow *)
  allocations : int;
  frees : int;
  locks_static : int;
  locks_embedded : int;
  txns : int;
  anomalies : anomalies;
}

val anomaly_total : stats -> int
(** Sum of all anomaly counters, including [unbalanced_releases]. Zero
    for a well-formed trace. *)

val run :
  ?filter:Filter.t ->
  ?irq_mode:irq_mode ->
  ?mode:mode ->
  Lockdoc_trace.Trace.t ->
  Store.t * stats
(** [run trace] imports with {!Filter.default}, [Inherit] and [Strict].
    On a well-formed trace the two modes produce identical results. *)

(** {2 Incremental engine}

    [run] is a thin wrapper over an incremental engine that consumes
    one event at a time. The engine is plain marshalable data (no
    closures), which is what lets the durability layer checkpoint an
    import mid-stream and resume it after a crash: a snapshot captures
    the engine, and replay continues from {!position}. *)

type engine

val engine :
  ?filter:Filter.t ->
  ?irq_mode:irq_mode ->
  ?mode:mode ->
  Lockdoc_trace.Layout.t list ->
  engine
(** Fresh engine over the given layouts. *)

val feed : engine -> Lockdoc_trace.Event.t -> unit
(** Process one event. Events must be fed in trace order; the engine
    tracks the index itself. May raise {!Lockdoc_trace.Trace.Invalid}
    in [Strict] mode. *)

val position : engine -> int
(** Index of the next event to feed (= number of events consumed). *)

val engine_store : engine -> Store.t

val finalize : engine -> stats
(** Run the end-of-trace unclosed-transaction pass and return final
    stats. Call exactly once, after the last event. *)

val pp_stats : Format.formatter -> stats -> unit
(** Prints the anomaly breakdown only when {!anomaly_total} is
    positive, so output for a clean trace is unchanged. *)
