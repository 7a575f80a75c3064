(** Sanitizer pipeline: trace → import → lockset + irq analysis →
    cross-validation, surfaced as [lockdoc sanitize].

    The trace comes from {!Lockdoc_ksim.Run.sanitize_trace}: one
    benchmark family plus a work-queueing thread and a deterministic
    timer interrupt, with fault sites forced to exactly the seeded
    ground-truth bugs or silenced entirely. The report is deterministic
    for a fixed (workload, seed, scale, bugs). *)

type report = {
  s_workload : string;
  s_seed : int;
  s_scale : int;
  s_bugs : bool;  (** seeded ground-truth bugs active? *)
  s_events : int;
  s_accesses : int;  (** accesses kept by the importer *)
  s_races : Lockset.race list;
  s_irq : Irq.report;
  s_truth : Lockdoc_ksim.Seeded.truth;
  s_crossval : Crossval.t;
}

val analyse :
  ?jobs:int ->
  workload:string ->
  seed:int ->
  scale:int ->
  bugs:bool ->
  truth:Lockdoc_ksim.Seeded.truth ->
  Lockdoc_trace.Trace.t ->
  report
(** Import and analyse an existing sanitizer trace.

    [jobs] is ignored. It is kept only so existing callers that still
    pass it compile, and goes once the benchmark harness stops passing
    it. *)

val run : ?seed:int -> ?scale:int -> bugs:bool -> string -> report
(** Generate the trace and analyse it. Raises [Invalid_arg] for
    workloads outside {!Lockdoc_ksim.Run.workload_names}. *)

val render : report -> string
(** Human-readable report. *)

val to_json : report -> string
(** Machine-readable report (races with witnesses, irq usage/unsafety,
    ground truth, precision/recall). *)
