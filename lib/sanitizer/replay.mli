(** Counterexample replay: directed-schedule confirmation of sanitizer
    and violation findings (the precision half of the pipeline).

    A lockset race or rule violation is a claim; this engine re-executes
    the originating workload under a programmable schedule controller
    ({!Lockdoc_ksim.Kernel.control}) and either exhibits a concrete bad
    interleaving — a two-flow witness with task ids, source locations
    and the locks held at every step — or refutes the finding with a
    machine-checked reason. The schedule search arms a breakpoint at
    successive occurrences of the suspicious access, forces a
    preemption there, and runs the other flows in a bounded window
    looking for a conflicting access with no common protection; rounds
    retry missed windows with doubled windows and shifted arming
    strides (seeded, deterministic). Irq-unsafety findings are replayed
    by raising the timer interrupt at the moment the flagged lock class
    is held with interrupts enabled and catching the handler's
    in-atomic deadlock.

    Everything runs sequentially on the calling domain (the simulator
    has per-run global state; see DESIGN 5d). *)

type reason =
  | Caller_holds_lock of string
      (** every conflicting access observed was ordered by this lock
          class (or the access itself sat under it, preemption off) *)
  | Rcu_read_section
      (** the flagged reads sit inside RCU/seqlock read sections:
          publish/retry protocols, not lock protection *)
  | Quiescent_init_teardown
      (** every occurrence ran single-threaded (no other live flow, or
          under a shutdown entry point) *)
  | Budget_exhausted
      (** the bounded schedule search found neither a conflicting
          interleaving nor a structural excuse *)

type step = {
  st_pid : int;  (** -1 for interrupt context *)
  st_flow : string;  (** task (or handler) name *)
  st_action : string;
  st_loc : Lockdoc_trace.Srcloc.t;
  st_held : string list;  (** lock classes held by that flow *)
}
(** One step of a witnessed interleaving. *)

type verdict =
  | Confirmed of step list  (** the serialized interleaving witness *)
  | Refuted of reason

type target =
  | Race_target of { rt_type : string; rt_member : string }
      (** [rt_type] is a store type key, e.g. "super_block" or
          "inode:ext4" *)
  | Irq_target of { it_class : string }

val target_id : target -> string
(** "type.member" for races, the class name for irq targets. *)

type outcome = {
  o_target : target;
  o_sources : string list;
      (** which detectors flagged it: "lockset", "violation", "irq" *)
  o_verdict : verdict;
  o_schedules : int;  (** directed schedules explored for this target *)
}

type report = {
  r_workload : string;
  r_seed : int;
  r_scale : int;
  r_bugs : bool;
  r_budget : int;
  r_events : int;  (** events in the analysed sanitizer trace *)
  r_outcomes : outcome list;
  r_schedules : int;  (** directed schedules explored in total *)
  r_races_pre : Crossval.score;  (** all race findings vs seeded truth *)
  r_races_post : Crossval.score;  (** confirmed-only vs seeded truth *)
  r_irq_pre : Crossval.score;
  r_irq_post : Crossval.score;
}

val search :
  ?seed:int ->
  ?scale:int ->
  ?budget:int ->
  bugs:bool ->
  workload:string ->
  target list ->
  (target * verdict * int) list * int
(** The directed-execution phase alone: replay the given targets
    against the workload and return, in input order, each target's
    verdict and schedules explored, plus the total. Sequential and
    deterministic for a fixed (workload, seed, scale, budget, bugs).
    A target whose access never executes terminates cleanly as
    [Refuted Budget_exhausted] with zero schedules. *)

val run :
  ?jobs:int ->
  ?seed:int ->
  ?scale:int ->
  ?budget:int ->
  bugs:bool ->
  string ->
  report
(** Full pipeline: generate the sanitizer trace, collect findings
    (lockset races, mined-rule violations, irq-unsafe classes), replay
    every finding, and score precision/recall before and after triage.
    [budget] (default 8) bounds directed schedules per finding per
    round. Raises [Invalid_arg] for workloads outside
    {!Lockdoc_ksim.Run.workload_names}.

    [jobs] is ignored. It is kept only so existing callers that still
    pass it compile, and goes once the benchmark harness stops passing
    it. *)

val render : report -> string
(** Human-readable report: per-finding verdicts with witnesses or
    refutation reasons, then the pre/post-triage scores. *)

val to_json : report -> string
(** Machine-readable report ({!Lockdoc_obs.Json} encoding). *)

val verdict_to_json : verdict -> Lockdoc_obs.Json.t

val verdict_of_json : Lockdoc_obs.Json.t -> (verdict, string) result
(** Inverse of {!verdict_to_json}: [verdict_of_json (verdict_to_json v)]
    recovers [v] exactly (witness round-trip). *)
