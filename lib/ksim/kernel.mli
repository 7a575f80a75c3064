(** The simulated kernel runtime.

    Substitutes the paper's Bochs/FAIL* environment: a single-core machine
    running cooperatively scheduled kernel control flows, with hard- and
    soft-interrupt injection at preemption points, and an instrumentation
    bus that appends every observable action (allocation, lock operation,
    member access, function entry/exit, context switch) to a trace sink.

    Kernel code (the subsystems under this directory) runs inside
    {!spawn}ed tasks; synchronisation primitives in {!Lock} block through
    {!wait_until} and create preemption points through {!preempt_point}.
    Classic kernel discipline is enforced: sleeping with preemption
    disabled raises, as does blocking inside an interrupt handler. *)

(** {2 Structured scheduler halts} *)

type flow_state =
  | Fl_runnable
  | Fl_blocked of string  (** the [wait_until] reason *)
  | Fl_finished

type flow = { fl_pid : int; fl_name : string; fl_state : flow_state }
(** One control flow's snapshot at a scheduling decision or halt. *)

type halt = {
  h_deadlock : bool;  (** [true]: every live flow blocked; [false]: budget *)
  h_steps : int;  (** scheduler iterations consumed *)
  h_budget : int;  (** the configured [max_steps] *)
  h_flows : flow list;  (** every spawned flow, in pid order *)
}
(** Machine-readable halt diagnostic. Budget halts list which flows
    were still runnable; deadlock halts carry each blocked flow's wait
    reason. *)

val describe_halt : halt -> string
(** One-line rendering (also installed as the [Printexc] printer for
    {!Deadlock} and {!Stuck}). *)

exception Deadlock of halt
(** All remaining control flows are blocked with no interrupt able to make
    progress. *)

exception Stuck of halt
(** The step budget was exhausted (runaway livelock guard). *)

exception Sleep_in_atomic of string
(** A control flow tried to block while preemption was disabled or from
    interrupt context. *)

type config = {
  seed : int;
  hardirq_rate : float;  (** injection probability per preemption point *)
  softirq_rate : float;
  max_steps : int;  (** scheduler-iteration budget *)
}

val default_config : config

(** {2 Run lifecycle} *)

val add_boot_hook : (unit -> unit) -> unit
(** Modules with per-run global state (heap, static locks) register a
    reset hook once at load time. *)

(** {2 Schedule control (replay)} *)

type access_view = {
  av_type : string;  (** layout type name, e.g. "super_block" *)
  av_subclass : string option;
  av_member : string;
  av_ptr : int;  (** absolute member address *)
  av_kind : Lockdoc_trace.Event.access_kind;
  av_loc : Lockdoc_trace.Srcloc.t;
      (** the source location the access is about to emit *)
  av_pid : int;  (** -1 in hardirq/softirq context *)
  av_in_irq : bool;
  av_preempt_off : bool;
  av_irq_off : bool;
  av_stack : string list;  (** function scopes, innermost first *)
}
(** A data-member access about to happen, as seen by a breakpoint: the
    event is not yet emitted and the access not yet performed. *)

type control = {
  ctl_on_access : access_view -> unit;
      (** Breakpoint hook: runs before every data-member access, inside
          the accessing flow. May call {!preempt_now} to force a
          directed switch at this exact point. *)
  ctl_on_event : Lockdoc_trace.Event.t -> unit;
      (** Tap on the instrumentation bus (every emitted event). Runs
          synchronously; {!current_pid} and friends describe the
          emitting context. *)
  ctl_pick : (unit -> flow list) -> int option;
      (** Scheduling override, consulted at every scheduler iteration
          with a thunk that snapshots all flows: a hook that does not
          call it costs no list. [None] (or a pid that is not
          currently runnable) defers to the seeded default choice —
          directed picks never consume scheduler randomness. *)
}
(** A programmable schedule controller. All hooks of {!null_control}
    are no-ops and add no per-access allocation. *)

val null_control : control

val preempt_now : unit -> bool
(** Force a preemption from inside a controller hook: yields to the
    scheduler and returns [true] if kernel discipline allows it;
    returns [false] without yielding in irq context or while
    preemption is disabled. *)

val flows : unit -> flow list
(** Snapshot of every flow of the current run. *)

val peek_loc : unit -> Lockdoc_trace.Srcloc.t
(** The location {!here} would return next, without advancing the
    cursor or marking coverage. *)

val access_point :
  ty:string ->
  subclass:string option ->
  member:string ->
  ptr:int ->
  kind:Lockdoc_trace.Event.access_kind ->
  unit
(** Breakpoint site used by {!Memory}: offers the resolved access to
    the controller, then behaves as an ordinary {!preempt_point}. *)

val run :
  ?config:config ->
  ?control:control ->
  layouts:Lockdoc_trace.Layout.t list ->
  (unit -> unit) ->
  Lockdoc_trace.Trace.t * Source.coverage
(** [run ~layouts setup] boots a fresh kernel, calls [setup] (which spawns
    tasks and registers interrupt handlers), schedules until every task
    finished, and returns the recorded trace and coverage. [control]
    (default {!null_control}) installs a schedule controller for the
    whole run. *)

val spawn : string -> (unit -> unit) -> unit
val register_hardirq : string -> (unit -> unit) -> unit
val register_softirq : string -> (unit -> unit) -> unit

(** {2 Primitives used by kernel code and the Lock/Memory layers} *)

val emit : Lockdoc_trace.Event.t -> unit
val prng : unit -> Lockdoc_util.Prng.t
val current_pid : unit -> int
val in_irq : unit -> bool

val fn_scope : file:string -> span:int -> string -> (unit -> 'a) -> 'a
(** [fn_scope ~file ~span name body] — enter the simulated kernel function
    [name] (declared on first use): emits [Fun_enter]/[Fun_exit], marks
    coverage, and maintains the per-flow line cursor used by {!here}. *)

val debug_frames : unit -> (Source.fn * int ref) list
(** Current function-scope stack (diagnostics only). *)

val here : unit -> Lockdoc_trace.Srcloc.t
(** Current synthetic source location: the next line of the innermost
    function scope; advances the cursor and marks line coverage. *)

val preempt_point : unit -> unit
(** Voluntary preemption point: may switch to another task and/or inject
    interrupts. No-op while preemption is disabled or in IRQ context. *)

val wait_until : string -> (unit -> bool) -> unit
(** Block until the predicate holds. [reason] appears in {!Deadlock}
    diagnostics. Re-checked by the scheduler; the predicate must not have
    side effects. *)

val preempt_disable : unit -> unit
val preempt_enable : unit -> unit

val local_irq_disable : unit -> unit
(** Mask interrupts. Modelled as acquiring the "irqoff" pseudo-lock
    (ptr {!irqoff_lock_ptr}) so irq-safety analyses can see, at every
    access and acquisition, whether interrupts were enabled. Only the
    off/on transitions emit events. *)

val local_irq_enable : unit -> unit
val local_bh_disable : unit -> unit
val local_bh_enable : unit -> unit
val preempt_disabled : unit -> bool

val irqoff_lock_ptr : int
(** Pseudo-lock address held while interrupts are masked. *)

val bhoff_lock_ptr : int
(** Pseudo-lock address held while bottom halves are masked. *)

val raise_hardirq : unit -> unit
(** Run every registered hardirq handler once, synchronously, as if the
    interrupt fired here. No-op when already in irq context or
    interrupts are masked. Deterministic counterpart to the
    probabilistic injector. *)

val raise_softirq : unit -> unit
(** Like {!raise_hardirq} for softirq handlers (honours bh masking). *)
