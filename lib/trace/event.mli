(** Trace events emitted by the instrumented (simulated) kernel.

    An execution trace is a totally ordered stream of these events, as
    produced by a single-core emulated machine (paper Sec. 5.2/6). The
    stream interleaves the activity of all tasks and interrupt handlers;
    {!Ctx_switch} events delimit which control flow the following events
    belong to, so the post-processing step can keep per-control-flow lock
    state. *)

type access_kind = Read | Write

type lock_side =
  | Exclusive  (** writer side, or the only side of a plain lock *)
  | Shared  (** reader side of rwlock / rwsem / RCU *)

type lock_kind =
  | Spinlock
  | Rwlock
  | Mutex
  | Semaphore
  | Rwsem
  | Rcu
  | Seqlock
  | Pseudo  (** synthetic softirq/hardirq/preempt "locks" (paper Sec. 7.1) *)

type ctx_kind = Task | Softirq | Hardirq

type t =
  | Alloc of { ptr : int; size : int; data_type : string; subclass : string option }
      (** A monitored data structure instance was allocated. *)
  | Free of { ptr : int }
  | Lock_acquire of {
      lock_ptr : int;
      kind : lock_kind;
      side : lock_side;
      name : string;  (** variable name for static locks, member name otherwise *)
      loc : Srcloc.t;
    }
  | Lock_release of { lock_ptr : int; loc : Srcloc.t }
  | Mem_access of { ptr : int; size : int; kind : access_kind; loc : Srcloc.t }
      (** Read/write of [size] bytes at [ptr], which falls inside a live
          monitored allocation. *)
  | Fun_enter of { fn : string; loc : Srcloc.t }
  | Fun_exit of { fn : string }
  | Ctx_switch of { pid : int; kind : ctx_kind }
      (** The following events belong to control flow [pid]. Interrupt
          handlers get their own pseudo-pids. *)

val lock_kind_to_string : lock_kind -> string
val lock_kind_of_string : string -> lock_kind
val ctx_to_string : ctx_kind -> string
val ctx_of_string : string -> ctx_kind

val to_line : t -> string
(** One-line, tab-separated serialisation. Free-form name fields are
    {!Fieldenc}-escaped, so identifiers may contain tabs, newlines or
    separator characters without breaking framing. *)

val add_line : Buffer.t -> t -> unit
(** [add_line b e] appends [to_line e] to [b] (no newline); {!to_line}
    is defined through it. *)

val of_line : string -> t
(** Inverse of {!to_line}. Raises [Failure] on malformed input. *)

type scanner
(** An intern table for one read: one string per function, lock or type
    name and one {!Srcloc.t} per raw location field, looked up by the
    bytes of the field so that a hit allocates nothing. Holds the
    scanner's cursor, so one read uses one scanner at a time. *)

val scanner : unit -> scanner

val scan : scanner -> string -> int -> int -> t option
(** [scan sc s start stop] parses the line [s.[start] .. s.[stop - 1]]
    (no newline) in place, or declines it with [None]. It declines every
    line it is not certain about: any escape, an int other than an
    optional leading ['-'] and 1 to 18 decimal digits, a wrong field
    count, an unknown tag or enum. An accepted line yields an event equal
    to {!of_line} of the same line; a declined one is for {!of_line} to
    parse or reject. Raises [Invalid_argument] on a slice outside [s]. *)

val parse : scanner -> string -> t
(** [parse sc line] is {!scan} over the whole line, falling back to
    {!of_line} when the scanner declines. Raises [Failure] as {!of_line}
    does. *)

val arity_of_tag : string -> int option
(** Expected field count (including the tag itself) for a record tag, or
    [None] for an unknown tag. Used by the validating reader to classify
    truncated records separately from unparseable fields. *)

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
