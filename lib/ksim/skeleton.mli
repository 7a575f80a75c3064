(** Declarative static skeletons ("the IR") for simulated kernel
    functions.

    Every function the simulated kernel executes under a
    [Kernel.fn_scope] also registers a small regular-expression-shaped
    CFG here, next to its [Source.declare] registration: acquire and
    release nodes carrying the lock kind and reader/writer side,
    member-access nodes carrying (type, member, read/write), irq/bh
    mask toggles, call edges (including virtual-dispatch alternatives),
    and branch/loop joins. The static analyses in [lib/static] run
    entirely over this IR; the dynamic traces keep it honest through
    the differential meta-check (every trace event must be explicable
    by some IR path of the emitting function — dynamic ⊆ static).

    Instances are named by {e object variables}: plain strings scoped
    to one skeleton body ("i", "d", "i.sb", ...). Two nodes mentioning
    the same variable talk about the same instance, which is what lets
    the must-held analysis decide between embedded-same ([Es]) and
    embedded-other ([Eo]) lock descriptors without pointers. *)

module Event = Lockdoc_trace.Event

(** A lock as the IR sees it: either a static (global) lock named by
    its variable name, or a lock embedded in an object instance. The
    [member] of an embedded lock is the exact name the runtime gives
    the lock at creation (so dotted paths like ["i_data.tree_lock"]
    appear verbatim). *)
type lockref =
  | Sglobal of string
  | Smember of { ty : string; var : string; member : string }

type node =
  | Nop  (** empty path *)
  | Seq of node list  (** sequential composition *)
  | Alt of node list  (** branch: exactly one alternative executes *)
  | Opt of node  (** zero or one *)
  | Star of node  (** zero or more iterations *)
  | Plus of node  (** one or more iterations *)
  | Acquire of { lock : lockref; kind : Event.lock_kind; side : Event.lock_side }
  | Release of lockref
  | Access of {
      ty : string;
      var : string;
      member : string;
      kind : Event.access_kind;
    }
  | Call of { callees : string list; binds : (string * string) list }
      (** A call to one of [callees] (several = virtual dispatch).
          [binds] maps caller object variables to callee object
          variables, with dotted-prefix extension: binding
          [("i", "inode")] also carries ["i.sb"] to ["inode.sb"]. *)
  | Irq_off  (** local_irq_disable: masks hard irqs (maybe-transition) *)
  | Irq_on
  | Bh_off  (** local_bh_disable *)
  | Bh_on
  | Blocks  (** a direct blocking point (wait_until) with no event *)

(** A skeleton body. [Wild] accepts {e any} event sequence and is
    excluded from every analysis — it is reserved for the init/teardown
    constructors and atomic helpers that the dynamic importer's
    [Filter.default] blacklists for the same reason. *)
type body = Wild | Body of node

type fn = {
  sk_name : string;
  sk_subsystem : string;  (** report grouping: "vfs", "jbd2", ... *)
  sk_root : bool;  (** called directly by workload drivers *)
  sk_irq : bool;  (** runs in hardirq/softirq context *)
  sk_body : body;
}

val register :
  ?root:bool -> ?irq:bool -> subsystem:string -> string -> node -> unit
(** Register a skeleton. Raises [Invalid_argument] on duplicate
    registration — the IR is declared once, next to the function. *)

val register_wild : ?root:bool -> ?irq:bool -> subsystem:string -> string -> unit

val find : string -> fn option

val count : unit -> int
(** Number of registered skeletons. Registration only ever adds, so an
    unchanged count means an unchanged registry. *)

val all : unit -> fn list  (** sorted by name; deterministic *)

val subsystems : unit -> string list  (** sorted, distinct *)

val node_count : fn -> int
(** IR size: leaves + joins, [Wild] counts 1. *)

(** {2 Letters and acceptance}

    The meta-check reduces each dynamic function invocation to a word
    of letters — its directly-emitted events plus one [L_call] per
    nested invocation — and asks the skeleton's NFA to accept it. *)

type letter =
  | L_acquire of { name : string; kind : Event.lock_kind; side : Event.lock_side }
  | L_release of { name : string; kind : Event.lock_kind }
  | L_access of { ty : string; member : string; kind : Event.access_kind }
  | L_call of string

val letter_to_string : letter -> string

val accepts : fn -> letter list -> bool
(** NFA acceptance of the letter word by the skeleton body. [Wild]
    accepts everything. Mask toggles ([Irq_off] etc.) match their
    pseudo-lock letter {e optionally}, because the runtime only emits
    mask events on actual 0↔1 transitions. *)

(** {2 Helpers for lib/static} *)

val lockref_name : lockref -> string
(** The event-level name of the lock: variable name for [Sglobal],
    member name for [Smember]. *)

val bind_var : (string * string) list -> string -> string
(** [bind_var binds v] rewrites a caller variable into the callee's
    namespace: an exact or dotted-prefix match of a bind's left side is
    rewritten to its right side; unbound variables are prefixed with
    ["^"] so they stay distinct from every callee-local variable. *)

(** {2 Construction helpers}

    Terse combinators used by the per-subsystem registrations; each
    lock helper mirrors the exact event emission of the corresponding
    [Lock] primitive (e.g. [spin_lock_irq] is a maybe-transition mask
    toggle followed by the acquire). *)

val seq : node list -> node
val alt : node list -> node
val opt : node -> node
val star : node -> node
val plus : node -> node
val call : ?binds:(string * string) list -> string -> node
val vcall : ?binds:(string * string) list -> string list -> node
val acquire : ?side:Event.lock_side -> Event.lock_kind -> lockref -> node
val release : lockref -> node
val spin_lock : lockref -> node
val spin_unlock : lockref -> node
val spin_lock_irq : lockref -> node
val spin_unlock_irq : lockref -> node
val spin_lock_bh : lockref -> node
val spin_unlock_bh : lockref -> node
val read_lock : lockref -> node
val write_lock : lockref -> node
val mutex_lock : lockref -> node
val mutex_unlock : lockref -> node
val down : lockref -> node
val up : lockref -> node
val down_read : lockref -> node
val down_write : lockref -> node
val up_read : lockref -> node
val up_write : lockref -> node
val downgrade_write : lockref -> node
val rcu_lock : lockref
val with_rcu : node -> node
val write_seqlock : lockref -> node
val write_sequnlock : lockref -> node
val read_seq : lockref -> node -> node
val access : Event.access_kind -> string -> string -> string -> node
val read_m : string -> string -> string -> node
val write_m : string -> string -> string -> node
val modify_m : string -> string -> string -> node
val with_lock : lock:node -> unlock:node -> node -> node
