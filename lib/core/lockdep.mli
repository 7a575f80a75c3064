(** A miniature lockdep: the in-situ lock-order validator the paper
    contrasts LockDoc with (Sec. 3.2).

    Like the kernel's lockdep, locks are grouped into {e classes} — one
    class per static lock, one per (data type, member) for embedded locks
    — and an acquisition-order graph is built from the trace: an edge
    A → B is recorded whenever B is acquired while A is held. Cycles in
    this graph are potential deadlocks; same-class (self) edges indicate
    nested locking that would need lockdep's nesting annotations.

    This is the complementary baseline analysis: lockdep validates lock
    {e ordering} per class, LockDoc mines which locks protect which
    {e members}. Neither subsumes the other. *)

type lock_class =
  | Static of string  (** a global lock, by variable name *)
  | Member of string * string  (** (data type, member) of embedded locks *)

val class_to_string : lock_class -> string

type edge = {
  e_from : lock_class;
  e_to : lock_class;
  e_count : int;  (** acquisitions observed in this order *)
  e_example : Lockdoc_trace.Srcloc.t;  (** one site acquiring [e_to] *)
}

type report = {
  classes : lock_class list;
  edges : edge list;
  cycles : lock_class list list;
      (** each cycle as the class sequence a → b → … → a (last element
          omitted); potential ABBA deadlocks *)
  self_nesting : edge list;
      (** same-class nesting (two instances of one class held together) *)
}

val canonicalise : lock_class list -> lock_class list
(** Rotate a cycle so its lexicographically smallest class leads. The
    report's cycles are canonical: each cyclic lock-order appears exactly
    once (rotations and the reversed traversal of the same scenario are
    deduplicated), sorted by class names. *)

val find_cycles :
  lock_class list -> (lock_class * lock_class) list -> lock_class list list
(** [find_cycles classes edges]: the cycles of the directed graph
    [edges] (self edges ignored), each canonical and reported once,
    sorted by class names. A DFS runs from each class in [classes]
    order, following [edges] in list order. The paper's lockdep
    baseline ({!analyse}) and the static lint graph both use it. *)

val lock_classes : Lockdoc_db.Store.t -> lock_class array
(** The class of every lock of the store, by [lk_id] — the classing
    rule shared with the other in-situ analyses: static locks by name,
    embedded locks by (data type, member). *)

val analyse : ?irq_mode:Lockdoc_db.Import.irq_mode -> Lockdoc_db.Store.t -> report
(** Build the acquisition-order graph over every transaction of the store
    and search it for cycles. [irq_mode] (default [Inherit]) picks the
    view: [Separate] drops each transaction's first
    {!Lockdoc_db.Store.txn_inherited} locks, which turns an Inherit import into the report a
    [~irq_mode:Separate] import of the same trace gives. *)

val render : report -> string
(** Human-readable report, lockdep-splat style. *)
