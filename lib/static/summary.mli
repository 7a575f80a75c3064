(** Interprocedural fixpoint analyses over the declarative kernel IR
    ({!Lockdoc_ksim.Skeleton}).

    Three whole-program analyses share one engine:

    - {b must-held locksets} — for every static member-access site, the
      ordered list of locks provably held on {e every} IR path reaching
      it, with call-path witnesses back to a workload root. The lint
      layer checks these sites against the dynamically mined rules.
    - {b may-held locksets / lock order} — the union over paths, which
      yields the static acquisition-order graph and its ABBA cycles,
      cross-checked against the dynamic {!Lockdoc_core.Lockdep} report.
    - {b context lints} — sleep-in-atomic (a blocking acquire or
      [Blocks] point reachable with a spin-family lock held) and
      irq-unsafety (a lock class also taken in irq context acquired in
      process context without interrupts masked).

    The engine is a deterministic Jacobi fixpoint: per round, every
    function body is summarised against the previous round's tables,
    then entry locksets are recombined in sorted function order.

    Functions with [Wild] bodies (constructors, destructors, atomic
    helpers) are excluded throughout, mirroring the dynamic importer's
    function blacklist. *)

module Event = Lockdoc_trace.Event
module Lockdep = Lockdoc_core.Lockdep

(** A lock after variable resolution inside one function's namespace:
    a global, or a member lock of an object variable (caller-opaque
    variables are ["^"]-prefixed by the bind plumbing). *)
type slock = Sg of string | Sm of { ty : string; var : string; member : string }

val slock_to_string : slock -> string

(** One held lock: resolved identity plus the acquire kind/side. *)
type held = { h_lock : slock; h_kind : Event.lock_kind; h_side : Event.lock_side }

val held_to_string : held -> string

val class_of_slock : slock -> Lockdep.lock_class
(** Lock classing shared with the dynamic analyses: globals by name,
    member locks by (type, member). *)

(** A static member-access site. *)
type site = {
  st_fn : string;
  st_subsystem : string;
  st_ty : string;
  st_var : string;
  st_member : string;
  st_kind : Event.access_kind;
  st_must : held list;  (** acquisition order; provable on every path *)
  st_may : held list;  (** union over paths *)
}

(** A static lock-acquisition site ([Irq_off]/[Bh_off] count as pseudo
    acquisitions, mirroring the runtime's mask pseudo-locks). *)
type acq = {
  aq_fn : string;
  aq_subsystem : string;
  aq_class : Lockdep.lock_class;
  aq_kind : Event.lock_kind;
  aq_side : Event.lock_side;
  aq_must : held list;  (** held before this acquisition *)
  aq_may : held list;
}

(** An edge of the static acquisition-order graph: [sd_to] acquired
    somewhere while [sd_from] may be held. *)
type sedge = {
  sd_from : Lockdep.lock_class;
  sd_to : Lockdep.lock_class;
  sd_count : int;  (** distinct static acquisition sites *)
  sd_fns : string list;  (** acquiring functions, sorted *)
}

type irq_finding = {
  iq_class : Lockdep.lock_class;
  iq_fn : string;  (** process-context acquirer with irqs unmasked *)
  iq_irq_fn : string;  (** an irq-context function taking the class *)
  iq_witness : string list;  (** call path root -> ... -> [iq_fn] *)
}

type sleep_finding = {
  sl_fn : string;
  sl_what : string;  (** the blocking point, e.g. ["mutex j_barrier"] *)
  sl_held : held list;  (** the atomic-context locks held around it *)
  sl_must : bool;  (** true: provable on every path; false: some path *)
}

type t = {
  functions : int;  (** analysed (non-Wild) functions *)
  wild_functions : int;
  ir_nodes : int;  (** total IR size over every registered skeleton *)
  roots : string list;
  effect_rounds : int;  (** lock-effect summary fixpoint rounds *)
  entry_rounds : int;  (** entry-lockset fixpoint rounds *)
  sites : site list;  (** every access site, function-sorted *)
  acquires : acq list;
  edges : sedge list;  (** distinct-class order edges, sorted *)
  self_edges : sedge list;  (** same-class nesting *)
  cycles : Lockdep.lock_class list list;  (** canonical, sorted *)
  irq_unsafe : irq_finding list;
  sleeps : sleep_finding list;
  entries : (string * held list) list;  (** must-entry lockset per fn *)
  witnesses : (string * string list) list;
      (** fn -> shortest call path from a root (BFS, name-ordered) *)
}

val analyse : unit -> t
(** Run all analyses over the current {!Lockdoc_ksim.Skeleton} registry. *)

val witness : t -> string -> string list
(** Call path for a function; [[fn]] if it was never reached. *)
