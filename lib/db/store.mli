(** The in-memory relational trace store.

    Substitutes the paper's MariaDB instance: tables are growable arrays
    with hash indexes, and the analysis-phase "queries" are the accessor
    functions below. Rows are created exclusively by {!Import}.

    A store is not synchronised: one domain owns it. Where the analysis
    does use other domains (per-family pipelines, serve seal jobs),
    each of them imports into a store of its own. *)

open Schema

type t

val create : unit -> t

(** {2 Row creation (used by Import)} *)

val add_data_type : t -> Lockdoc_trace.Layout.t -> data_type
val add_allocation :
  t -> ptr:int -> size:int -> ty:int -> subclass:string option -> start:int ->
  allocation
val add_lock :
  t ->
  ptr:int ->
  kind:Lockdoc_trace.Event.lock_kind ->
  name:string ->
  parent:(int * string) option ->
  lock
val add_txn : t -> locks:held list -> ctx:int -> txn
val add_access :
  t ->
  event:int ->
  alloc:int ->
  member:string ->
  kind:Lockdoc_trace.Event.access_kind ->
  txn:int option ->
  loc:Lockdoc_trace.Srcloc.t ->
  stack:int ->
  ctx:int ->
  access
val intern_stack : t -> string list -> int
(** Stacks are interned; innermost frame first. *)

val set_alloc_end : t -> int -> int option -> unit
(** Record the free event index of an allocation. *)

(** {2 Operation log}

    The durability layer observes every row-creating mutation as an
    {!Op.t}. The logger must be [None] whenever the store is
    marshalled (closures don't serialise) — see {!with_logger}. *)

val set_logger : t -> (Op.t -> unit) option -> unit
val with_logger : t -> (Op.t -> unit) option -> (unit -> 'a) -> 'a
(** [with_logger t log f] runs [f] with the logger swapped to [log],
    restoring the previous logger afterwards (even on exceptions). *)

val apply : t -> Op.t -> unit
(** Replay a logged operation. Replaying a WAL in order against the
    store it was logged from reproduces the original store (row ids
    are allocation order). *)

(** {2 Lookup}

    Accessors raise [Invalid_argument] naming the table and id when
    the id is out of bounds. *)

val data_type : t -> int -> data_type
val data_type_by_name : t -> string -> data_type option
val allocation : t -> int -> allocation
val lock : t -> int -> lock
val txn : t -> int -> txn
val access : t -> int -> access
val stack : t -> int -> string list

val n_accesses : t -> int
val n_txns : t -> int
val n_locks : t -> int
val n_allocations : t -> int
val n_data_types : t -> int
val n_stacks : t -> int

val iter_accesses : t -> (access -> unit) -> unit
val iter_allocations : t -> (allocation -> unit) -> unit
val iter_locks : t -> (lock -> unit) -> unit

val type_keys : t -> string list
(** All distinct derivation keys ("inode:ext4", "dentry", …), sorted. *)

val accesses_of_type : t -> string -> access list
(** Accesses whose allocation has the given type key, in trace order. *)

val layout_of_key : t -> string -> Lockdoc_trace.Layout.t option
(** Layout of the underlying data type of a type key. *)
