(** The in-memory relational trace store.

    Substitutes the paper's MariaDB instance: tables are growable arrays
    with hash indexes, and the analysis-phase "queries" are the accessor
    functions below. Rows are created by {!Import} (and by {!Csv} when
    it reads an export back).

    The access table, by far the largest, is kept as columns, not
    records: one int column per field (event, allocation, member slot
    and kind, transaction, stack, context) and one of source locations,
    each grown in chunks that start small, as in the paper's relational
    schema (Fig. 6), where an access row is integer keys into the other
    tables. Each type key's accesses are chained through one more int
    column. The hot reader, the observation fold, reads the columns by
    access id ({!access_alloc}, {!access_slot}, {!access_kind},
    {!access_txn}); {!access} builds a {!Schema.access} record for cold
    readers (CSV export, lockmeter, lockset, the violation finder), and
    is the only code that builds one.

    A store is not synchronised: one domain owns it. *)

open Schema

type t

val create : unit -> t

(** {2 Row creation (used by Import)} *)

val add_data_type : t -> Lockdoc_trace.Layout.t -> data_type
val add_allocation :
  t -> ptr:int -> size:int -> ty:int -> subclass:string option -> start:int ->
  allocation
(** Also resolves the allocation's type key (see {!type_keys}) to its
    id ({!type_key_id}) once, so {!add_access} does no string work. [ty]
    must be a data type id. *)

val add_lock :
  t ->
  ptr:int ->
  kind:Lockdoc_trace.Event.lock_kind ->
  name:string ->
  parent:(int * string) option ->
  lock
val add_txn : ?inherited:int -> t -> locks:held list -> ctx:int -> txn
(** [inherited] (default [0]) is the transaction's {!txn_inherited}
    count. *)

val no_txn : int
(** [-1]: the transaction of a lock-free access. *)

val add_access :
  t ->
  event:int ->
  alloc:int ->
  slot:int ->
  kind:Lockdoc_trace.Event.access_kind ->
  txn:int ->
  loc:Lockdoc_trace.Srcloc.t ->
  stack:int ->
  ctx:int ->
  int
(** Appends one access row and returns its id. [slot] is the member's
    position in the layout of the allocation's data type (see
    {!member_slot}); [txn] is a transaction id or {!no_txn}. Allocates
    only when a column starts a new chunk. *)

val member_slot : t -> ty:int -> string -> int
(** The slot of the first member of a data type (by id) with this
    name. Raises [Not_found] if it has none. *)

val slot_name : t -> ty:int -> int -> string
(** The name of a data type's member by slot. *)

val intern_stack : t -> string list -> int
(** Stacks are interned; innermost frame first. *)

val set_alloc_end : t -> int -> int option -> unit
(** Record the free event index of an allocation. *)

(** {2 Lookup}

    Accessors raise [Invalid_argument] naming the table and id when
    the id is out of bounds. *)

val data_type : t -> int -> data_type
val allocation : t -> int -> allocation
val lock : t -> int -> lock
val txn : t -> int -> txn

val txn_inherited : t -> int -> int
(** How many leading locks of a transaction (by id) the Separate irq
    view leaves out: those an irq flow inherited from the flow it
    interrupted (Inherit import), or all of them for a transaction
    reopened by releasing an inherited lock, which Separate counts as
    unbalanced. [0] for task flows and Separate imports. Kept only
    where not [0]. *)

val access : t -> int -> access
(** Builds the record of one access row: for cold readers. *)

val access_alloc : t -> int -> int
val access_slot : t -> int -> int
val access_kind : t -> int -> Lockdoc_trace.Event.access_kind

val access_txn : t -> int -> int
(** One column of an access row, by access id, without building its
    record; {!access_txn} is {!no_txn} for a lock-free access. *)

val stack : t -> int -> string list

val n_accesses : t -> int
val n_txns : t -> int
val n_locks : t -> int
val n_allocations : t -> int
val n_data_types : t -> int
val n_stacks : t -> int

val type_key_id : t -> int -> int
(** The type key of an allocation (by id) as a dense id: [0], [1], …
    in order of the key's first allocation. *)

val type_key_name : t -> int -> string
(** The type key ("inode:ext4", "dentry", …) of a {!type_key_id}. *)

val iter_accesses : t -> (access -> unit) -> unit
(** Builds each row's record ({!access}): for cold readers. *)

val iter_allocations : t -> (allocation -> unit) -> unit
val iter_locks : t -> (lock -> unit) -> unit

val type_keys : t -> string list
(** All distinct derivation keys ("inode:ext4", "dentry", …), sorted. *)

val accesses_of_type : t -> string -> access list
(** Accesses whose allocation has the given type key, in trace order. *)

val layout_of_key : t -> string -> Lockdoc_trace.Layout.t option
(** Layout of the underlying data type of a type key. *)
