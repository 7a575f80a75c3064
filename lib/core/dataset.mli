(** Observations: the folded access matrix LockDoc derives rules from,
    and the one fold that builds it — batch and online alike.

    One observation is "member [m] of one object instance was accessed
    (r/w) within one transaction, with this ordered held-lock list"
    (paper Sec. 4.2):

    - accesses of the same member in the same transaction fold into one
      observation (the {e Folded} column of Tab. 1);
    - an observation containing both reads and writes counts as a write
      ({e WoR}, write-over-read);
    - lock-free accesses (no transaction) are singleton observations with
      an empty lock list;
    - held locks are classified positionally ({!Lockdesc}) relative to
      the accessed instance.

    Observations are grouped per (type key, member, access kind). Since
    a member's hypothesis space is the ordered subsets of its observed
    lock combinations (Sec. 5.4), a group keeps only the multiset
    {lock list → number of observations}; {!Hypothesis.score} scores
    it. *)

type group
(** One (type key, member, access kind) group: its lock-combination
    multiset and its change counters. *)

type obs = private {
  mutable o_group : group;  (** the group the observation counts in *)
  o_alloc : int;  (** allocation id *)
  o_member : string;
  mutable o_kind : Rule.access;
  o_locks : Lockdesc.t list;  (** acquisition order, deduplicated later *)
  o_first : int;  (** id of the first access row folded in *)
  mutable o_events : int;  (** access rows folded in *)
}

type t
(** Observations grouped by type key ("inode:ext4", "dentry", …), over
    a store. Mutable: {!absorb} folds in one more access row. *)

val create : ?wor:bool -> ?side_sensitive:bool -> Lockdoc_db.Store.t -> t
(** An empty dataset over a store. [wor] (default true) applies
    write-over-read folding; pass [false] for the ablation where mixed
    observations keep their first access kind. [side_sensitive]
    (default false) distinguishes reader-side acquisitions of
    rwlocks/rwsems/RCU by decorating the descriptor with "[r]" — an
    extension beyond the paper's model. *)

val absorb : t -> Lockdoc_db.Schema.access -> unit
(** Fold one access row of the store in. Rows must be absorbed once
    each, in id order: a new (allocation, member, transaction) cell
    joins its group's multiset; a repeat access to a cell bumps its
    event count, and under [wor] a first write to a read cell moves it
    from the read group to the write group. *)

val of_store : ?wor:bool -> ?side_sensitive:bool -> Lockdoc_db.Store.t -> t
(** {!create}, then {!absorb} every access row of the store. *)

val flips : t -> int
(** Read-to-write moves made by write-over-read so far. *)

val locks_of_txn :
  ?side_sensitive:bool ->
  Lockdoc_db.Store.t ->
  accessed_alloc:int ->
  int ->
  Lockdesc.t list
(** The classified held-lock list of one transaction relative to an
    accessed allocation — exactly what {!absorb} records in [o_locks].
    Depends only on immutable store rows, so it does not matter when
    it is computed. *)

val store : t -> Lockdoc_db.Store.t

val type_keys : t -> string list

val observations : t -> string -> obs list
(** All observations for a type key, in first-access order. *)

val observations_rev : t -> string -> obs list
(** {!observations} newest first, without a copy: one pass over it
    visits every group of the type key, each in reverse first-access
    order. *)

val by_member : t -> string -> member:string -> kind:Rule.access -> obs list
(** The observations of one group, in first-access order. *)

(** {2 Groups} *)

type key = string * string * Rule.access
(** (type key, member, access kind). *)

val key : group -> key
val id : group -> int
(** Dense, in order of creation: [0] to the number of groups the
    dataset has ever had, minus one — an index for per-group side
    tables. A group keeps its id when it empties. *)

val groups : t -> (key * group) list
(** The non-empty groups, in canonical order: type keys ascending, then
    (member, kind) ascending within each key. The list is kept between
    calls and sorted again only after a group gained its first
    combination or lost its last one. *)

val take_dirty : t -> group list
(** The non-empty groups whose {!touched} counter moved since the last
    call (or since {!create}), each once, in no particular order; empties
    the set. A flag per group bounds the set by the number of groups. *)

val find_group : t -> key -> group option
(** The group under a key, if an observation ever joined it (it may
    have emptied since). *)

val combos : group -> Hypothesis.combos
(** The group's multiset: each distinct held-lock list once, with its
    number of observations (always ≥ 1), in no particular order. *)

val combos_of : t -> key -> Hypothesis.combos
(** {!combos} of the group under a key; [[]] if it has no
    observations. *)

val stamp : group -> int
(** Bumped by every change to the group's multiset: equal stamps mean
    an unchanged group, hence an unchanged rule (a rule depends on its
    own group alone, paper Sec. 5.4). *)

val touched : group -> int
(** Bumped by every {!absorb} that touches one of the group's cells: a
    new cell, a cell flipping in or out, and a repeat access that only
    raises [o_events]. Equal counters mean the same cells with the same
    counts, hence, for one rule, the same violations. *)

val merged : t -> string -> ((string * Rule.access) * Hypothesis.combos) list
(** Per (member, kind), ascending: the multisets of a base type's
    groups across all its subclasses (["inode"] adds up every
    ["inode:*"] key) — the view the documentation checker uses, since
    source comments do not distinguish subclasses. *)
