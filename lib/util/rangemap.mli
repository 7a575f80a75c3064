(** Address ranges keyed by their base: a persistent AVL tree of
    [[lo, hi)] ranges, each with a value, at most one per base.

    The lookups allocate nothing, so a caller may run one per memory
    access: the importer resolves live and freed allocations with them,
    the replay controller resolves lock classes. Ranges may overlap;
    {!covering} then answers for the range with the greatest base at or
    below the address, like a floor query on a [Map]. Plain data (no
    closures), so a tree marshals. *)

type 'a t

val empty : 'a t

val add : lo:int -> hi:int -> 'a -> 'a t -> 'a t
(** Binds base [lo] to the range [[lo, hi)] and the value, replacing an
    earlier binding of [lo]. *)

val remove : int -> 'a t -> 'a t
(** Drops the binding of a base, if any. *)

val find : int -> 'a t -> default:'a -> 'a
(** The value bound to exactly this base, or [default]. *)

val covering : int -> 'a t -> default:'a -> 'a
(** The value of the range with the greatest base at or below the
    address, if the address lies below that range's [hi]; otherwise
    [default]. *)

val remove_overlapping : lo:int -> hi:int -> 'a t -> 'a t
(** Drops every range [[l, h)] with [l < hi] and [lo < h]. Returns the
    tree itself, untouched, when no range overlaps; a query visits only
    the subtrees that can hold an overlapping range. *)

val cardinal : 'a t -> int
