(** Locking-rule hypotheses and their support (paper Sec. 4.3 / 5.4).

    For one (member, access kind) the hypothesis space is every ordered
    subset of every observed lock combination — this enumerates exactly
    the hypotheses with absolute support ≥ 1 without iterating over all
    lock combinations in the system (Sec. 5.4). A group of observations
    is therefore fully described by its multiset of lock combinations,
    which is what every function here scores. Support of a hypothesis:

    - absolute [sa] — number of observations complying with it, i.e.
      the summed counts of the complying combinations;
    - relative [sr] — [sa] divided by the number of observations of the
      member (the summed counts of all combinations). *)

type support = { sa : int; sr : float }

type scored = { rule : Rule.t; support : support }

type combos = (Lockdesc.t list * int) list
(** A multiset of held-lock combinations: each held-lock list (in
    acquisition order) with the number of observations that held it.
    A list may repeat a combination; the entries then add up. *)

val total : combos -> int
(** The number of observations: the summed counts. *)

val support_of : Rule.t -> combos -> support
(** Score one rule against the observations of a member. *)

val sort_scored : scored list -> scored list
(** The canonical hypothesis order: descending [sa], then more locks
    first, then {!Rule.compare} — a total order for distinct rules, so
    any permutation of the same scored set sorts to the same list. *)

val score : combos -> scored list
(** Observed-combination enumeration (Sec. 5.4): the ordered subsets of
    each present combination, deduplicated, scored, and sorted by
    {!sort_scored}; always contains the "no lock" rule. *)

val enumerate_exhaustive : ?max_locks:int -> combos -> scored list
(** The naïve Sec. 4.3 enumeration: all subsets of the union of observed
    locks in every possible order (so hypotheses with [sa = 0] appear,
    as in the paper's Tab. 2). [max_locks] (default 4) caps the union
    size; beyond it, falls back to {!score}. *)
