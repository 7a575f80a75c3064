(** The locking-rule derivator (paper phase ❷): per (type key, member,
    access kind) group of a {!Dataset}, enumerate hypotheses from the
    group's lock-combination multiset, score them, and pick the
    winner. *)

type mined = {
  m_type : string;  (** type key, e.g. ["inode:ext4"] *)
  m_member : string;
  m_kind : Rule.access;
  m_total : int;  (** observations of this member/kind *)
  m_winner : Rule.t;
  m_support : Hypothesis.support;  (** support of the winner *)
  m_hypotheses : Hypothesis.scored list;  (** all scored hypotheses *)
}

val default_tac : float
(** 0.9 — the acceptance threshold of paper Sec. 7.4. *)

val derive_group :
  ?strategy:Selection.strategy ->
  ?tac:float ->
  Dataset.key ->
  Dataset.group ->
  mined
(** Score one group's combination multiset ({!Hypothesis.score}) and
    select its winner. Every [derive_*] function, and the online
    derivator's freeze, goes through this one scorer. *)

val derive_merged :
  ?strategy:Selection.strategy -> ?tac:float -> Dataset.t ->
  string -> mined list
(** Derive rules for a base type with all subclasses merged (the
    multisets of every matching subclass key are added up) — the view
    the generated fs/inode.c documentation of paper Fig. 8 takes. *)

val derive_member :
  ?strategy:Selection.strategy ->
  ?tac:float ->
  Dataset.t ->
  string ->
  member:string ->
  kind:Rule.access ->
  mined
(** Derive one member's rule. [tac] defaults to 0.9 (paper Sec. 7.4,
    adopted from Engler et al.). An unobserved member yields the
    "no lock" rule with zero support. *)

val derive_type :
  ?strategy:Selection.strategy -> ?tac:float -> Dataset.t ->
  string -> mined list
(** All observed members of a type key, reads and writes separately. *)

val derive_all :
  ?strategy:Selection.strategy -> ?tac:float -> ?jobs:int -> Dataset.t ->
  mined list
(** Mine every non-empty (type key, member, access kind) group of the
    dataset, in canonical order: type keys ascending, then (member,
    kind) ascending within each key. Runs on the calling domain.

    [jobs] is ignored. It is kept only so existing callers that still
    pass it compile, and goes once the benchmark harness stops passing
    it. *)

val needs_no_lock : mined -> bool
(** The winner is the "no lock" rule (the #Nl columns of paper Tab. 6). *)
