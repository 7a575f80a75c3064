(** The rule-violation finder (paper Sec. 5.5 / 7.5): assuming the mined
    rules are correct, locate the accesses that break them and hand the
    developer everything needed to investigate — member, expected locks,
    locks actually held, source location and stack trace. *)

type violation = {
  v_type : string;  (** type key *)
  v_member : string;
  v_kind : Rule.access;
  v_rule : Rule.t;  (** the violated (mined) rule *)
  v_held : Lockdesc.t list;  (** locks actually held *)
  v_events : int;  (** folded accesses in this observation *)
  v_loc : Lockdoc_trace.Srcloc.t;  (** site of the first offending access *)
  v_stack : string list;  (** innermost frame first *)
}

val find : ?jobs:int -> Dataset.t -> Derivator.mined list -> violation list
(** Scan every mined rule with sr < 1 for non-complying observations.
    Rules whose winner is "no lock" cannot be violated. Violations come
    in the order of [mined].

    [jobs] is ignored. It is kept only so existing callers that still
    pass it compile, and goes once the benchmark harness stops passing
    it. *)

val applies : Derivator.mined -> bool
(** Whether a rule can be violated: its winner is not "no lock" and
    has sr < 1. {!find} scans the groups of these rules only. *)

val check :
  Lockdoc_db.Store.t -> Derivator.mined -> Dataset.obs -> violation option
(** The violation one observation of the rule's group makes, if it
    does not comply with the winner — exactly the element {!find}
    lists for it. *)

val scan :
  Dataset.t ->
  (Dataset.group * Derivator.mined) list ->
  violation list list
(** For each (group, rule) pair, in order, the group's observations
    that do not comply with the rule's winner, as {!check} builds them,
    in first-access order. The cells are collected in one pass over
    each type key the groups belong to. {!find} is [scan] over the
    groups of the rules that {!applies} accepts, concatenated. *)

val note : rules:int -> found:int -> unit
(** Add to the [violations.groups] and [violations.found] metrics what
    {!find} adds when given [rules] rules and returning [found]
    violations — for callers that assemble the same list another way. *)

type summary = {
  vs_type : string;
  vs_events : int;  (** rule-violating memory-access events *)
  vs_members : int;  (** distinct members involved *)
  vs_contexts : int;  (** distinct (location, stack) contexts *)
}

val summarise : violation list -> string -> summary
(** Per-type aggregate (paper Tab. 7). *)

val contexts : violation list -> (Lockdoc_trace.Srcloc.t * string list) list
(** Distinct contexts over a violation list. *)
