(** The static lock-discipline lint: cross-validation of the IR analyses
    ({!Summary}) against a dynamic trace of the same kernel.

    One {!run} performs the full pipeline of the paper's Sec. 7 with the
    roles reversed: the trace is imported and rules are mined exactly as
    [lockdoc derive] does, then every {e static} member-access site is
    checked against the mined rule for its (type, member, kind) — a site
    whose must-held lockset cannot satisfy the rule on {e any} execution
    is a provable violation, reported with a call-path witness. On top
    of that:

    - writes with no protective lock on every path ("unprotected
      writes") — the bucket the seeded ground-truth races must land in;
    - the static acquisition-order graph is diffed against the dynamic
      {!Lockdoc_core.Lockdep} report (dynamic edges and cycles the IR
      cannot produce indicate model drift);
    - coverage gaps: statically reachable (type, member, kind) triples
      never observed dynamically — untested lock-discipline surface;
    - the context lints (sleep-in-atomic, irq-unsafe classes) from
      {!Summary} pass through into the report.

    The dynamic side for the order diff is re-imported with
    [Import.Separate] irq accounting: with inheritance enabled an irq
    handler observes the interrupted flow's locks, creating cross-flow
    edges no single static path can witness. *)

module Event = Lockdoc_trace.Event
module Rule = Lockdoc_core.Rule
module Lockdesc = Lockdoc_core.Lockdesc
module Import = Lockdoc_db.Import
module Report = Lockdoc_core.Report

type violation = {
  v_site : Summary.site;
  v_rule : Rule.t;  (** the mined winner the site cannot satisfy *)
  v_held : Lockdesc.t list;  (** the site's must-held set, classified *)
  v_support : float;  (** relative support of the violated rule *)
  v_witness : string list;
}

type unprotected = {
  u_site : Summary.site;
  u_rule : Rule.t option;  (** mined winner for the member, if any *)
  u_witness : string list;
}

type gap = {
  g_ty : string;
  g_member : string;
  g_kind : Event.access_kind;
  g_subsystem : string;
  g_fns : string list;  (** static accessors, sorted *)
}

(** Static-vs-dynamic acquisition-order diff, restricted to lock classes
    the IR models. *)
type order_check = {
  oc_confirmed : int;  (** dynamic edges present in the static graph *)
  oc_dynamic_only : (string * string) list;  (** model drift if nonempty *)
  oc_static_only : int;  (** statically possible, never exercised *)
  oc_cycles_covered : int;  (** dynamic cycles fully edge-covered *)
  oc_cycles_uncovered : string list list;
}

type t = {
  workload : string;
  summary : Summary.t;
  import_stats : Import.stats;
  mined_rules : int;  (** (type, member, kind) rules mined from the trace *)
  violations : violation list;
  unprotected : unprotected list;
  gaps : gap list;
  order : order_check;
}

val run : ?jobs:int -> workload:string -> Lockdoc_trace.Trace.t -> t
(** Full pipeline over one trace.

    [jobs] is ignored. It is kept only so existing callers that still
    pass it compile, and goes once the benchmark harness stops passing
    it. *)

val render : t -> string
(** Plain-text report (tables + findings). *)

val to_json : t -> Report.json
