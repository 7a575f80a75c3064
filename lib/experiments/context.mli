(** Shared experiment context: one benchmark-mix run, imported and
    analysed, reused by every table/figure that needs trace data.

    Building a context runs the full pipeline of the paper's Fig. 5 —
    tracing (phase ❶), import/filtering, rule derivation (phase ❷) — and
    records per-phase timings (wall clock and CPU time, separately) for
    the Sec. 7.2 statistics. *)

type t = {
  config : Lockdoc_ksim.Run.config;
  trace : Lockdoc_trace.Trace.t;
  coverage : Lockdoc_ksim.Source.coverage;
  store : Lockdoc_db.Store.t;
  import_stats : Lockdoc_db.Import.stats;
  dataset : Lockdoc_core.Dataset.t;
  mined : Lockdoc_core.Derivator.mined list;  (** tac = 0.9 winners *)
  violations : Lockdoc_core.Violation.violation list;
      (** the paper's "counterexample extraction" output *)
  timings : (string * Lockdoc_obs.Obs.Clock.t) list;
      (** phase name, elapsed wall/cpu seconds *)
}

val create : ?scale:int -> ?seed:int -> unit -> t
(** Defaults: scale 8 (a few hundred thousand events), seed 42. Every
    phase runs on the calling domain. *)

val mined_for : t -> string -> Lockdoc_core.Derivator.mined list
(** Mined rules of one type key. *)

(** {2 Per-workload-family pipelines} *)

type family = {
  w_name : string;
  w_trace : Lockdoc_trace.Trace.t;
  w_dataset : Lockdoc_core.Dataset.t;  (** built on the worker domain *)
  w_groups : int;  (** derivation groups, i.e. mined rules *)
  w_mined : Lockdoc_core.Derivator.mined list;
  w_violations : Lockdoc_core.Violation.violation list;
}

val analyse_family : string * Lockdoc_trace.Trace.t -> family
(** Import + derive + scan one named trace, sequentially. *)

val families : ?seed:int -> ?scale:int -> ?jobs:int -> unit -> family list
(** One isolated pipeline per benchmark family
    ({!Lockdoc_ksim.Run.workload_names}). Trace generation runs on the
    calling domain — the simulated kernel holds process-global state —
    but each family's import/derive/scan pipeline imports into a store
    of its own, so with [jobs > 1] (default 1) the pipelines fan out
    across domains with {!Lockdoc_util.Pool.map}.
    Output order and contents do not depend on [jobs]. *)
