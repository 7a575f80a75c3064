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
