module Run = Lockdoc_ksim.Run
module Kernel = Lockdoc_ksim.Kernel
module Import = Lockdoc_db.Import
module Dataset = Lockdoc_core.Dataset
module Derivator = Lockdoc_core.Derivator
module Violation = Lockdoc_core.Violation
module Obs = Lockdoc_obs.Obs

type t = {
  config : Run.config;
  trace : Lockdoc_trace.Trace.t;
  coverage : Lockdoc_ksim.Source.coverage;
  store : Lockdoc_db.Store.t;
  import_stats : Import.stats;
  dataset : Dataset.t;
  mined : Derivator.mined list;
  violations : Violation.violation list;
  timings : (string * Obs.Clock.t) list;
}

(* Every phase runs on the calling domain; wall and CPU time are
   recorded separately for the Sec. 7.2 statistics. *)
let timed name f timings =
  let result, dt =
    Obs.Span.time ("context/" ^ name) (fun () -> Obs.Clock.timed f)
  in
  (result, (name, dt) :: timings)

let create ?(scale = 8) ?(seed = 42) () =
  let config =
    {
      Run.kernel = { Kernel.default_config with Kernel.seed };
      Run.scale = scale;
      Run.faults = true;
    }
  in
  let (trace, coverage), timings =
    timed "tracing" (fun () -> Run.benchmark_mix ~config ()) []
  in
  let (store, import_stats), timings =
    timed "import" (fun () -> Import.run trace) timings
  in
  let dataset, timings =
    timed "observations" (fun () -> Dataset.of_store store) timings
  in
  let mined, timings =
    timed "derivation" (fun () -> Derivator.derive_all dataset) timings
  in
  let violations, timings =
    timed "counterexamples" (fun () -> Violation.find dataset mined) timings
  in
  { config; trace; coverage; store; import_stats; dataset; mined; violations;
    timings = List.rev timings }

let mined_for t key =
  List.filter (fun m -> m.Derivator.m_type = key) t.mined

(* {2 Per-workload-family pipelines} *)

type family = {
  w_name : string;
  w_trace : Lockdoc_trace.Trace.t;
  w_dataset : Dataset.t;
  w_groups : int;
  w_mined : Derivator.mined list;
  w_violations : Violation.violation list;
}

let analyse_family (name, trace) =
  (* Phase spans are shared across families (bounded cardinality); the
     snapshot shows aggregate count/wall/cpu per phase. *)
  let store, _ = Obs.Span.time "families/import" (fun () -> Import.run trace) in
  let dataset =
    Obs.Span.time "families/observations" (fun () -> Dataset.of_store store)
  in
  (* Each family owns its store, so a worker shares nothing with the
     others; the analysis inside it is sequential. *)
  let mined =
    Obs.Span.time "families/derive" (fun () -> Derivator.derive_all dataset)
  in
  let violations =
    Obs.Span.time "families/violations" (fun () -> Violation.find dataset mined)
  in
  {
    w_name = name;
    w_trace = trace;
    w_dataset = dataset;
    w_groups = List.length mined;
    w_mined = mined;
    w_violations = violations;
  }

let families ?(seed = 11) ?scale ?(jobs = 1) () =
  (* Trace generation stays on the calling domain: the simulated kernel
     holds global state (static locks, the current run, fault sites), so
     only one simulation may run per process. Everything downstream of
     the trace is per-family-private and fans out: this is one of the
     two places the analysis uses more than one domain (DESIGN 5d). *)
  let traces =
    List.map
      (fun name -> (name, Run.workload_trace ~seed ?scale name))
      Run.workload_names
  in
  Lockdoc_util.Pool.map ~jobs analyse_family traces
