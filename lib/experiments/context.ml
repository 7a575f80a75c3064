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
