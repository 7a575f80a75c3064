(* Differential verification of the one analysis fan-out left:
   [Context.families], which runs one import/derive/scan pipeline per
   workload family on [jobs] domains.

   Its contract is that the output does not depend on [jobs]. For a
   bank of pinned seeds, render every family's mined rules (winners
   plus full hypothesis rankings), violations, documentation-check
   verdicts and generated docgen comments at ~jobs:1, and require the
   ~jobs:2 and ~jobs:4 renderings to be equal strings. The check and
   docgen outputs are computed from the dataset each worker built.

   Every other analysis layer runs on the calling domain. The entry
   points that still accept [?jobs] ignore it; the "no hidden fan-out"
   case pins that.

   LOCKDOC_PAR_SEEDS overrides the seed-bank size (default 20). *)

module Run = Lockdoc_ksim.Run
module Doc = Lockdoc_ksim.Documentation
module Derivator = Lockdoc_core.Derivator
module Checker = Lockdoc_core.Checker
module Violation = Lockdoc_core.Violation
module Docgen = Lockdoc_core.Docgen
module Report = Lockdoc_core.Report
module Rule = Lockdoc_core.Rule
module Context = Lockdoc_experiments.Context
module Sanitize = Lockdoc_sanitizer.Sanitize
module Replay = Lockdoc_sanitizer.Replay
module Lint = Lockdoc_static.Lint
module Import = Lockdoc_db.Import
module Dataset = Lockdoc_core.Dataset
module Pool = Lockdoc_util.Pool
module Obs = Lockdoc_obs.Obs

let check = Alcotest.check

(* Metrics on for the whole suite: the ~jobs:N vs ~jobs:1 byte-identity
   checks double as evidence that concurrent metric recording never
   perturbs analysis output. *)
let () = Obs.set_enabled true

let n_seeds =
  match Sys.getenv_opt "LOCKDOC_PAR_SEEDS" with
  | Some s -> (try max 1 (int_of_string s) with Failure _ -> 20)
  | None -> 20

let job_counts = [ 2; 4 ]

let doc_specs =
  List.map
    (fun (dr : Doc.doc_rule) ->
      let kind = match dr.Doc.d_access with Doc.R -> Rule.R | Doc.W -> Rule.W in
      {
        Checker.sp_type = dr.Doc.d_type;
        Checker.sp_member = dr.Doc.d_member;
        Checker.sp_kind = kind;
        Checker.sp_rule = Rule.parse dr.Doc.d_rule;
      })
    Doc.rules

(* Every analysis artefact the CLI can emit for one family, rendered to
   one string. *)
let render (f : Context.family) =
  let dataset = f.Context.w_dataset in
  let doc base =
    let merged = Derivator.derive_merged dataset base in
    Docgen.generate ~kind:Rule.W ~title:base merged
    ^ "\n"
    ^ Docgen.generate ~kind:Rule.R ~title:(base ^ " (reads)") merged
  in
  String.concat "\n--\n"
    [
      f.Context.w_name;
      Report.mined_to_json f.Context.w_mined;
      Report.violations_to_json f.Context.w_violations;
      Report.checked_to_json (Checker.check_many dataset doc_specs);
      doc "inode";
      doc "dentry";
    ]

let test_families_differential () =
  for seed = 0 to n_seeds - 1 do
    let sequential = List.map render (Context.families ~seed ~jobs:1 ()) in
    List.iter
      (fun jobs ->
        let parallel = List.map render (Context.families ~seed ~jobs ()) in
        check Alcotest.int
          (Printf.sprintf "seed %d: ~jobs:%d family count" seed jobs)
          (List.length sequential) (List.length parallel);
        List.iter2
          (fun s p ->
            check Alcotest.string
              (Printf.sprintf "seed %d: ~jobs:%d == ~jobs:1" seed jobs)
              s p)
          sequential parallel)
      job_counts
  done

let counter name =
  Option.value ~default:0 (Obs.find_counter (Obs.snapshot ()) name)

(* The five entry points that keep [?jobs] for existing callers must
   not spawn a single domain for it. *)
let test_no_hidden_fanout () =
  Obs.reset ();
  let trace = Run.workload_trace ~seed:3 "pipe" in
  let store, _ = Import.run trace in
  let dataset = Dataset.of_store store in
  let mined = Derivator.derive_all ~jobs:4 dataset in
  ignore (Violation.find ~jobs:4 dataset mined);
  let san_trace, truth = Run.sanitize_trace ~seed:7 ~bugs:true "pipe" in
  ignore
    (Sanitize.analyse ~jobs:4 ~workload:"pipe" ~seed:7 ~scale:1 ~bugs:true
       ~truth san_trace);
  ignore (Replay.run ~jobs:4 ~seed:7 ~bugs:true "pipe");
  ignore (Lint.run ~jobs:4 ~workload:"pipe" trace);
  check Alcotest.int "pool.runs" 0 (counter "pool.runs");
  check Alcotest.int "pool.jobs" 0 (counter "pool.jobs");
  (* The counters do move when a domain pool runs. *)
  ignore (Pool.map ~jobs:2 succ [ 1; 2 ]);
  check Alcotest.int "pool.runs after Pool.map" 1 (counter "pool.runs")

let () =
  Alcotest.run "parallel"
    [
      ( "differential",
        [
          Alcotest.test_case "families ~jobs:{2,4} == ~jobs:1" `Slow
            test_families_differential;
        ] );
      ( "sequential",
        [ Alcotest.test_case "no hidden fan-out" `Quick test_no_hidden_fanout ] );
    ]
