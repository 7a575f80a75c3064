(* Benchmark harness.

   Running `dune exec bench/main.exe` regenerates every table and figure
   of the paper's evaluation (Fig. 1, Tab. 1–8, Fig. 7, Fig. 8, the
   Sec. 7.2 statistics), prints the ablation studies from DESIGN.md, and
   finishes with Bechamel micro-benchmarks of the analysis pipeline
   phases.

   `dune exec bench/main.exe -- tab5 fig8` restricts to specific ids;
   `--no-micro` / `--no-ablations` skip those sections. *)

module Registry = Lockdoc_experiments.Registry
module Context = Lockdoc_experiments.Context
module Ablation = Lockdoc_experiments.Ablation
module Run = Lockdoc_ksim.Run
module Kernel = Lockdoc_ksim.Kernel
module Import = Lockdoc_db.Import
module Dataset = Lockdoc_core.Dataset
module Derivator = Lockdoc_core.Derivator
module Hypothesis = Lockdoc_core.Hypothesis
module Rule = Lockdoc_core.Rule

let hr = String.make 72 '='

let section title = Printf.printf "\n%s\n%s\n%s\n\n" hr title hr

(* {2 Experiment regeneration} *)

(* Ablations selectable by id alongside the registry's tables/figures
   (they also all print in the default `Ablation studies` section). *)
let ablations =
  [
    ("ablation-irq", Ablation.render_irq);
    ("ablation-wor", Ablation.render_wor);
    ("ablation-selection", Ablation.render_selection);
    ("ablation-subclass", Ablation.render_subclass);
    ("ablation-sides", Ablation.render_sides);
    ("ablation-corruption", Ablation.render_corruption);
  ]

let run_experiments ctx ids =
  List.iter
    (fun id ->
      match (Registry.find id, List.assoc_opt id ablations) with
      | Some e, _ ->
          section (Printf.sprintf "[%s] %s" e.Registry.id e.Registry.title);
          print_endline (e.Registry.render ctx)
      | None, Some render ->
          section (Printf.sprintf "[%s]" id);
          print_endline (render (Lazy.force ctx))
      | None, None -> Printf.eprintf "unknown experiment id %s\n" id)
    ids

(* {2 Bechamel micro-benchmarks} *)

let microbenches () =
  let open Bechamel in
  let open Toolkit in
  (* Shared inputs, prepared once. *)
  let config =
    { Run.kernel = { Kernel.default_config with Kernel.seed = 42 };
      Run.scale = 2; Run.faults = true }
  in
  let trace, _ = Run.benchmark_mix ~config () in
  let corrupted =
    let module Trace = Lockdoc_trace.Trace in
    let lines, _ =
      Lockdoc_trace.Corrupt.corrupt ~seed:17 (Trace.to_lines trace)
    in
    fst (Trace.read_lines ~mode:Trace.Lenient lines)
  in
  let store, _ = Import.run trace in
  let dataset = Dataset.of_store store in
  let clock_trace = Lockdoc_ksim.Clock_example.run () in
  let durable_checkpoint =
    max 1 (Array.length trace.Lockdoc_trace.Trace.events / 4)
  in
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  let with_fresh_dir f =
    let dir = Filename.temp_file "lockdoc_bench_durable" "" in
    Sys.remove dir;
    Sys.mkdir dir 0o755;
    Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)
  in
  let combos = Dataset.combos_of dataset ("inode:ext4", "i_state", Rule.W) in
  let mined = Derivator.derive_all dataset in
  let par_jobs = 4 in
  let tests =
    [
      Test.make ~name:"trace: benchmark mix (scale 1)"
        (Staged.stage (fun () -> ignore (Run.quick ~seed:3 ())));
      Test.make ~name:"trace: clock example"
        (Staged.stage (fun () -> ignore (Lockdoc_ksim.Clock_example.run ())));
      Test.make ~name:"import: benchmark trace"
        (Staged.stage (fun () -> ignore (Import.run trace)));
      Test.make ~name:"import: benchmark trace (lenient)"
        (Staged.stage (fun () ->
             ignore (Import.run ~mode:Import.Lenient trace)));
      Test.make ~name:"import: corrupted trace (lenient)"
        (Staged.stage (fun () ->
             ignore (Import.run ~mode:Import.Lenient corrupted)));
      (* Durability overhead: same trace, with WAL + checkpoints. A
         fresh directory per iteration so every run pays the full
         fresh-import cost. *)
      Test.make ~name:"import: durable (wal sync=1, 4 checkpoints)"
        (Staged.stage (fun () ->
             with_fresh_dir (fun dir ->
                 ignore
                   (Lockdoc_db.Durable.import ~dir
                      ~checkpoint_every:durable_checkpoint trace))));
      Test.make ~name:"import: durable (wal sync=256, 4 checkpoints)"
        (Staged.stage (fun () ->
             with_fresh_dir (fun dir ->
                 ignore
                   (Lockdoc_db.Durable.import ~dir ~wal_sync_every:256
                      ~checkpoint_every:durable_checkpoint trace))));
      Test.make ~name:"check: stream invariants"
        (Staged.stage (fun () ->
             ignore (Lockdoc_trace.Check.run trace)));
      Test.make ~name:"import: clock trace"
        (Staged.stage (fun () -> ignore (Import.run clock_trace)));
      Test.make ~name:"observations: fold dataset"
        (Staged.stage (fun () -> ignore (Dataset.of_store store)));
      Test.make ~name:"derive: all types"
        (Staged.stage (fun () -> ignore (Derivator.derive_all dataset)));
      Test.make ~name:"violations: scan mined rules"
        (Staged.stage (fun () ->
             ignore (Lockdoc_core.Violation.find dataset mined)));
      Test.make
        ~name:(Printf.sprintf "families: 6 workload pipelines (-j %d)" par_jobs)
        (Staged.stage (fun () ->
             ignore (Context.families ~jobs:par_jobs ())));
      Test.make ~name:"derive: struct inode merged"
        (Staged.stage (fun () -> ignore (Derivator.derive_merged dataset "inode")));
      Test.make ~name:"hypotheses: score one member"
        (Staged.stage (fun () -> ignore (Hypothesis.score combos)));
      Test.make ~name:"fig1: generate+scan one release"
        (Staged.stage (fun () ->
             let p =
               Lockdoc_kstats.Model.point
                 { Lockdoc_kstats.Model.major = 3; minor = 0 }
             in
             ignore (Lockdoc_kstats.Scan.scan_files (Lockdoc_kstats.Gen.generate p))));
    ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analysed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          let ns =
            match Analyze.OLS.estimates ols_result with
            | Some (value :: _) -> value
            | Some [] | None -> nan
          in
          Printf.printf "  %-42s %14.1f ns/run\n" name ns)
        analysed)
    tests

(* {2 Entry point} *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let no_micro = List.mem "--no-micro" args in
  let no_ablations = List.mem "--no-ablations" args in
  let ids = List.filter (fun a -> String.length a > 0 && a.[0] <> '-') args in
  let ids = if ids = [] then Registry.ids else ids in
  let ctx = lazy (Context.create ~scale:8 ~seed:42 ()) in
  run_experiments ctx ids;
  if not no_ablations then begin
    section "Ablation studies (DESIGN.md section 5)";
    print_endline (Ablation.render_all (Lazy.force ctx));
    section "Extension: cross-object protection relations (paper Sec. 8)";
    print_endline
      (Lockdoc_core.Relations.render
         (Lockdoc_core.Relations.analyse (Lazy.force ctx).Context.mined));
    section "Baseline: lockmeter-style lock statistics (paper Sec. 3.2)";
    let c = Lazy.force ctx in
    print_endline
      (Lockdoc_core.Lockmeter.render
         (Lockdoc_core.Lockmeter.analyse c.Context.trace c.Context.store))
  end;
  if not no_micro then begin
    section "Bechamel micro-benchmarks (pipeline phases)";
    microbenches ()
  end
