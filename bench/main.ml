(* Benchmark harness.

   Running `dune exec bench/main.exe` regenerates every table and figure
   of the paper's evaluation (Fig. 1, Tab. 1–8, Fig. 7, Fig. 8, the
   Sec. 7.2 statistics) and prints the ablation studies from DESIGN.md.
   Per-layer timings live in lockbench.

   `dune exec bench/main.exe -- tab5 fig8` restricts to specific ids;
   `--no-ablations` skips the ablation section. *)

module Registry = Lockdoc_experiments.Registry
module Context = Lockdoc_experiments.Context
module Ablation = Lockdoc_experiments.Ablation

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

(* {2 Entry point} *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
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
  end
