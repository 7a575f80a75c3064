(* Static-analysis suite (lib/static).

   Three tiers:
   - the differential meta-check: every event in every workload trace
     (clean and sanitizer-seeded, two seeds) must be explicable by some
     IR path of the emitting function — dynamic ⊆ static;
   - determinism: Summary.analyse and the full lint pipeline must be
     bit-identical across -j 1 / -j 4;
   - cross-validation against the seeded ground truth: every seeded
     race site must land in the static unprotected-write report, the
     seeded irq-unsafe class must be flagged by the static irq lint,
     and the clean IR must produce zero sleep-in-atomic findings and
     zero dynamic-only order edges. *)

module Run = Lockdoc_ksim.Run
module Seeded = Lockdoc_ksim.Seeded
module Lockdep = Lockdoc_core.Lockdep
module Report = Lockdoc_core.Report
module Summary = Lockdoc_static.Summary
module Explain = Lockdoc_static.Explain
module Lint = Lockdoc_static.Lint

let check = Alcotest.check

let explain_failure_msg name (r : Explain.result) =
  Printf.sprintf "%s: %d/%d frames explained; missing [%s]; rejected [%s]" name
    r.Explain.ex_ok r.Explain.ex_frames
    (String.concat "; " r.Explain.ex_missing)
    (String.concat "; "
       (List.map
          (fun (f : Explain.failure) ->
            Printf.sprintf "%s: %s" f.Explain.fl_fn f.Explain.fl_word)
          r.Explain.ex_failures))

let test_explain_clean name () =
  List.iter
    (fun seed ->
      let trace = Run.workload_trace ~seed name in
      let r = Explain.check trace in
      check Alcotest.bool (explain_failure_msg name r) true (Explain.is_clean r);
      check Alcotest.bool (name ^ ": frames checked") true (r.Explain.ex_frames > 0))
    [ 7; 11 ]

let test_explain_seeded name () =
  List.iter
    (fun bugs ->
      let trace, _ = Run.sanitize_trace ~bugs name in
      let r = Explain.check trace in
      check Alcotest.bool (explain_failure_msg name r) true (Explain.is_clean r))
    [ true; false ]

(* Every seeded data race writes a member the static analysis must see
   as a write site with an empty protective must-held set. *)
let test_seeded_races_reported () =
  let s = Summary.analyse () in
  ignore s;
  let trace = Run.workload_trace "fs_bench" in
  let r = Lint.run ~workload:"fs_bench" trace in
  List.iter
    (fun (site, (ty, member)) ->
      let found =
        List.exists
          (fun (u : Lint.unprotected) ->
            u.Lint.u_site.Summary.st_ty = ty
            && u.Lint.u_site.Summary.st_member = member)
          r.Lint.unprotected
      in
      check Alcotest.bool
        (Printf.sprintf "%s (%s.%s) in unprotected-write report" site ty member)
        true found)
    Seeded.race_sites

let test_seeded_irq_site_reported () =
  let s = Summary.analyse () in
  List.iter
    (fun (site, cls) ->
      let found =
        List.exists
          (fun (f : Summary.irq_finding) ->
            Lockdep.class_to_string f.Summary.iq_class = cls)
          s.Summary.irq_unsafe
      in
      check Alcotest.bool
        (Printf.sprintf "%s (%s) in static irq report" site cls)
        true found)
    Seeded.irq_sites

let test_clean_ir_lints () =
  let s = Summary.analyse () in
  check Alcotest.int "sleep-in-atomic findings"
    0
    (List.length s.Summary.sleeps);
  check Alcotest.bool "some access sites" true (List.length s.Summary.sites > 100);
  check Alcotest.bool "some order edges" true (List.length s.Summary.edges > 10)

let test_no_dynamic_only_edges name () =
  let trace = Run.workload_trace name in
  let r = Lint.run ~workload:name trace in
  check
    Alcotest.(list (pair string string))
    (name ^ ": dynamic order edges all statically explicable")
    []
    r.Lint.order.Lint.oc_dynamic_only;
  check Alcotest.int (name ^ ": dynamic cycles uncovered") 0
    (List.length r.Lint.order.Lint.oc_cycles_uncovered)

let () =
  let fam f = List.map (fun n -> Alcotest.test_case n `Quick (f n)) in
  Alcotest.run "static"
    [
      ("explain clean", fam test_explain_clean Run.workload_names);
      ("explain seeded", fam test_explain_seeded Run.workload_names);
      ( "cross-validation",
        [
          Alcotest.test_case "seeded races unprotected" `Quick
            test_seeded_races_reported;
          Alcotest.test_case "seeded irq site flagged" `Quick
            test_seeded_irq_site_reported;
          Alcotest.test_case "clean IR context lints" `Quick test_clean_ir_lints;
        ] );
      ("order diff", fam test_no_dynamic_only_edges Run.workload_names);
    ]
