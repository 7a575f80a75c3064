(* Static-analysis suite (lib/static).

   Three tiers:
   - the differential meta-check: every event in every workload trace
     (clean and sanitizer-seeded, two seeds) must be explicable by some
     IR path of the emitting function — dynamic ⊆ static;
   - determinism: each family's lint JSON is pinned by an MD5 golden and
     is byte-identical across repeated and interleaved runs, and a
     lint's summary equals a fresh Summary.analyse;
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

(* {2 Lint output pins}

   MD5s of each family's `lint --json` bytes at seed 3. The traces are
   simulated in [Run.workload_names] order, so source lines are numbered
   the same however the suite is filtered. *)

let lint_json name trace = Report.to_string (Lint.to_json (Lint.run ~workload:name trace))

let seed3_traces =
  lazy (List.map (fun n -> (n, Run.workload_trace ~seed:3 n)) Run.workload_names)

let lint_goldens =
  [
    ("fs_bench", "ad3deb1d4eaeebfbd47230114c23b43c");
    ("fsstress", "0b163f0423e6969d4bae160faa027380");
    ("fs_inod", "cb10c21d68f60aa39a560a7a4bd0f325");
    ("pipe", "37a01a5e8bc2945035a4bc2db837dfaf");
    ("symlink", "9b64162e87fe635c790b906158d677ad");
    ("device", "a94e72c39b3c883c63d64f5d708b7abf");
  ]

let test_lint_goldens () =
  List.iter
    (fun (name, trace) ->
      check Alcotest.string (name ^ " lint json md5")
        (List.assoc name lint_goldens)
        (Digest.to_hex (Digest.string (lint_json name trace))))
    (Lazy.force seed3_traces)

(* The static model is shared by every run in the process: runs on two
   families interleaved, and a repeat on one trace, give the same bytes
   as each family's first run. *)
let test_lint_repeatable () =
  let traces = Lazy.force seed3_traces in
  let a = List.assoc "fs_bench" traces and b = List.assoc "pipe" traces in
  let a1 = lint_json "fs_bench" a in
  let b1 = lint_json "pipe" b in
  let a2 = lint_json "fs_bench" a in
  let b2 = lint_json "pipe" b in
  check Alcotest.string "fs_bench after pipe" a1 a2;
  check Alcotest.string "pipe after fs_bench" b1 b2;
  check Alcotest.string "fs_bench a third time" a1 (lint_json "fs_bench" a)

let test_lint_summary_fresh () =
  let r = Lint.run ~workload:"symlink" (List.assoc "symlink" (Lazy.force seed3_traces)) in
  check Alcotest.bool "summary equals a fresh Summary.analyse" true
    (r.Lint.summary = Summary.analyse ())

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
      ( "lint output",
        [
          Alcotest.test_case "seed-3 json goldens" `Quick test_lint_goldens;
          Alcotest.test_case "interleaved and repeated runs" `Quick
            test_lint_repeatable;
          Alcotest.test_case "summary is a fresh analysis" `Quick
            test_lint_summary_fresh;
        ] );
    ]
