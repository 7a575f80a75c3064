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
module Import = Lockdoc_db.Import
module Schema = Lockdoc_db.Schema
module Store = Lockdoc_db.Store
module Obs = Lockdoc_obs.Obs
module Trace = Lockdoc_trace.Trace
module Event = Lockdoc_trace.Event
module Layout = Lockdoc_trace.Layout
module Srcloc = Lockdoc_trace.Srcloc

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

(* {2 One import per lint}

   Lint's lock order counts irq flows separately, but it reads that view
   off its one Inherit import: [Lockdep.analyse ~irq_mode:Separate]
   drops each transaction's inherited locks. A [~irq_mode:Separate]
   import of the same trace is the oracle. *)

let cs = Lockdep.class_to_string

let check_separate_view name trace =
  let store, _ = Import.run trace in
  let sep, _ = Import.run ~irq_mode:Import.Separate trace in
  let view = Lockdep.analyse ~irq_mode:Import.Separate store in
  let oracle = Lockdep.analyse sep in
  let pairs = List.map (fun (e : Lockdep.edge) -> (cs e.Lockdep.e_from, cs e.Lockdep.e_to)) in
  let counted =
    List.map (fun (e : Lockdep.edge) ->
        Printf.sprintf "%s -> %s x%d at %s" (cs e.Lockdep.e_from) (cs e.Lockdep.e_to)
          e.Lockdep.e_count (Srcloc.to_string e.Lockdep.e_example))
  in
  let sl = Alcotest.(list string) and pl = Alcotest.(list (pair string string)) in
  check pl (name ^ ": edge pairs") (pairs oracle.Lockdep.edges) (pairs view.Lockdep.edges);
  check pl (name ^ ": self-nesting pairs")
    (pairs oracle.Lockdep.self_nesting) (pairs view.Lockdep.self_nesting);
  check Alcotest.(list (list string)) (name ^ ": cycles")
    (List.map (List.map cs) oracle.Lockdep.cycles)
    (List.map (List.map cs) view.Lockdep.cycles);
  check sl (name ^ ": edge counts and examples")
    (counted (oracle.Lockdep.edges @ oracle.Lockdep.self_nesting))
    (counted (view.Lockdep.edges @ view.Lockdep.self_nesting));
  check sl (name ^ ": classes")
    (List.map cs oracle.Lockdep.classes) (List.map cs view.Lockdep.classes);
  store

let test_separate_view_families () =
  List.iter
    (fun name ->
      for seed = 0 to 4 do
        ignore
          (check_separate_view (Printf.sprintf "%s seed %d" name seed)
             (Run.workload_trace ~seed name))
      done)
    Run.workload_names

(* The families run no interrupt sources; the benchmark mix does. *)
let test_separate_view_mix () =
  let config =
    { Run.kernel = { Lockdoc_ksim.Kernel.default_config with Lockdoc_ksim.Kernel.seed = 7 };
      Run.scale = 1; Run.faults = true }
  in
  let store = check_separate_view "mix" (fst (Run.benchmark_mix ~config ())) in
  check Alcotest.bool "mix: some transaction inherits locks" true
    (List.exists
       (fun i -> Store.txn_inherited store i > 0)
       (List.init (Store.n_txns store) Fun.id))

(* A task holds a, b, c when a hardirq comes in. The handler takes its
   pseudo-lock, d and e, then releases the inherited b: unbalanced under
   Separate, while under Inherit it reopens the transactions above b.
   It re-takes a (same class as an inherited lock), runs a nested
   softirq, and after the softirq a fresh hardirq flow releases locks
   it inherited wholesale. *)
let irq_fixture () =
  let obj =
    Layout.make ~name:"obj" [ ("o_val", 8, Layout.Data); ("o_lock", 4, Layout.Lock) ]
  in
  let base = 0x100000 in
  let loc line = Srcloc.make "irq.c" line in
  let line = ref 0 in
  let acquire ?(kind = Event.Spinlock) name lock_ptr =
    incr line;
    Event.Lock_acquire { lock_ptr; kind; side = Event.Exclusive; name; loc = loc !line }
  in
  let release lock_ptr = Event.Lock_release { lock_ptr; loc = loc 0 } in
  let switch pid kind = Event.Ctx_switch { pid; kind } in
  let write ptr = Event.Mem_access { ptr; size = 8; kind = Event.Write; loc = loc 99 } in
  let a = 0xa0 and b = 0xb0 and c = 0xc0 and d = 0xd0 and e = 0xe0 and f = 0xf0 in
  let own = base + 8 in
  let sink = Trace.sink () in
  List.iter (Trace.emit sink)
    [
      switch 1 Event.Task;
      Event.Alloc { ptr = base; size = 12; data_type = "obj"; subclass = None };
      acquire "a" a; acquire "b" b; acquire "o_lock" own; acquire "c" c;
      write base;
      switch 1001 Event.Hardirq;
      acquire ~kind:Event.Pseudo "hardirq" 0x5;
      acquire "d" d; acquire "e" e; write base;
      release b;
      acquire "f" f; write base;
      acquire "a" a; write base; release a;
      switch 2001 Event.Softirq;
      acquire ~kind:Event.Pseudo "softirq" 0x6;
      acquire "b" b; acquire "d" d; release d; release b; release 0x6;
      switch 1001 Event.Hardirq;
      release e; acquire "e" e; release own; write base;
      release e; release f; release d; release 0x5;
      switch 1 Event.Task;
      release c; release own; release b; release a;
    ];
  Trace.finish ~layouts:[ obj ] sink

let test_separate_view_fixture () =
  let trace = irq_fixture () in
  let store = check_separate_view "irq fixture" trace in
  let _, inh = Import.run trace and _, sep = Import.run ~irq_mode:Import.Separate trace in
  check Alcotest.int "inherit: every release balanced" 0 inh.Import.unbalanced_releases;
  check Alcotest.int "separate: inherited releases unbalanced" 6
    sep.Import.unbalanced_releases;
  check Alcotest.bool "a reopened transaction is hidden whole" true
    (List.exists
       (fun i ->
         let t = Store.txn store i in
         t.Schema.tx_locks <> [] && Store.txn_inherited store i = List.length t.Schema.tx_locks)
       (List.init (Store.n_txns store) Fun.id))

let test_one_import_per_lint () =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  let runs = Obs.counter "import.runs" in
  let trace = Run.workload_trace ~seed:0 "pipe" in
  let before = Obs.counter_value runs in
  ignore (Lint.run ~workload:"pipe" trace);
  let once = Obs.counter_value runs in
  ignore (Lint.run ~workload:"pipe" trace);
  let twice = Obs.counter_value runs in
  Obs.set_enabled was;
  check Alcotest.int "first Lint.run imports once" 1 (once - before);
  check Alcotest.int "second Lint.run imports once" 1 (twice - once)

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
      ( "single import",
        [
          Alcotest.test_case "separate view, families" `Quick
            test_separate_view_families;
          Alcotest.test_case "separate view, mix" `Quick test_separate_view_mix;
          Alcotest.test_case "separate view, irq fixture" `Quick
            test_separate_view_fixture;
          Alcotest.test_case "one import per lint" `Quick test_one_import_per_lint;
        ] );
    ]
