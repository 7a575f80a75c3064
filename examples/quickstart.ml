(* Quickstart: the complete LockDoc pipeline on the paper's running
   example (Sec. 4) — a shared clock whose seconds/minutes counters are
   protected by two spinlocks, plus one buggy execution that forgot the
   second lock.

   Run with: dune exec examples/quickstart.exe *)

module Import = Lockdoc_db.Import
module Dataset = Lockdoc_core.Dataset
module Rule = Lockdoc_core.Rule
module Hypothesis = Lockdoc_core.Hypothesis
module Derivator = Lockdoc_core.Derivator
module Violation = Lockdoc_core.Violation

let () =
  (* Phase 1: trace an instrumented execution (1000 correct ticks, one
     faulty carry). *)
  let trace = Lockdoc_ksim.Clock_example.run () in
  Printf.printf "recorded %d events\n\n"
    (Array.length trace.Lockdoc_trace.Trace.events);

  (* Phase 1b: post-process into the relational store and fold accesses
     into per-transaction observations. *)
  let store, stats = Import.run trace in
  Printf.printf "%d lock operations, %d memory accesses, %d transactions\n\n"
    stats.Import.lock_ops stats.Import.mem_accesses stats.Import.txns;
  let dataset = Dataset.of_store store in

  (* Phase 2: enumerate locking-rule hypotheses for writes to `minutes'
     and show their support — the paper's Tab. 2. *)
  let combos = Dataset.combos_of dataset ("clock", "minutes", Rule.W) in
  Printf.printf "hypotheses for writes to minutes (%d observations):\n"
    (Hypothesis.total combos);
  List.iter
    (fun (s : Hypothesis.scored) ->
      Printf.printf "  %-28s sa=%2d  sr=%6.2f%%\n"
        (Rule.to_string s.Hypothesis.rule)
        s.Hypothesis.support.Hypothesis.sa
        (100. *. s.Hypothesis.support.Hypothesis.sr))
    (Hypothesis.enumerate_exhaustive combos);

  (* Phase 2b: pick the winner. The faulty execution keeps the true rule
     at 94 % — still above the acceptance threshold, and LockDoc's
     lowest-support selection finds it. *)
  let mined = Derivator.derive_all dataset in
  print_newline ();
  List.iter
    (fun (m : Derivator.mined) ->
      Printf.printf "mined: clock.%s (%s) needs %s\n" m.Derivator.m_member
        (Rule.access_to_string m.Derivator.m_kind)
        (Rule.to_string m.Derivator.m_winner))
    mined;

  (* Phase 3: the rule-violation finder pinpoints the buggy execution. *)
  print_newline ();
  List.iter
    (fun (v : Violation.violation) ->
      Printf.printf
        "VIOLATION: %s.%s written with [%s] held instead of [%s] at %s (in %s)\n"
        v.Violation.v_type v.Violation.v_member
        (String.concat " -> "
           (List.map Lockdoc_core.Lockdesc.to_string v.Violation.v_held))
        (Rule.to_string v.Violation.v_rule)
        (Lockdoc_trace.Srcloc.to_string v.Violation.v_loc)
        (match v.Violation.v_stack with f :: _ -> f | [] -> "?"))
    (Violation.find dataset mined)
