(* Crash-injection fuzzing of the durability layer.

   For every ksim workload family, a golden uninterrupted durable
   import fixes the expected stats, derived rules and violation report
   — and, via the crash-point hit counter, the number of seedable kill
   points its import contains. Then, per pinned seed:

   1. arm a crash at a seed-chosen point and run the durable import —
      it must die with Crashpoint.Crash somewhere in the WAL /
      snapshot / manifest / event-loop machinery;
   2. optionally corrupt the tail of the surviving WAL (truncation,
      bit flip, torn final record — seed-chosen);
   3. `Durable.recover` must not raise and must yield a prefix of the
      golden store: its rules and violations are byte-identical to a
      plain import of the first `r_trace_offset` events;
   4. resuming `Durable.import` over the same directory must complete
      and produce stats, derived rules and violations byte-identical
      to the uninterrupted run.

   The default run keeps the seed bank small so `dune runtest` stays
   fast; `dune build @crash` (or LOCKDOC_CRASH_SEEDS=n) widens it to
   >= 50 kill points across the 6 families. *)

module Trace = Lockdoc_trace.Trace
module Store = Lockdoc_db.Store
module Import = Lockdoc_db.Import
module Durable = Lockdoc_db.Durable
module Crashpoint = Lockdoc_db.Crashpoint
module Wal = Lockdoc_db.Wal
module Run = Lockdoc_ksim.Run
module Prng = Lockdoc_util.Prng
module Dataset = Lockdoc_core.Dataset
module Derivator = Lockdoc_core.Derivator
module Violation = Lockdoc_core.Violation
module Report = Lockdoc_core.Report

let check = Alcotest.check

(* Metrics on for the whole suite: golden-vs-resumed byte comparisons
   double as evidence that recording never leaks into analysis bytes,
   durable checkpoints included. *)
let () = Lockdoc_obs.Obs.set_enabled true

let n_seeds =
  match Sys.getenv_opt "LOCKDOC_CRASH_SEEDS" with
  | Some s -> (try max 1 (int_of_string s) with Failure _ -> 3)
  | None -> 3

(* Small enough that even the shortest family crosses several
   checkpoint boundaries. *)
let checkpoint_every = 5_000

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

type golden = {
  go_trace : Trace.t;
  go_stats : Import.stats;
  go_rules : string;
  go_violations : string;
  go_hits : int; (* crash points in one uninterrupted durable import *)
  go_accesses : int;
}

let reports store =
  let dataset = Dataset.of_store store in
  let mined = Derivator.derive_all dataset in
  ( Report.mined_to_json mined,
    Report.violations_to_json (Violation.find dataset mined) )

(* One golden run per family, shared across all seeds. *)
let goldens =
  lazy
    (List.map
       (fun name ->
         let trace = Run.workload_trace ~seed:11 name in
         let dir = temp_dir "lockdoc_golden" in
         Fun.protect
           ~finally:(fun () -> rm_rf dir)
           (fun () ->
             Crashpoint.reset ();
             let store, stats, _ =
               Durable.import ~dir ~checkpoint_every trace
             in
             let hits = Crashpoint.hits () in
             let rules, violations = reports store in
             ( name,
               {
                 go_trace = trace;
                 go_stats = stats;
                 go_rules = rules;
                 go_violations = violations;
                 go_hits = hits;
                 go_accesses = Store.n_accesses store;
               } )))
       Run.workload_names)

let test_crash_recover_resume () =
  List.iter
    (fun (name, g) ->
      for seed = 0 to n_seeds - 1 do
        let id = Printf.sprintf "%s/seed %d" name seed in
        let prng = Prng.of_int (Hashtbl.hash (name, seed)) in
        let kill_at = 1 + Prng.int prng g.go_hits in
        let dir = temp_dir "lockdoc_crash" in
        Fun.protect
          ~finally:(fun () ->
            Crashpoint.reset ();
            rm_rf dir)
          (fun () ->
            (* 1: the armed import must die at the chosen point. *)
            Crashpoint.reset ();
            Crashpoint.arm ~after:kill_at;
            (match Durable.import ~dir ~checkpoint_every g.go_trace with
            | _ ->
                Alcotest.failf "%s: import survived armed crash at hit %d" id
                  kill_at
            | exception Crashpoint.Crash _ -> ()
            | exception e ->
                Alcotest.failf "%s: import died with %s, not Crash" id
                  (Printexc.to_string e));
            Crashpoint.reset ();
            (* 2: for 3 of 4 seeds, additionally corrupt the WAL tail. *)
            if seed mod 4 <> 0 then
              ignore (Wal.corrupt_tail ~dir ~seed:(seed * 7919 + 13));
            (* 3: recovery must never raise, and must be exactly a
               plain import of the first [r_trace_offset] events. *)
            (match Durable.recover ~dir with
            | r ->
                if Store.n_accesses r.Durable.r_store > g.go_accesses then
                  Alcotest.failf "%s: recovered MORE than the golden run" id;
                let prefix = Import.engine g.go_trace.Trace.layouts in
                for i = 0 to r.Durable.r_trace_offset - 1 do
                  Import.feed prefix g.go_trace.Trace.events.(i)
                done;
                check
                  (Alcotest.pair Alcotest.string Alcotest.string)
                  (Printf.sprintf "%s: recovered = import of %d events" id
                     r.Durable.r_trace_offset)
                  (reports (Import.engine_store prefix))
                  (reports r.Durable.r_store)
            | exception e ->
                Alcotest.failf "%s: recover raised %s" id
                  (Printexc.to_string e));
            (* 4: the resumed import matches the uninterrupted run. *)
            match Durable.import ~dir ~checkpoint_every g.go_trace with
            | store, stats, _ ->
                if stats <> g.go_stats then
                  Alcotest.failf "%s: stats differ after resume" id;
                let rules, violations = reports store in
                check Alcotest.string (id ^ ": derived rules") g.go_rules
                  rules;
                check Alcotest.string (id ^ ": violation report")
                  g.go_violations violations
            | exception e ->
                Alcotest.failf "%s: resumed import raised %s" id
                  (Printexc.to_string e))
      done)
    (Lazy.force goldens)

let test_kill_points_exist () =
  (* The harness is only meaningful if each family exposes plenty of
     distinct kill points. *)
  List.iter
    (fun (name, g) ->
      if g.go_hits < 100 then
        Alcotest.failf "%s: only %d crash points" name g.go_hits)
    (Lazy.force goldens)

let () =
  Alcotest.run "crash"
    [
      ( "injection",
        [
          Alcotest.test_case "kill points exist" `Quick test_kill_points_exist;
          Alcotest.test_case
            (Printf.sprintf "crash/recover/resume (%d seeds x %d families)"
               n_seeds
               (List.length Run.workload_names))
            `Slow test_crash_recover_resume;
        ] );
    ]
