(* Sanitizer orchestration: trace one workload family (with or without
   the seeded bugs), import it, run both detectors, and cross-validate
   against the ground truth and the mined-rule violation scanner. *)

module Run = Lockdoc_ksim.Run
module Seeded = Lockdoc_ksim.Seeded
module Trace = Lockdoc_trace.Trace
module Event = Lockdoc_trace.Event
module Srcloc = Lockdoc_trace.Srcloc
module Import = Lockdoc_db.Import
module Dataset = Lockdoc_core.Dataset
module Derivator = Lockdoc_core.Derivator
module Violation = Lockdoc_core.Violation
module Report = Lockdoc_core.Report
module Obs = Lockdoc_obs.Obs

type report = {
  s_workload : string;
  s_seed : int;
  s_scale : int;
  s_bugs : bool;
  s_events : int;
  s_accesses : int;
  s_races : Lockset.race list;
  s_irq : Irq.report;
  s_truth : Seeded.truth;
  s_crossval : Crossval.t;
}

type findings = {
  f_accesses : int;
  f_races : Lockset.race list;
  f_irq : Irq.report;
  f_violations : Violation.violation list;
}

let findings trace =
  let (store, stats), _ =
    Obs.Span.timed "sanitize/import" (fun () -> Import.run trace)
  in
  let f_races, _ =
    Obs.Span.timed "sanitize/lockset" (fun () -> Lockset.analyse store)
  in
  let f_irq, _ = Obs.Span.timed "sanitize/irq" (fun () -> Irq.analyse store) in
  let f_violations, _ =
    Obs.Span.timed "sanitize/violations" (fun () ->
        let dataset = Dataset.of_store store in
        Violation.find dataset (Derivator.derive_all dataset))
  in
  { f_accesses = stats.Import.accesses_kept; f_races; f_irq; f_violations }

let analyse ?jobs:_ ~workload ~seed ~scale ~bugs ~truth trace =
  let f = findings trace in
  let s_crossval, _ =
    Obs.Span.timed "sanitize/crossval" (fun () ->
        Crossval.evaluate ~races:f.f_races ~irq:f.f_irq ~truth
          ~violations:f.f_violations)
  in
  {
    s_workload = workload;
    s_seed = seed;
    s_scale = scale;
    s_bugs = bugs;
    s_events = Array.length trace.Trace.events;
    s_accesses = f.f_accesses;
    s_races = f.f_races;
    s_irq = f.f_irq;
    s_truth = truth;
    s_crossval;
  }

let run ?(seed = 7) ?(scale = 1) ~bugs workload =
  let (trace, truth), _ =
    Obs.Span.timed "sanitize/trace" (fun () ->
        Run.sanitize_trace ~seed ~scale ~bugs workload)
  in
  analyse ~workload ~seed ~scale ~bugs ~truth trace

let render r =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "sanitize: %s (seed %d, scale %d, seeded bugs %s) — %d event(s), %d \
        access(es)\n"
       r.s_workload r.s_seed r.s_scale
       (if r.s_bugs then "on" else "off")
       r.s_events r.s_accesses);
  Buffer.add_string buf (Lockset.render r.s_races);
  Buffer.add_string buf (Irq.render r.s_irq);
  Buffer.add_string buf
    (Printf.sprintf "ground truth: %d seeded race(s), %d seeded irq bug(s)\n"
       (List.length r.s_truth.Seeded.t_races)
       (List.length r.s_truth.Seeded.t_irq_unsafe));
  Buffer.add_string buf (Crossval.render r.s_crossval);
  Buffer.contents buf

(* {2 JSON} *)

let json_of_score (s : Crossval.score) =
  Report.O
    [
      ("tp", Report.I s.Crossval.cv_tp);
      ("fp", Report.I s.Crossval.cv_fp);
      ("fn", Report.I s.Crossval.cv_fn);
      ("precision", Report.F s.Crossval.cv_precision);
      ("recall", Report.F s.Crossval.cv_recall);
      ("spurious", Report.L (List.map (fun x -> Report.S x) s.Crossval.cv_spurious));
      ("missed", Report.L (List.map (fun x -> Report.S x) s.Crossval.cv_missed));
    ]

let json_of_race (r : Lockset.race) =
  let w = r.Lockset.r_witness in
  Report.O
    [
      ("type", Report.S r.Lockset.r_type);
      ("member", Report.S r.Lockset.r_member);
      ("instances", Report.I r.Lockset.r_instances);
      ("bare_accesses", Report.I r.Lockset.r_bare);
      ( "witness",
        Report.O
          [
            ("event", Report.I w.Lockset.w_event);
            ( "kind",
              Report.S
                (match w.Lockset.w_kind with
                | Event.Read -> "r"
                | Event.Write -> "w") );
            ("flow", Report.I w.Lockset.w_ctx);
            ("loc", Report.S (Srcloc.to_string w.Lockset.w_loc));
            ( "stack",
              Report.L (List.map (fun f -> Report.S f) w.Lockset.w_stack) );
          ] );
    ]

let to_json r =
  Report.to_string
    (Report.O
       [
         ("workload", Report.S r.s_workload);
         ("seed", Report.I r.s_seed);
         ("scale", Report.I r.s_scale);
         ("seeded_bugs", Report.S (if r.s_bugs then "on" else "off"));
         ("events", Report.I r.s_events);
         ("accesses", Report.I r.s_accesses);
         ("races", Report.L (List.map json_of_race r.s_races));
         ( "irq_usage",
           Report.L
             (List.map
                (fun (u : Irq.usage) ->
                  Report.O
                    [
                      ("class", Report.S u.Irq.u_class);
                      ("process", Report.I u.Irq.u_process);
                      ("softirq", Report.I u.Irq.u_softirq);
                      ("hardirq", Report.I u.Irq.u_hardirq);
                      ("irqs_on", Report.I u.Irq.u_irqs_on);
                    ])
                r.s_irq.Irq.i_usage) );
         ( "irq_unsafe",
           Report.L
             (List.map
                (fun (iu : Irq.unsafe) ->
                  Report.O
                    [
                      ("class", Report.S iu.Irq.iu_class);
                      ("irq_acquisition", Report.S (Srcloc.to_string iu.Irq.iu_irq_loc));
                      ("irqs_on_acquisition", Report.S (Srcloc.to_string iu.Irq.iu_on_loc));
                    ])
                r.s_irq.Irq.i_unsafe) );
         ( "inversions",
           Report.L
             (List.map
                (fun (inv : Irq.inversion) ->
                  Report.O
                    [
                      ("irq_acquired", Report.S inv.Irq.inv_irq);
                      ("irq_unsafe", Report.S inv.Irq.inv_unsafe);
                      ("loc", Report.S (Srcloc.to_string inv.Irq.inv_loc));
                    ])
                r.s_irq.Irq.i_inversions) );
         ( "ground_truth",
           Report.O
             [
               ( "races",
                 Report.L
                   (List.map
                      (fun (ty, m) -> Report.S (ty ^ "." ^ m))
                      r.s_truth.Seeded.t_races) );
               ( "irq_unsafe",
                 Report.L
                   (List.map
                      (fun c -> Report.S c)
                      r.s_truth.Seeded.t_irq_unsafe) );
             ] );
         ( "crossval",
           Report.O
             [
               ("races", json_of_score r.s_crossval.Crossval.races);
               ("irq", json_of_score r.s_crossval.Crossval.irq);
               ( "corroborated",
                 Report.L
                   (List.map
                      (fun (id, hit) ->
                        Report.O
                          [
                            ("finding", Report.S id);
                            ("by_violation_scanner", Report.S (if hit then "yes" else "no"));
                          ])
                      r.s_crossval.Crossval.corroborated) );
             ] );
       ])
