(* Unit and property tests for the observability layer: single-domain
   counters/histograms, span nesting, the JSON codec, the wall/cpu
   clock split, and — the load-bearing guarantee — that enabling
   metrics changes no analysis output bytes. *)

module Obs = Lockdoc_obs.Obs
module Json = Lockdoc_obs.Json
module Run = Lockdoc_ksim.Run
module Import = Lockdoc_db.Import
module Dataset = Lockdoc_core.Dataset
module Derivator = Lockdoc_core.Derivator
module Violation = Lockdoc_core.Violation
module Report = Lockdoc_core.Report

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* Every test owns the global registry state for its duration. *)
let fresh ?(enabled = true) () =
  Obs.reset ();
  Obs.set_enabled enabled

(* {2 Counters} *)

let test_counter_basic () =
  fresh ();
  let c = Obs.counter "t.basic" in
  Obs.incr c;
  Obs.add c 41;
  check Alcotest.int "value" 42 (Obs.counter_value c);
  let c' = Obs.counter "t.basic" in
  Obs.incr c';
  check Alcotest.int "same handle by name" 43 (Obs.counter_value c)

let test_counter_disabled () =
  fresh ~enabled:false ();
  let c = Obs.counter "t.disabled" in
  Obs.incr c;
  Obs.add c 100;
  check Alcotest.int "no recording when disabled" 0 (Obs.counter_value c)

(* {2 Gauges} *)

let test_gauge () =
  fresh ();
  let g = Obs.gauge "t.gauge" in
  Obs.set_gauge g 2.5;
  check (Alcotest.float 0.) "set/get" 2.5 (Obs.gauge_value g);
  Obs.set_enabled false;
  Obs.set_gauge g 9.;
  check (Alcotest.float 0.) "disabled set ignored" 2.5 (Obs.gauge_value g)

(* {2 Histograms} *)

let test_histogram_buckets () =
  fresh ();
  let h = Obs.histogram ~buckets:[| 1.; 10.; 100. |] "t.hist" in
  List.iter (Obs.observe h) [ 0.5; 1.; 5.; 99.; 1000. ];
  check Alcotest.int "count" 5 (Obs.histogram_count h);
  check (Alcotest.float 1e-9) "sum" 1105.5 (Obs.histogram_sum h);
  let snap = Obs.snapshot () in
  let hs = List.assoc "t.hist" snap.Obs.sn_histograms in
  (* 0.5 and 1.0 land in [<= 1], 5 in [<= 10], 99 in [<= 100],
     1000 overflows. *)
  check (Alcotest.array Alcotest.int) "bucket counts" [| 2; 1; 1; 1 |]
    hs.Obs.hs_counts

let test_histogram_increasing () =
  fresh ();
  Alcotest.check_raises "non-increasing buckets rejected"
    (Invalid_argument "Obs.histogram t.bad: buckets must be strictly increasing")
    (fun () -> ignore (Obs.histogram ~buckets:[| 1.; 1. |] "t.bad"))

let prop_histogram_counts_observations =
  QCheck.Test.make ~name:"histogram count = observations, any values"
    ~count:100
    QCheck.(list (float_bound_exclusive 20000.))
    (fun xs ->
      fresh ();
      let h = Obs.histogram "t.hist.prop" in
      List.iter (Obs.observe h) xs;
      let snap = Obs.snapshot () in
      let hs = List.assoc "t.hist.prop" snap.Obs.sn_histograms in
      hs.Obs.hs_count = List.length xs
      && Array.fold_left ( + ) 0 hs.Obs.hs_counts = List.length xs)

(* {2 Spans} *)

let test_span_nesting () =
  fresh ();
  check (Alcotest.list Alcotest.string) "empty outside spans" []
    (Obs.Span.current_path ());
  Obs.Span.time "outer" (fun () ->
      check (Alcotest.list Alcotest.string) "inside outer" [ "outer" ]
        (Obs.Span.current_path ());
      Obs.Span.time "inner" (fun () ->
          check (Alcotest.list Alcotest.string) "nested path"
            [ "outer/inner"; "outer" ]
            (Obs.Span.current_path ())));
  check (Alcotest.list Alcotest.string) "popped on exit" []
    (Obs.Span.current_path ());
  let snap = Obs.snapshot () in
  check Alcotest.bool "outer recorded" true
    (Obs.find_span snap "outer" <> None);
  check Alcotest.bool "outer/inner recorded" true
    (Obs.find_span snap "outer/inner" <> None)

let test_span_pops_on_exception () =
  fresh ();
  (try Obs.Span.time "boom" (fun () -> failwith "x") with Failure _ -> ());
  check (Alcotest.list Alcotest.string) "stack clean after raise" []
    (Obs.Span.current_path ())

let test_span_disabled_records_nothing () =
  fresh ~enabled:false ();
  let (), d = Obs.Span.timed "t.off" (fun () -> ()) in
  check Alcotest.bool "duration still measured" true (d.Obs.Clock.wall >= 0.);
  Obs.set_enabled true;
  let snap = Obs.snapshot () in
  check Alcotest.bool "nothing recorded while disabled" true
    (Obs.find_span snap "t.off" = None)

let test_span_record_external () =
  fresh ();
  Obs.Span.record "t.ext" { Obs.Clock.wall = 1.5; cpu = 0.5 };
  Obs.Span.record "t.ext" { Obs.Clock.wall = 0.5; cpu = 0.25 };
  match Obs.find_span (Obs.snapshot ()) "t.ext" with
  | None -> Alcotest.fail "span missing"
  | Some sp ->
      check Alcotest.int "count" 2 sp.Obs.sp_count;
      check (Alcotest.float 1e-9) "wall" 2. sp.Obs.sp_wall;
      check (Alcotest.float 1e-9) "cpu" 0.75 sp.Obs.sp_cpu

(* {2 Clock} *)

let test_clock_wall_vs_cpu () =
  (* Sleeping burns wall time but (almost) no CPU: the two clocks must
     not be the same thing. This is the regression test for the
     Sys.time-as-wall-clock bug. *)
  let (), d = Obs.Clock.timed (fun () -> Unix.sleepf 0.05) in
  check Alcotest.bool
    (Printf.sprintf "wall >= 40ms (got %.1fms)" (1000. *. d.Obs.Clock.wall))
    true (d.Obs.Clock.wall >= 0.04);
  check Alcotest.bool
    (Printf.sprintf "cpu <= 40ms (got %.1fms)" (1000. *. d.Obs.Clock.cpu))
    true (d.Obs.Clock.cpu <= 0.04)

(* {2 JSON codec} *)

let test_json_round_trip () =
  let j =
    Json.O
      [
        ("null", Json.Null);
        ("bool", Json.B true);
        ("int", Json.I (-42));
        ("float", Json.F 1.5);
        ("big", Json.I max_int);
        ("str", Json.S "a\"b\\c\nd\te\x01");
        ("list", Json.L [ Json.I 1; Json.F 2.5; Json.S "x" ]);
        ("nested", Json.O [ ("k", Json.L [ Json.O [] ]) ]);
      ]
  in
  let s = Json.to_string j in
  match Json.of_string s with
  | Error e -> Alcotest.fail ("re-parse failed: " ^ e)
  | Ok j' ->
      check Alcotest.bool "round-trip equal" true (Json.equal j j');
      check Alcotest.string "stable encoding" s (Json.to_string j')

let prop_json_int_round_trip =
  QCheck.Test.make ~name:"json int round-trip" ~count:200 QCheck.int (fun i ->
      match Json.of_string (Json.to_string (Json.I i)) with
      | Ok (Json.I i') -> i = i'
      | _ -> false)

let prop_json_string_round_trip =
  QCheck.Test.make ~name:"json string round-trip" ~count:200
    QCheck.printable_string (fun s ->
      match Json.of_string (Json.to_string (Json.S s)) with
      | Ok (Json.S s') -> s = s'
      | _ -> false)

let test_json_rejects_junk () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted junk %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,"; "{\"a\":}"; "nul"; "1 2"; "\"unterminated" ]

let test_snapshot_json_shape () =
  fresh ();
  Obs.incr (Obs.counter "t.snap.counter");
  Obs.observe (Obs.histogram ~buckets:[| 1. |] "t.snap.hist") 0.5;
  Obs.Span.time "t.snap.span" (fun () -> ());
  let s = Obs.to_json_string () in
  match Json.of_string s with
  | Error e -> Alcotest.fail ("snapshot not valid JSON: " ^ e)
  | Ok j ->
      let counter =
        Option.bind (Json.member "counters" j) (Json.member "t.snap.counter")
      in
      check Alcotest.bool "counter present" true (counter = Some (Json.I 1));
      let hist_count =
        Option.bind
          (Option.bind (Json.member "histograms" j) (Json.member "t.snap.hist"))
          (Json.member "count")
      in
      check Alcotest.bool "histogram count present" true
        (hist_count = Some (Json.I 1));
      let span =
        Option.bind (Json.member "spans" j) (Json.member "t.snap.span")
      in
      check Alcotest.bool "span present" true (span <> None)

let test_write_file () =
  fresh ();
  Obs.incr (Obs.counter "t.write");
  let path = Filename.temp_file "lockdoc_obs" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.write path;
      let s = In_channel.with_open_bin path In_channel.input_all in
      match Json.of_string s with
      | Error e -> Alcotest.fail ("written file not valid JSON: " ^ e)
      | Ok j ->
          check Alcotest.bool "written counter readable" true
            (Option.bind (Json.member "counters" j) (Json.member "t.write")
            = Some (Json.I 1)))

(* {2 Reset} *)

let test_reset () =
  fresh ();
  let c = Obs.counter "t.reset" in
  Obs.add c 7;
  Obs.Span.time "t.reset.span" (fun () -> ());
  Obs.reset ();
  check Alcotest.int "counter zeroed" 0 (Obs.counter_value c);
  check Alcotest.bool "spans dropped" true
    (Obs.find_span (Obs.snapshot ()) "t.reset.span" = None)

(* {2 Metrics are byte-invisible to analysis output} *)

(* Render the analysis pipeline exactly as the CLI/test_parallel do and
   require the bytes to be independent of the metrics switch. *)
let render_analysis trace =
  let store, stats = Import.run trace in
  let dataset = Dataset.of_store store in
  let mined = Derivator.derive_all dataset in
  let violations = Violation.find dataset mined in
  String.concat "\n"
    [
      Report.mined_to_json mined;
      Report.violations_to_json violations;
      string_of_int stats.Import.total_events;
      string_of_int (Import.anomaly_total stats);
    ]

let test_metrics_do_not_change_output () =
  let trace = Run.workload_trace ~seed:7 ~scale:2 "fs_inod" in
  Obs.reset ();
  Obs.set_enabled false;
  let off = render_analysis trace in
  Obs.set_enabled true;
  let on = render_analysis trace in
  Obs.set_enabled true;
  check Alcotest.string "identical bytes with metrics on" off on;
  (* And the run did actually record something. *)
  check Alcotest.bool "metrics recorded" true
    (match Obs.find_counter (Obs.snapshot ()) "import.events" with
    | Some n -> n > 0
    | None -> false)

let () =
  Alcotest.run "obs"
    [
      ( "counters",
        [
          Alcotest.test_case "basic" `Quick test_counter_basic;
          Alcotest.test_case "disabled" `Quick test_counter_disabled;
        ] );
      ("gauges", [ Alcotest.test_case "set/get" `Quick test_gauge ]);
      ( "histograms",
        [
          Alcotest.test_case "bucketing" `Quick test_histogram_buckets;
          Alcotest.test_case "rejects non-increasing" `Quick
            test_histogram_increasing;
          qtest prop_histogram_counts_observations;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "pops on exception" `Quick
            test_span_pops_on_exception;
          Alcotest.test_case "disabled records nothing" `Quick
            test_span_disabled_records_nothing;
          Alcotest.test_case "external record" `Quick test_span_record_external;
        ] );
      ( "clock",
        [ Alcotest.test_case "wall vs cpu" `Quick test_clock_wall_vs_cpu ] );
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_round_trip;
          Alcotest.test_case "rejects junk" `Quick test_json_rejects_junk;
          qtest prop_json_int_round_trip;
          qtest prop_json_string_round_trip;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "json shape" `Quick test_snapshot_json_shape;
          Alcotest.test_case "write file" `Quick test_write_file;
          Alcotest.test_case "reset" `Quick test_reset;
        ] );
      ( "invisibility",
        [
          Alcotest.test_case "analysis bytes unchanged" `Quick
            test_metrics_do_not_change_output;
        ] );
    ]
