(* Tests for the LockDoc core: lock descriptors, rules and compliance,
   observation folding (WoR), hypothesis enumeration and support, winner
   selection, checker verdicts, documentation generation, and the
   violation finder — including the exact clock-example numbers of the
   paper's Tab. 1/2. *)

module Srcloc = Lockdoc_trace.Srcloc
module Layout = Lockdoc_trace.Layout
module Event = Lockdoc_trace.Event
module Trace = Lockdoc_trace.Trace
module Filter = Lockdoc_db.Filter
module Import = Lockdoc_db.Import
module Lockdesc = Lockdoc_core.Lockdesc
module Rule = Lockdoc_core.Rule
module Dataset = Lockdoc_core.Dataset
module Hypothesis = Lockdoc_core.Hypothesis
module Selection = Lockdoc_core.Selection
module Derivator = Lockdoc_core.Derivator
module Checker = Lockdoc_core.Checker
module Docgen = Lockdoc_core.Docgen
module Violation = Lockdoc_core.Violation
module Report = Lockdoc_core.Report
module Run = Lockdoc_ksim.Run
module Kernel = Lockdoc_ksim.Kernel

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* {2 Lockdesc} *)

let test_lockdesc_roundtrip () =
  List.iter
    (fun (s, expected) ->
      let d = Lockdesc.of_string s in
      check Alcotest.bool ("parse " ^ s) true (Lockdesc.equal d expected);
      check Alcotest.bool "reparse of to_string" true
        (Lockdesc.equal d (Lockdesc.of_string (Lockdesc.to_string d))))
    [
      ("inode_hash_lock", Lockdesc.Global "inode_hash_lock");
      ("G(rcu)", Lockdesc.Global "rcu");
      ("ES(i_lock)", Lockdesc.Es "i_lock");
      ( "EO(wb.list_lock in backing_dev_info)",
        Lockdesc.Eo ("wb.list_lock", "backing_dev_info") );
    ]

let test_lockdesc_ordering () =
  check Alcotest.bool "global < es" true
    (Lockdesc.compare (Lockdesc.Global "z") (Lockdesc.Es "a") < 0);
  check Alcotest.bool "es < eo" true
    (Lockdesc.compare (Lockdesc.Es "z") (Lockdesc.Eo ("a", "a")) < 0)

(* {2 Rule parsing and compliance} *)

let es x = Lockdesc.Es x
let g x = Lockdesc.Global x

let test_parse_errors () =
  List.iter
    (fun bad ->
      match Lockdesc.of_string bad with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail ("accepted malformed descriptor: " ^ bad))
    [ "EO(missing_type)"; "EO(a b c d)"; "" ]

let test_rule_whitespace_tolerant () =
  let rule = Rule.parse "  ES(i_lock)   ->   G(rcu) " in
  check Alcotest.string "normalised" "ES(i_lock) -> rcu" (Rule.to_string rule)

let test_rule_roundtrip () =
  List.iter
    (fun s ->
      check Alcotest.string ("roundtrip " ^ s) s (Rule.to_string (Rule.parse s)))
    [
      "nolock";
      "ES(i_lock)";
      "inode_hash_lock -> ES(i_lock)";
      "EO(d_lock in dentry) -> rcu -> ES(d_lock)";
    ]

let test_complies_subsequence () =
  let rule = [ g "a"; g "b" ] in
  check Alcotest.bool "exact" true (Rule.complies ~rule ~held:[ g "a"; g "b" ]);
  check Alcotest.bool "gap allowed" true
    (Rule.complies ~rule ~held:[ g "a"; g "c"; g "b" ]);
  check Alcotest.bool "wrong order" false
    (Rule.complies ~rule ~held:[ g "b"; g "a" ]);
  check Alcotest.bool "missing lock" false (Rule.complies ~rule ~held:[ g "a" ]);
  check Alcotest.bool "empty rule complies with anything" true
    (Rule.complies ~rule:[] ~held:[]);
  check Alcotest.bool "prefix extra" true
    (Rule.complies ~rule ~held:[ g "x"; g "a"; g "b"; g "y" ])

let test_subsequences_count () =
  let subs = Rule.subsequences [ g "a"; g "b"; g "c" ] in
  check Alcotest.int "2^3 ordered subsets" 8 (List.length subs);
  (* Each is order-preserving, hence complies with the original list. *)
  List.iter
    (fun rule ->
      check Alcotest.bool "subsequence complies" true
        (Rule.complies ~rule ~held:[ g "a"; g "b"; g "c" ]))
    subs

let test_subsequences_dedup_recursion () =
  (* A recursively re-acquired lock appears once. *)
  let subs = Rule.subsequences [ g "rcu"; g "rcu" ] in
  check Alcotest.int "deduplicated" 2 (List.length subs)

let test_permuted_subsets () =
  let perms = Rule.permuted_subsets [ g "a"; g "b" ] in
  (* {}, {a}, {b}, {ab}, {ba} *)
  check Alcotest.int "count" 5 (List.length perms)

let test_dedup_rules_structural () =
  (* The rule notation is ambiguous: a global lock literally named
     "ES(i_lock)" renders exactly like the embedded-in-same descriptor
     Es "i_lock". Dedup keys on the structural compare, so the two must
     both survive — a to_string-keyed dedup would collapse them. *)
  let global = [ Lockdesc.Global "ES(i_lock)" ] in
  let embedded = [ Lockdesc.Es "i_lock" ] in
  check Alcotest.string "renderings collide" (Rule.to_string global)
    (Rule.to_string embedded);
  check Alcotest.bool "but the rules differ" false (Rule.equal global embedded);
  check Alcotest.int "structural dedup keeps both" 2
    (List.length (Rule.dedup_rules [ global; embedded; global; embedded ]));
  (* Structurally equal rules collapse however they were constructed. *)
  let direct = [ Lockdesc.Eo ("j_lock", "journal_t"); Lockdesc.Global "wq_lock" ] in
  let parsed = Rule.parse "EO(j_lock in journal_t) -> wq_lock" in
  check Alcotest.bool "equal rules" true (Rule.equal direct parsed);
  check
    (Alcotest.list Alcotest.string)
    "equal rules collapse to the first"
    [ Rule.to_string direct ]
    (List.map Rule.to_string (Rule.dedup_rules [ direct; parsed ]));
  (* Order-preserving: first occurrence wins. *)
  let a = [ g "a" ] and b = [ g "b" ] in
  check
    (Alcotest.list Alcotest.string)
    "first occurrences, input order"
    [ "b"; "a" ]
    (List.map Rule.to_string (Rule.dedup_rules [ b; a; b; a ]))

let rule_gen =
  QCheck.Gen.(
    list_size (int_bound 4)
      (oneof
         [
           map (fun i -> g (Printf.sprintf "g%d" i)) (int_bound 5);
           map (fun i -> es (Printf.sprintf "m%d" i)) (int_bound 5);
         ]))

let prop_rule_roundtrip =
  QCheck.Test.make ~name:"rule notation roundtrip" ~count:300
    (QCheck.make rule_gen) (fun rule ->
      Rule.equal rule (Rule.parse (Rule.to_string rule)))

let prop_complies_insert_monotone =
  (* Inserting unrelated locks anywhere preserves compliance. *)
  QCheck.Test.make ~name:"compliance is insertion-monotone" ~count:300
    QCheck.(pair (make rule_gen) (int_bound 10))
    (fun (held, pos) ->
      let rule = Rule.subsequences held |> List.hd in
      (* hd is the full dedup'd list itself *)
      let extra = g "unrelated_xyz" in
      let pos = min pos (List.length held) in
      let held' =
        List.filteri (fun i _ -> i < pos) held
        @ [ extra ]
        @ List.filteri (fun i _ -> i >= pos) held
      in
      (not (Rule.complies ~rule ~held)) || Rule.complies ~rule ~held:held')

(* {2 The clock example: paper Tab. 1/2 exact numbers} *)

let clock_pipeline () =
  let trace = Lockdoc_ksim.Clock_example.run () in
  let store, _ = Import.run trace in
  Dataset.of_store store

let minutes_combos dataset = Dataset.combos_of dataset ("clock", "minutes", Rule.W)

let test_clock_minutes_support () =
  let dataset = clock_pipeline () in
  let obs = Dataset.by_member dataset "clock" ~member:"minutes" ~kind:Rule.W in
  check Alcotest.int "17 write observations" 17 (List.length obs);
  let combos = minutes_combos dataset in
  check Alcotest.int "the multiset adds up to 17" 17 (Hypothesis.total combos);
  let sa rule = (Hypothesis.support_of rule combos).Hypothesis.sa in
  check Alcotest.int "no lock" 17 (sa []);
  check Alcotest.int "sec_lock" 17 (sa [ g "sec_lock" ]);
  check Alcotest.int "sec -> min" 16 (sa [ g "sec_lock"; g "min_lock" ]);
  check Alcotest.int "min_lock" 16 (sa [ g "min_lock" ]);
  check Alcotest.int "min -> sec (never)" 0 (sa [ g "min_lock"; g "sec_lock" ])

let test_clock_selection_strategies () =
  let dataset = clock_pipeline () in
  let scored = Hypothesis.score (minutes_combos dataset) in
  (* The paper's strategy picks the true two-lock rule... *)
  let lockdoc = Selection.select ~tac:0.9 scored in
  check Alcotest.string "lockdoc winner" "sec_lock -> min_lock"
    (Rule.to_string lockdoc.Hypothesis.rule);
  (* ...whereas the naïve highest-support strategy is fooled by the
     enclosing lock (paper Sec. 4.3). *)
  let naive = Selection.select ~strategy:Selection.Naive ~tac:0.9 scored in
  check Alcotest.string "naive winner" "sec_lock"
    (Rule.to_string naive.Hypothesis.rule)

let test_clock_seconds_rule () =
  let dataset = clock_pipeline () in
  let mined =
    Derivator.derive_member dataset "clock" ~member:"seconds" ~kind:Rule.W
  in
  check Alcotest.string "seconds w rule" "sec_lock"
    (Rule.to_string mined.Derivator.m_winner)

let test_clock_wor_folding () =
  (* seconds is read and written within transaction a: the observation
     must be a write (WoR), so no read observation exists under a-only
     transactions except... reads fold away entirely. *)
  let dataset = clock_pipeline () in
  let reads = Dataset.by_member dataset "clock" ~member:"seconds" ~kind:Rule.R in
  check Alcotest.int "reads folded into writes" 0 (List.length reads)

(* {2 Selection edge cases} *)

let scored_of l =
  List.map
    (fun (rule, sa, sr) -> { Hypothesis.rule; support = { Hypothesis.sa; sr } })
    l

let test_selection_tie_prefers_more_locks () =
  let scored =
    scored_of
      [
        ([], 10, 1.0);
        ([ g "a" ], 10, 1.0);
        ([ g "a"; g "b" ], 10, 1.0);
      ]
  in
  let w = Selection.select ~tac:0.9 scored in
  check Alcotest.string "most locks wins ties" "a -> b"
    (Rule.to_string w.Hypothesis.rule)

let test_selection_threshold_rejects () =
  let scored = scored_of [ ([], 10, 1.0); ([ g "a" ], 8, 0.8) ] in
  let w = Selection.select ~tac:0.9 scored in
  check Alcotest.string "below threshold -> no lock" "nolock"
    (Rule.to_string w.Hypothesis.rule)

let prop_winner_at_least_tac =
  QCheck.Test.make ~name:"winner support >= tac" ~count:200
    QCheck.(
      pair (float_range 0.5 1.0)
        (list_of_size (Gen.int_bound 6)
           (pair (make rule_gen) (float_range 0. 1.))))
    (fun (tac, raw) ->
      let scored =
        { Hypothesis.rule = []; support = { Hypothesis.sa = 10; sr = 1.0 } }
        :: List.map
             (fun (rule, sr) ->
               { Hypothesis.rule; support = { Hypothesis.sa = 1; sr } })
             raw
      in
      let w = Selection.select ~tac scored in
      w.Hypothesis.support.Hypothesis.sr >= tac)

(* {2 Checker} *)

let test_checker_verdicts () =
  let dataset = clock_pipeline () in
  let correct =
    Checker.check_rule dataset ~ty:"clock" ~member:"seconds" ~kind:Rule.W
      (Rule.parse "sec_lock")
  in
  check Alcotest.string "correct" "correct"
    (Checker.verdict_to_string correct.Checker.c_verdict);
  let ambivalent =
    Checker.check_rule dataset ~ty:"clock" ~member:"minutes" ~kind:Rule.W
      (Rule.parse "min_lock")
  in
  check Alcotest.string "ambivalent" "ambivalent"
    (Checker.verdict_to_string ambivalent.Checker.c_verdict);
  let incorrect =
    Checker.check_rule dataset ~ty:"clock" ~member:"minutes" ~kind:Rule.W
      (Rule.parse "min_lock -> sec_lock")
  in
  check Alcotest.string "incorrect" "incorrect"
    (Checker.verdict_to_string incorrect.Checker.c_verdict);
  let unobserved =
    Checker.check_rule dataset ~ty:"clock" ~member:"seconds" ~kind:Rule.R
      (Rule.parse "sec_lock")
  in
  check Alcotest.string "unobserved" "unobserved"
    (Checker.verdict_to_string unobserved.Checker.c_verdict)

let test_checker_summary () =
  let checked =
    [
      Checker.
        { c_type = "t"; c_member = "m1"; c_kind = Rule.W; c_rule = [];
          c_support = { Hypothesis.sa = 1; sr = 1. }; c_verdict = Correct };
      Checker.
        { c_type = "t"; c_member = "m2"; c_kind = Rule.W; c_rule = [];
          c_support = { Hypothesis.sa = 0; sr = 0. }; c_verdict = Unobserved };
      Checker.
        { c_type = "t"; c_member = "m3"; c_kind = Rule.R; c_rule = [];
          c_support = { Hypothesis.sa = 1; sr = 0.5 }; c_verdict = Ambivalent };
    ]
  in
  let s = Checker.summarise checked "t" in
  check Alcotest.int "#R" 3 s.Checker.s_rules;
  check Alcotest.int "#No" 1 s.Checker.s_unobserved;
  check Alcotest.int "#Ob" 2 s.Checker.s_observed;
  check Alcotest.int "correct" 1 s.Checker.s_correct;
  check Alcotest.int "ambivalent" 1 s.Checker.s_ambivalent

(* {2 Docgen} *)

let test_docgen_groups () =
  let mined =
    [
      Derivator.
        { m_type = "inode"; m_member = "i_x"; m_kind = Rule.W; m_total = 5;
          m_winner = [ es "i_lock" ];
          m_support = { Hypothesis.sa = 5; sr = 1. }; m_hypotheses = [] };
      Derivator.
        { m_type = "inode"; m_member = "i_y"; m_kind = Rule.W; m_total = 5;
          m_winner = [ es "i_lock" ];
          m_support = { Hypothesis.sa = 5; sr = 1. }; m_hypotheses = [] };
      Derivator.
        { m_type = "inode"; m_member = "i_z"; m_kind = Rule.W; m_total = 5;
          m_winner = []; m_support = { Hypothesis.sa = 5; sr = 1. };
          m_hypotheses = [] };
    ]
  in
  let doc = Docgen.generate ~title:"inode" mined in
  let contains s sub =
    let nl = String.length sub and hl = String.length s in
    let rec go i = i + nl <= hl && (String.sub s i nl = sub || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "no-lock section first" true
    (contains doc "No locks needed for:");
  check Alcotest.bool "grouped rule" true (contains doc "ES(i_lock) protects:");
  check Alcotest.bool "members joined" true (contains doc "i_x, i_y")

let test_docgen_wraps_long_lists () =
  let mined =
    List.init 20 (fun i ->
        Derivator.
          {
            m_type = "inode";
            m_member = Printf.sprintf "member_with_long_name_%02d" i;
            m_kind = Rule.W;
            m_total = 1;
            m_winner = [ es "i_lock" ];
            m_support = { Hypothesis.sa = 1; sr = 1. };
            m_hypotheses = [];
          })
  in
  let doc = Docgen.generate ~title:"inode" mined in
  List.iter
    (fun line ->
      check Alcotest.bool "comment lines stay narrow" true
        (String.length line <= 80))
    (String.split_on_char '\n' doc)

(* {2 Violation finder on a synthetic trace} *)

let widget =
  Layout.make ~name:"widget"
    [ ("w_a", 8, Layout.Data); ("w_lock", 4, Layout.Lock) ]

let test_violation_finder () =
  let base = 0x100000 in
  let loc = Srcloc.make "w.c" 3 in
  let sink = Trace.sink () in
  List.iter (Trace.emit sink)
    ([ Event.Ctx_switch { pid = 1; kind = Event.Task };
       Event.Alloc { ptr = base; size = 12; data_type = "widget"; subclass = None } ]
    @ List.concat
        (List.init 20 (fun _ ->
             [
               Event.Lock_acquire
                 { lock_ptr = base + 8; kind = Event.Spinlock;
                   side = Event.Exclusive; name = "w_lock"; loc };
               Event.Mem_access { ptr = base; size = 8; kind = Event.Write; loc };
               Event.Lock_release { lock_ptr = base + 8; loc };
             ]))
    @ [ Event.Fun_enter { fn = "sloppy_writer"; loc };
        Event.Mem_access { ptr = base; size = 8; kind = Event.Write; loc };
        Event.Fun_exit { fn = "sloppy_writer" } ]);
  let trace = Trace.finish ~layouts:[ widget ] sink in
  let store, _ = Import.run ~filter:Filter.empty trace in
  let dataset = Dataset.of_store store in
  let mined = Derivator.derive_all dataset in
  let m =
    List.find
      (fun m -> m.Derivator.m_member = "w_a" && m.Derivator.m_kind = Rule.W)
      mined
  in
  check Alcotest.string "winner" "ES(w_lock)" (Rule.to_string m.Derivator.m_winner);
  let violations = Violation.find dataset mined in
  check Alcotest.int "one violation" 1 (List.length violations);
  let v = List.hd violations in
  check Alcotest.string "member" "w_a" v.Violation.v_member;
  check (Alcotest.list Alcotest.string) "stack names the culprit"
    [ "sloppy_writer" ] v.Violation.v_stack;
  check Alcotest.bool "no locks held" true (v.Violation.v_held = []);
  let s = Violation.summarise violations "widget" in
  check Alcotest.int "events" 1 s.Violation.vs_events;
  check Alcotest.int "contexts" 1 s.Violation.vs_contexts

let test_violation_none_when_perfect () =
  let base = 0x100000 in
  let loc = Srcloc.make "w.c" 3 in
  let sink = Trace.sink () in
  List.iter (Trace.emit sink)
    ([ Event.Ctx_switch { pid = 1; kind = Event.Task };
       Event.Alloc { ptr = base; size = 12; data_type = "widget"; subclass = None } ]
    @ List.concat
        (List.init 5 (fun _ ->
             [
               Event.Lock_acquire
                 { lock_ptr = base + 8; kind = Event.Spinlock;
                   side = Event.Exclusive; name = "w_lock"; loc };
               Event.Mem_access { ptr = base; size = 8; kind = Event.Write; loc };
               Event.Lock_release { lock_ptr = base + 8; loc };
             ])));
  let trace = Trace.finish ~layouts:[ widget ] sink in
  let store, _ = Import.run ~filter:Filter.empty trace in
  let dataset = Dataset.of_store store in
  let mined = Derivator.derive_all dataset in
  check Alcotest.int "no violations" 0
    (List.length (Violation.find dataset mined))

(* {2 Report writers} *)

let fixed6 f =
  let b = Buffer.create 16 in
  Report.add_fixed6 b f;
  Buffer.contents b

let check_fixed6 label f =
  check Alcotest.string label (Printf.sprintf "%.6f" f) (fixed6 f)

(* The fixed-point writer against [Printf] on the values it must not
   get wrong: every support ratio sa/total with total <= 4096, exact
   ties and their neighbours, and the values it hands to [Printf]. *)
let test_fixed6_cases () =
  let b = Buffer.create 16 in
  let bad = ref 0 in
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  for total = 1 to 4096 do
    for sa = 0 to total do
      (* A fraction not in lowest terms is the same float as one that
         is. *)
      if gcd sa total = 1 then begin
        let f = float_of_int sa /. float_of_int total in
        Buffer.clear b;
        Report.add_fixed6 b f;
        if Buffer.contents b <> Printf.sprintf "%.6f" f then incr bad
      end
    done
  done;
  check Alcotest.int "every sa/total, total <= 4096" 0 !bad;
  let ties =
    (* k/2^7 .. k/2^20 end in a 5 at the 7th decimal or later: exact
       ties at 1/128 and beyond, near-ties below. *)
    List.concat_map
      (fun e ->
        let d = Float.ldexp 1. e in
        List.concat_map
          (fun k ->
            let f = float_of_int k /. d in
            [ f; Float.pred f; Float.succ f ])
          [ 1; 3; 5; 7; 127; 1023 ])
      [ 7; 8; 9; 10; 12; 16; 20 ]
  in
  List.iter (fun f -> check_fixed6 (Printf.sprintf "%h" f) f) ties;
  List.iter
    (fun f -> check_fixed6 (Printf.sprintf "%h" f) f)
    [
      0.; -0.; 1.; -1.; 0.5; 0.0000005; 0.0000015; 0.0000025; 0.9999995;
      0.99999949999; 999999.9999995; 999999.5; 1e6; 1e6 +. 0.5; 1e15; 1e300;
      -0.0078125; -1e-7; Float.min_float; Float.epsilon; Float.max_float;
      Float.nan; Float.infinity; Float.neg_infinity; 0.1; 0.2; 0.3; 2. /. 3.;
    ]

let prop_fixed6 =
  QCheck.Test.make ~name:"fixed-point writer = Printf %.6f" ~count:2000
    QCheck.(
      oneof
        [
          float;
          float_bound_inclusive 1.;
          float_bound_inclusive 1e6;
          map (fun (n, d) -> float_of_int n /. float_of_int (d + 1))
            (pair small_nat small_nat);
          map (fun n -> float_of_int n /. 1e7) (int_bound 100_000_000);
        ])
    (fun f -> fixed6 f = Printf.sprintf "%.6f" f)

(* The tree the direct writers replaced, field for field: the oracle
   for their bytes. *)
let tree_support (s : Hypothesis.support) =
  Report.O [ ("sa", Report.I s.Hypothesis.sa); ("sr", Report.F s.Hypothesis.sr) ]

let tree_rule r = Report.S (Rule.to_string r)

let tree_mined (m : Derivator.mined) =
  Report.O
    [
      ("type", Report.S m.Derivator.m_type);
      ("member", Report.S m.Derivator.m_member);
      ("access", Report.S (Rule.access_to_string m.Derivator.m_kind));
      ("observations", Report.I m.Derivator.m_total);
      ("rule", tree_rule m.Derivator.m_winner);
      ("support", tree_support m.Derivator.m_support);
      ( "hypotheses",
        Report.L
          (List.map
             (fun (h : Hypothesis.scored) ->
               Report.O
                 [
                   ("rule", tree_rule h.Hypothesis.rule);
                   ("support", tree_support h.Hypothesis.support);
                 ])
             m.Derivator.m_hypotheses) );
    ]

let tree_violation (v : Violation.violation) =
  Report.O
    [
      ("type", Report.S v.Violation.v_type);
      ("member", Report.S v.Violation.v_member);
      ("access", Report.S (Rule.access_to_string v.Violation.v_kind));
      ("rule", tree_rule v.Violation.v_rule);
      ( "held",
        Report.L
          (List.map (fun d -> Report.S (Lockdesc.to_string d)) v.Violation.v_held) );
      ("events", Report.I v.Violation.v_events);
      ("location", Report.S (Srcloc.to_string v.Violation.v_loc));
      ("stack", Report.L (List.map (fun f -> Report.S f) v.Violation.v_stack));
    ]

let check_writers label trace =
  let store, _ = Import.run trace in
  let dataset = Dataset.of_store store in
  let mined = Derivator.derive_all dataset in
  let violations = Violation.find dataset mined in
  check Alcotest.string (label ^ ": mined_to_json")
    (Report.to_string (Report.L (List.map tree_mined mined)))
    (Report.mined_to_json mined);
  check Alcotest.string (label ^ ": violations_to_json")
    (Report.to_string (Report.L (List.map tree_violation violations)))
    (Report.violations_to_json violations);
  List.iter
    (fun m ->
      check Alcotest.string (label ^ ": mined_rule_to_json")
        (Report.to_string (tree_mined m))
        (Report.mined_rule_to_json m))
    mined

let test_writers_families () =
  List.iter
    (fun family ->
      for seed = 0 to 9 do
        check_writers
          (Printf.sprintf "%s seed %d" family seed)
          (Run.workload_trace ~seed family)
      done)
    Run.workload_names

let mix ~seed ~scale =
  let config =
    { Run.kernel = { Kernel.default_config with Kernel.seed }; Run.scale;
      Run.faults = true }
  in
  fst (Run.benchmark_mix ~config ())

let test_writers_mix () =
  List.iter
    (fun (seed, scale) ->
      check_writers
        (Printf.sprintf "mix seed %d scale %d" seed scale)
        (mix ~seed ~scale))
    [ (7, 1); (11, 1); (7, 4); (11, 4) ]

(* Hand-made rules and violations with every byte class: quotes,
   backslashes, control characters, non-ASCII, and lock descriptors
   whose renderings collide. *)
let test_writers_escapes () =
  let names = [ "plain"; "q\"uote"; "back\\slash"; "tab\tnl\ncr\r"; "\001\031"; "caf\xc3\xa9"; "" ] in
  let descs =
    List.concat_map
      (fun n -> [ Lockdesc.Global n; Lockdesc.Es n; Lockdesc.Eo (n, n ^ "_t") ])
      names
    @ [ Lockdesc.Global "ES(x)"; Lockdesc.Es "x" ]
  in
  let rules = [] :: List.map (fun d -> [ d ]) descs @ [ descs ] in
  let support sa sr = { Hypothesis.sa; sr } in
  let mined =
    List.mapi
      (fun i n ->
        {
          Derivator.m_type = n;
          m_member = n ^ "m";
          m_kind = (if i mod 2 = 0 then Rule.R else Rule.W);
          m_total = i;
          m_winner = List.nth rules (i mod List.length rules);
          m_support = support i (float_of_int i /. 7.);
          m_hypotheses =
            List.mapi (fun j r -> { Hypothesis.rule = r; support = support j (1. /. float_of_int (j + 1)) }) rules;
        })
      names
  in
  let violations =
    List.mapi
      (fun i n ->
        {
          Violation.v_type = n;
          v_member = n;
          v_kind = Rule.W;
          v_rule = List.nth rules i;
          v_held = descs;
          v_events = i;
          v_loc = Srcloc.make n i;
          v_stack = names;
        })
      names
  in
  check Alcotest.string "mined"
    (Report.to_string (Report.L (List.map tree_mined mined)))
    (Report.mined_to_json mined);
  check Alcotest.string "violations"
    (Report.to_string (Report.L (List.map tree_violation violations)))
    (Report.violations_to_json violations)

let () =
  Alcotest.run "core"
    [
      ( "lockdesc",
        [
          Alcotest.test_case "roundtrip" `Quick test_lockdesc_roundtrip;
          Alcotest.test_case "ordering" `Quick test_lockdesc_ordering;
        ] );
      ( "rule",
        [
          Alcotest.test_case "roundtrip" `Quick test_rule_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "whitespace tolerant" `Quick test_rule_whitespace_tolerant;
          Alcotest.test_case "compliance semantics" `Quick test_complies_subsequence;
          Alcotest.test_case "subsequences" `Quick test_subsequences_count;
          Alcotest.test_case "recursion dedup" `Quick test_subsequences_dedup_recursion;
          Alcotest.test_case "permuted subsets" `Quick test_permuted_subsets;
          Alcotest.test_case "structural dedup" `Quick test_dedup_rules_structural;
          qtest prop_rule_roundtrip;
          qtest prop_complies_insert_monotone;
        ] );
      ( "clock example",
        [
          Alcotest.test_case "Tab.2 support values" `Quick test_clock_minutes_support;
          Alcotest.test_case "selection strategies" `Quick test_clock_selection_strategies;
          Alcotest.test_case "seconds rule" `Quick test_clock_seconds_rule;
          Alcotest.test_case "WoR folding" `Quick test_clock_wor_folding;
        ] );
      ( "selection",
        [
          Alcotest.test_case "tie prefers more locks" `Quick
            test_selection_tie_prefers_more_locks;
          Alcotest.test_case "threshold rejects" `Quick test_selection_threshold_rejects;
          qtest prop_winner_at_least_tac;
        ] );
      ( "checker",
        [
          Alcotest.test_case "verdicts" `Quick test_checker_verdicts;
          Alcotest.test_case "summary" `Quick test_checker_summary;
        ] );
      ( "docgen",
        [
          Alcotest.test_case "groups" `Quick test_docgen_groups;
          Alcotest.test_case "wrapping" `Quick test_docgen_wraps_long_lists;
        ] );
      ( "violations",
        [
          Alcotest.test_case "finder" `Quick test_violation_finder;
          Alcotest.test_case "perfect code is clean" `Quick
            test_violation_none_when_perfect;
        ] );
      ( "report",
        [
          Alcotest.test_case "fixed-point writer cases" `Quick test_fixed6_cases;
          qtest prop_fixed6;
          Alcotest.test_case "writers escape like the tree" `Quick
            test_writers_escapes;
          Alcotest.test_case "writers vs tree: families" `Slow
            test_writers_families;
          Alcotest.test_case "writers vs tree: mix" `Slow test_writers_mix;
        ] );
    ]
