(* Property-based tests over randomly generated (well-formed) traces:
   import invariants, observation folding, hypothesis enumeration, and
   the JSON report encoder. The generator builds properly nested lock
   scopes across several interleaved tasks, so every property failure
   points at real pipeline logic, not at malformed input. *)

module Srcloc = Lockdoc_trace.Srcloc
module Layout = Lockdoc_trace.Layout
module Event = Lockdoc_trace.Event
module Trace = Lockdoc_trace.Trace
module Schema = Lockdoc_db.Schema
module Store = Lockdoc_db.Store
module Filter = Lockdoc_db.Filter
module Import = Lockdoc_db.Import
module Dataset = Lockdoc_core.Dataset
module Lockdesc = Lockdoc_core.Lockdesc
module Rule = Lockdoc_core.Rule
module Hypothesis = Lockdoc_core.Hypothesis
module Prng = Lockdoc_util.Prng

let qtest = QCheck_alcotest.to_alcotest

let widget =
  Layout.make ~name:"widget"
    [ ("w_a", 8, Layout.Data); ("w_b", 8, Layout.Data); ("w_c", 8, Layout.Data) ]

let base = 0x100000
let loc = Srcloc.make "gen.c" 1

(* A random structured program per task: nested lock scopes with accesses
   sprinkled in, flattened to events. Scopes close in LIFO order, so lock
   traffic is balanced and properly nested. *)
let gen_program seed =
  let rng = Prng.of_int seed in
  let n_tasks = 1 + Prng.int rng 3 in
  let n_allocs = 1 + Prng.int rng 3 in
  let lock_ptrs = [| 0x10; 0x20; 0x30; 0x40 |] in
  let alloc_events =
    List.init n_allocs (fun i ->
        Event.Alloc
          {
            ptr = base + (i * 0x100);
            size = widget.Layout.ty_size;
            data_type = "widget";
            subclass = None;
          })
  in
  (* Each task produces a list of event blocks; blocks from different
     tasks are interleaved with Ctx_switch separators. *)
  let task_blocks pid =
    (* [depth] bounds nesting of any kind, so the recursion is a strictly
       subcritical branching process (no runaway programs). *)
    let rec scope depth =
      if depth > 4 then []
      else
        let stmts = 1 + Prng.int rng 3 in
        List.concat
          (List.init stmts (fun _ ->
               match Prng.int rng 4 with
               | 0 | 1 ->
                   (* access a random member of a random allocation *)
                   let a = Prng.int rng n_allocs and m = Prng.int rng 3 in
                   [
                     Event.Mem_access
                       {
                         ptr = base + (a * 0x100) + (m * 8);
                         size = 8;
                         kind = (if Prng.bool rng then Event.Read else Event.Write);
                         loc;
                       };
                   ]
               | 2 ->
                   (* function frame *)
                   let fn = Printf.sprintf "fn_%d" (Prng.int rng 5) in
                   (Event.Fun_enter { fn; loc } :: scope (depth + 1))
                   @ [ Event.Fun_exit { fn } ]
               | _ ->
                   (* nested lock scope *)
                   let lp = Prng.pick rng lock_ptrs in
                   (Event.Lock_acquire
                      {
                        lock_ptr = lp;
                        kind = Event.Spinlock;
                        side = Event.Exclusive;
                        name = Printf.sprintf "L%x" lp;
                        loc;
                      }
                   :: scope (depth + 1))
                   @ [ Event.Lock_release { lock_ptr = lp; loc } ]))
    in
    let n_blocks = 1 + Prng.int rng 4 in
    List.init n_blocks (fun _ ->
        Event.Ctx_switch { pid; kind = Event.Task } :: scope 0)
  in
  let all_blocks = List.concat_map (fun pid -> task_blocks (pid + 1)) (List.init n_tasks Fun.id) in
  let arr = Array.of_list all_blocks in
  Prng.shuffle rng arr;
  alloc_events @ List.concat (Array.to_list arr)

(* Interleaving blocks of different tasks can release a lock in a block
   that runs after another task's block — but each task's own event order
   is preserved, and lock state is per task, so balance still holds. *)

let mk_trace events =
  let sink = Trace.sink () in
  List.iter (Trace.emit sink) events;
  Trace.finish ~layouts:[ widget ] sink

let import_of seed =
  let events = gen_program seed in
  let trace = mk_trace events in
  let store, stats = Import.run ~filter:Filter.empty trace in
  (events, store, stats)

let seed_arb = QCheck.int_range 0 100_000

let prop_no_unbalanced =
  QCheck.Test.make ~name:"nested scopes never unbalance" ~count:150 seed_arb
    (fun seed ->
      let _, _, stats = import_of seed in
      stats.Import.unbalanced_releases = 0)

let prop_txn_per_acquire =
  QCheck.Test.make ~name:"one transaction per acquisition" ~count:150 seed_arb
    (fun seed ->
      let events, store, _ = import_of seed in
      let acquires =
        List.length
          (List.filter (function Event.Lock_acquire _ -> true | _ -> false) events)
      in
      Store.n_txns store = acquires)

let prop_access_accounting =
  QCheck.Test.make ~name:"kept + filtered + unresolved = total" ~count:150
    seed_arb (fun seed ->
      let _, _, s = import_of seed in
      s.Import.accesses_kept + s.Import.filtered_fn + s.Import.filtered_member
      + s.Import.filtered_kind + s.Import.unresolved
      = s.Import.mem_accesses)

let prop_txn_locks_nonempty =
  QCheck.Test.make ~name:"every access txn holds >= 1 lock" ~count:150 seed_arb
    (fun seed ->
      let _, store, _ = import_of seed in
      let ok = ref true in
      Store.iter_accesses store (fun a ->
          match a.Schema.ac_txn with
          | None -> ()
          | Some t ->
              if (Store.txn store t).Schema.tx_locks = [] then ok := false);
      !ok)

let prop_fold_bound =
  QCheck.Test.make ~name:"observations never exceed accesses" ~count:150
    seed_arb (fun seed ->
      let _, store, stats = import_of seed in
      let dataset = Dataset.of_store store in
      let obs = Dataset.observations dataset "widget" in
      List.length obs <= stats.Import.accesses_kept)

let prop_wor_exclusive =
  QCheck.Test.make ~name:"WoR: no duplicate (member, txn) observation pairs"
    ~count:150 seed_arb (fun seed ->
      let _, store, _ = import_of seed in
      let dataset = Dataset.of_store store in
      let obs = Dataset.observations dataset "widget" in
      (* After folding, every access row lands in exactly one
         observation, and no two observations share a (allocation,
         member, transaction) cell. *)
      let seen = Hashtbl.create 64 in
      List.fold_left (fun acc (o : Dataset.obs) -> acc + o.Dataset.o_events) 0 obs
      = Store.n_accesses store
      && List.for_all
           (fun (o : Dataset.obs) ->
             let a = Store.access store o.Dataset.o_first in
             match a.Schema.ac_txn with
             | None -> o.Dataset.o_events = 1
             | Some txn ->
                 let _, member, _ = Dataset.key o.Dataset.o_group in
                 let cell = (a.Schema.ac_alloc, member, txn) in
                 (not (Hashtbl.mem seen cell))
                 && (Hashtbl.replace seen cell ();
                     true))
           obs)

let combos_of dataset member kind = Dataset.combos_of dataset ("widget", member, kind)

let prop_enumerate_supported =
  QCheck.Test.make ~name:"enumerated hypotheses have sa >= 1" ~count:100
    seed_arb (fun seed ->
      let _, store, _ = import_of seed in
      let dataset = Dataset.of_store store in
      List.for_all
        (fun member ->
          let combos = combos_of dataset member Rule.W in
          combos = []
          || List.for_all
               (fun (s : Hypothesis.scored) -> s.Hypothesis.support.Hypothesis.sa >= 1)
               (Hypothesis.score combos))
        [ "w_a"; "w_b"; "w_c" ])

let prop_winner_complies_with_majority =
  QCheck.Test.make ~name:"winner satisfies >= tac of observations" ~count:100
    seed_arb (fun seed ->
      let _, store, _ = import_of seed in
      let dataset = Dataset.of_store store in
      List.for_all
        (fun member ->
          List.for_all
            (fun kind ->
              combos_of dataset member kind = []
              ||
              let mined =
                Lockdoc_core.Derivator.derive_member dataset "widget" ~member
                  ~kind
              in
              mined.Lockdoc_core.Derivator.m_support.Hypothesis.sr >= 0.9)
            [ Rule.R; Rule.W ])
        [ "w_a"; "w_b"; "w_c" ])

(* {2 The combination multiset} *)

(* Lock lists over a small pool, so duplicates, repeats and nesting
   arise often: [Es "l"] and [Eo ("l", "widget")] are the same lock
   class held on two instances (same-class nesting), and a list may
   hold one lock twice (a recursive re-acquisition). *)
let lock_pool =
  [| Lockdesc.Global "a"; Lockdesc.Global "b"; Lockdesc.Es "l";
     Lockdesc.Eo ("l", "widget") |]

let gen_observations =
  let open QCheck.Gen in
  let combo = list_size (int_bound 4) (map (Array.get lock_pool) (int_bound 3)) in
  list_size (int_range 1 5) combo >>= fun base ->
  list_size (int_bound 30) (oneofl base)

let arb_observations =
  QCheck.make gen_observations
    ~print:
      (QCheck.Print.list (fun locks ->
           "[" ^ String.concat "; " (List.map Lockdesc.to_string locks) ^ "]"))

(* One observation at a time: the candidates are the ordered subsets of
   every observation's locks, and [sa] counts complying observations. *)
let score_expanded observations =
  let candidates =
    match Rule.dedup_rules (List.concat_map Rule.subsequences observations) with
    | [] -> [ Rule.no_lock ]
    | rules -> rules
  in
  let total = List.length observations in
  List.map
    (fun rule ->
      let sa = List.length (List.filter (fun held -> Rule.complies ~rule ~held) observations) in
      {
        Hypothesis.rule;
        support =
          { Hypothesis.sa; sr = (if total = 0 then 0. else float_of_int sa /. float_of_int total) };
      })
    candidates
  |> Hypothesis.sort_scored

let multiset observations =
  let counts = Hashtbl.create 8 in
  List.iter
    (fun locks ->
      Hashtbl.replace counts locks
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts locks)))
    observations;
  Hashtbl.fold (fun locks n acc -> (locks, n) :: acc) counts []

let prop_multiset_scores_as_expanded =
  QCheck.Test.make ~name:"multiset scores as its expanded observations"
    ~count:300 arb_observations (fun observations ->
      let expected = score_expanded observations in
      Hypothesis.score (multiset observations) = expected
      && Hypothesis.score (List.map (fun locks -> (locks, 1)) observations)
         = expected)

(* A from-scratch fold of the first [n] access rows: settle every
   cell's final kind first, then count combinations — no cell ever
   moves between groups. *)
let scratch_groups store n =
  let cells = Hashtbl.create 64 and order = ref [] in
  for id = 0 to n - 1 do
    let a = Store.access store id in
    let key =
      ( a.Schema.ac_alloc,
        a.Schema.ac_member,
        Option.value ~default:(-1 - id) a.Schema.ac_txn )
    in
    let kind = if a.Schema.ac_kind = Event.Write then Rule.W else Rule.R in
    match Hashtbl.find_opt cells key with
    | Some (_, locks) -> if kind = Rule.W then Hashtbl.replace cells key (Rule.W, locks)
    | None ->
        let locks =
          match a.Schema.ac_txn with
          | Some txn -> Dataset.locks_of_txn store ~accessed_alloc:a.Schema.ac_alloc txn
          | None -> []
        in
        Hashtbl.replace cells key (kind, locks);
        order := key :: !order
  done;
  let groups = Hashtbl.create 8 in
  List.iter
    (fun ((_, member, _) as key) ->
      let kind, locks = Hashtbl.find cells key in
      let g = ("widget", member, kind) in
      Hashtbl.replace groups g
        (locks :: Option.value ~default:[] (Hashtbl.find_opt groups g)))
    !order;
  Hashtbl.fold
    (fun g observations acc ->
      (g, List.sort compare (multiset observations)) :: acc)
    groups []
  |> List.sort compare

let prop_incremental_fold =
  QCheck.Test.make ~name:"incremental R->W moves equal a from-scratch fold"
    ~count:100 seed_arb (fun seed ->
      let _, store, _ = import_of seed in
      let dataset = Dataset.create store in
      let ok = ref true in
      for id = 0 to Store.n_accesses store - 1 do
        Dataset.absorb dataset id;
        let incremental =
          List.map
            (fun (g, group) -> (g, List.sort compare (Dataset.combos group)))
            (Dataset.groups dataset)
        in
        if incremental <> scratch_groups store (id + 1) then ok := false
      done;
      !ok)

(* {2 JSON encoder} *)

let balanced s =
  let depth = ref 0 and ok = ref true and in_string = ref false in
  let escaped = ref false in
  String.iter
    (fun c ->
      if !in_string then begin
        if !escaped then escaped := false
        else if c = '\\' then escaped := true
        else if c = '"' then in_string := false
      end
      else
        match c with
        | '"' -> in_string := true
        | '[' | '{' -> incr depth
        | ']' | '}' ->
            decr depth;
            if !depth < 0 then ok := false
        | _ -> ())
    s;
  !ok && !depth = 0 && not !in_string

let prop_json_balanced =
  QCheck.Test.make ~name:"mined JSON is structurally balanced" ~count:50
    seed_arb (fun seed ->
      let _, store, _ = import_of seed in
      let dataset = Dataset.of_store store in
      let mined = Lockdoc_core.Derivator.derive_all dataset in
      balanced (Lockdoc_core.Report.mined_to_json mined))

let test_json_escaping () =
  let mined =
    [
      Lockdoc_core.Derivator.
        {
          m_type = "weird\"type\\with\nescapes";
          m_member = "m\t1";
          m_kind = Rule.W;
          m_total = 1;
          m_winner = [];
          m_support = { Hypothesis.sa = 1; sr = 1. };
          m_hypotheses = [];
        };
    ]
  in
  let json = Lockdoc_core.Report.mined_to_json mined in
  Alcotest.(check bool) "balanced with escapes" true (balanced json);
  Alcotest.(check bool) "no raw newline" true
    (not (String.contains json '\n'))

let () =
  Alcotest.run "properties"
    [
      ( "import",
        [
          qtest prop_no_unbalanced;
          qtest prop_txn_per_acquire;
          qtest prop_access_accounting;
          qtest prop_txn_locks_nonempty;
        ] );
      ( "observations",
        [ qtest prop_fold_bound; qtest prop_wor_exclusive ] );
      ( "hypotheses",
        [ qtest prop_enumerate_supported; qtest prop_winner_complies_with_majority ] );
      ( "multiset",
        [ qtest prop_multiset_scores_as_expanded; qtest prop_incremental_fold ] );
      ( "report",
        [
          qtest prop_json_balanced;
          Alcotest.test_case "string escaping" `Quick test_json_escaping;
        ] );
    ]
