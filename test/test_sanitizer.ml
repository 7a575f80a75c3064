(* Sanitizer-layer tests.

   Three tiers:
   - state-machine units on hand-built stores: the Eraser lattice, the
     bare-trigger report policy, RCU/seqlock read-section exemption
     (reader sections must not empty writer candidate sets), teardown
     quiescence, and the irq context classifier;
   - lockdep cycle canonicalisation pins (seeded ABBA and 3-class
     cycles are reported exactly once, smallest class first);
   - end-to-end runs over every workload family: seeded traces must
     yield 100% recall at 100% precision against the ground truth,
     clean traces must yield zero findings, and the rendered reports
     must be byte-identical whatever [jobs] a caller passes (it is
     ignored). *)

module Event = Lockdoc_trace.Event
module Srcloc = Lockdoc_trace.Srcloc
module Layout = Lockdoc_trace.Layout
module Store = Lockdoc_db.Store
module Schema = Lockdoc_db.Schema
module Import = Lockdoc_db.Import
module Run = Lockdoc_ksim.Run
module Seeded = Lockdoc_ksim.Seeded
module Lockdep = Lockdoc_core.Lockdep
module Lockset = Lockdoc_sanitizer.Lockset
module Irq = Lockdoc_sanitizer.Irq
module Crossval = Lockdoc_sanitizer.Crossval
module Sanitize = Lockdoc_sanitizer.Sanitize

let check = Alcotest.check

(* {2 Synthetic store builders} *)

let widget_layout =
  Layout.make ~name:"widget" [ ("a", 8, Layout.Data); ("b", 8, Layout.Data) ]

type builder = {
  store : Store.t;
  alloc : Schema.allocation;
  mutable next_event : int;
  mutable next_lock : int;
}

let builder () =
  let store = Store.create () in
  let dt = Store.add_data_type store widget_layout in
  let alloc =
    Store.add_allocation store ~ptr:0x1000 ~size:16 ~ty:dt.Schema.dt_id
      ~subclass:None ~start:0
  in
  { store; alloc; next_event = 1; next_lock = 0x2000 }

let add_lock b ?(kind = Event.Spinlock) name =
  let ptr = b.next_lock in
  b.next_lock <- ptr + 8;
  Store.add_lock b.store ~ptr ~kind ~name ~parent:None

let held ?(side = Event.Exclusive) (lock : Schema.lock) =
  { Schema.h_lock = lock.Schema.lk_id; h_side = side; h_loc = Srcloc.none }

let access b ?(stack = [ "worker_fn" ]) ?txn ~ctx kind member =
  let txn =
    Option.map
      (fun locks -> (Store.add_txn b.store ~locks ~ctx).Schema.tx_id)
      txn
  in
  let ev = b.next_event in
  b.next_event <- ev + 1;
  ignore
    (Store.add_access b.store ~event:ev ~alloc:b.alloc.Schema.al_id
       ~slot:(Store.member_slot b.store ~ty:b.alloc.Schema.al_type member)
       ~kind ~txn:(Option.value ~default:Store.no_txn txn)
       ~loc:(Srcloc.make "test.c" ev)
       ~stack:(Store.intern_stack b.store stack)
       ~ctx)

let races b = Lockset.analyse b.store

let race_ids rs =
  List.map (fun (r : Lockset.race) -> r.Lockset.r_type ^ "." ^ r.Lockset.r_member) rs

(* {2 Lockset state-machine units} *)

let test_bare_cross_flow_write () =
  let b = builder () in
  access b ~ctx:1 Event.Write "a";
  access b ~ctx:2 Event.Write "a";
  check (Alcotest.list Alcotest.string) "bare cross-flow write races"
    [ "widget.a" ] (race_ids (races b))

let test_single_flow_clean () =
  let b = builder () in
  for _ = 1 to 5 do
    access b ~ctx:1 Event.Write "a";
    access b ~ctx:1 Event.Read "a"
  done;
  check Alcotest.int "one flow never races" 0 (List.length (races b))

let test_locked_discipline_clean () =
  let b = builder () in
  let l = add_lock b "w_lock" in
  access b ~ctx:1 ~txn:[ held l ] Event.Write "a";
  access b ~ctx:2 ~txn:[ held l ] Event.Write "a";
  access b ~ctx:3 ~txn:[ held l ] Event.Read "a";
  check Alcotest.int "consistent lock is clean" 0 (List.length (races b))

let test_empty_candidates_without_bare_trigger () =
  let b = builder () in
  let l = add_lock b "w_lock" in
  (* Unlocked init-phase store, then consistently locked use: no
     locked access ever empties the candidates, and nothing after the
     init write is bare — must not be reported. *)
  access b ~ctx:1 Event.Write "a";
  access b ~ctx:2 ~txn:[ held l ] Event.Write "a";
  access b ~ctx:1 ~txn:[ held l ] Event.Write "a";
  access b ~ctx:2 ~txn:[ held l ] Event.Read "a";
  check Alcotest.int "no bare trigger, no report" 0 (List.length (races b));
  (* A later bare write on the emptied set does trigger. *)
  access b ~ctx:1 Event.Write "a";
  check (Alcotest.list Alcotest.string) "bare trigger reports" [ "widget.a" ]
    (race_ids (races b))

let test_reader_side_protects_reads () =
  let b = builder () in
  let l = add_lock b ~kind:Event.Rwlock "rw_lock" in
  access b ~ctx:1 ~txn:[ held l ] Event.Write "a";
  access b ~ctx:2 ~txn:[ held ~side:Event.Shared l ] Event.Read "a";
  access b ~ctx:1 ~txn:[ held l ] Event.Write "a";
  check Alcotest.int "reader-side acquisition protects reads" 0
    (List.length (races b))

let test_shared_write_is_not_protection () =
  let b = builder () in
  let l = add_lock b ~kind:Event.Rwsem "rwsem" in
  access b ~ctx:1 ~txn:[ held l ] Event.Write "a";
  (* A write under only the reader side refines with the exclusive
     subset (empty) — and is itself bare. *)
  access b ~ctx:2 ~txn:[ held ~side:Event.Shared l ] Event.Write "a";
  check (Alcotest.list Alcotest.string) "reader-side write is bare"
    [ "widget.a" ] (race_ids (races b))

let rcu_like kind name =
  let b = builder () in
  let l = add_lock b "w_lock" in
  let rcu = add_lock b ~kind name in
  access b ~ctx:1 ~txn:[ held l ] Event.Write "a";
  (* Read-section reads (no writer lock held!) must be skipped: no
     state transition, no candidate refinement. *)
  access b ~ctx:2 ~txn:[ held ~side:Event.Shared rcu ] Event.Read "a";
  access b ~ctx:2 ~txn:[ held ~side:Event.Shared rcu ] Event.Read "a";
  (* The writer's candidate set must still contain w_lock: a third
     flow's locked write stays clean... *)
  access b ~ctx:3 ~txn:[ held l ] Event.Write "a";
  check Alcotest.int (name ^ " readers keep writer candidates") 0
    (List.length (races b));
  (* ...while a genuinely bare read still races. *)
  access b ~ctx:2 Event.Read "a";
  check
    (Alcotest.list Alcotest.string)
    (name ^ " bare read still races") [ "widget.a" ] (race_ids (races b))

let test_rcu_read_section () = rcu_like Event.Rcu "rcu"
let test_seqlock_read_section () = rcu_like Event.Seqlock "seq"

let test_quiescent_stack_exempt () =
  let b = builder () in
  access b ~ctx:1 Event.Write "a";
  access b ~ctx:2 ~stack:[ "clear_inode"; "evict" ] Event.Write "a";
  access b ~ctx:3 ~stack:[ "sync_filesystem"; "umount" ] Event.Write "a";
  check Alcotest.int "teardown accesses are exempt" 0 (List.length (races b))

(* {2 Irq classifier units} *)

let test_irq_classifier () =
  let b = builder () in
  let l = add_lock b "dev_lock" in
  let hard = add_lock b ~kind:Event.Pseudo "hardirq" in
  let irqoff = add_lock b ~kind:Event.Pseudo "irqoff" in
  (* Task-context acquisition with interrupts enabled... *)
  ignore (Store.add_txn b.store ~locks:[ held l ] ~ctx:1);
  (* ...and a hardirq-context acquisition: the lockdep splat. *)
  ignore (Store.add_txn b.store ~locks:[ held hard; held l ] ~ctx:1001);
  let r = Irq.analyse b.store in
  check
    (Alcotest.list Alcotest.string)
    "dev_lock is irq-unsafe" [ "dev_lock" ]
    (List.map (fun (u : Irq.unsafe) -> u.Irq.iu_class) r.Irq.i_unsafe);
  (* Masking interrupts around the task-context acquisition fixes it. *)
  let b2 = builder () in
  let l2 = add_lock b2 "dev_lock" in
  let hard2 = add_lock b2 ~kind:Event.Pseudo "hardirq" in
  let irqoff2 = add_lock b2 ~kind:Event.Pseudo "irqoff" in
  ignore (Store.add_txn b2.store ~locks:[ held irqoff2; held l2 ] ~ctx:1);
  ignore (Store.add_txn b2.store ~locks:[ held hard2; held l2 ] ~ctx:1001);
  let r2 = Irq.analyse b2.store in
  check Alcotest.int "masked acquisition is safe" 0
    (List.length r2.Irq.i_unsafe);
  ignore irqoff;
  (* Inherited task locks before the hardirq pseudo stay attributed to
     process context. *)
  let b3 = builder () in
  let task_l = add_lock b3 "task_lock" in
  let hard3 = add_lock b3 ~kind:Event.Pseudo "hardirq" in
  ignore (Store.add_txn b3.store ~locks:[ held task_l; held hard3 ] ~ctx:1001);
  let r3 = Irq.analyse b3.store in
  let u = List.hd r3.Irq.i_usage in
  check Alcotest.int "inherited lock: no hardirq sighting" 0 u.Irq.u_hardirq;
  check Alcotest.int "inherited lock: process sighting" 1 u.Irq.u_process

(* {2 Lockdep cycle canonicalisation pins} *)

let static_cycle_store specs =
  let store = Store.create () in
  let locks = Hashtbl.create 8 in
  let get name =
    match Hashtbl.find_opt locks name with
    | Some l -> l
    | None ->
        let l =
          Store.add_lock store
            ~ptr:(0x3000 + Hashtbl.length locks)
            ~kind:Event.Spinlock ~name ~parent:None
        in
        Hashtbl.add locks name l;
        l
  in
  List.iter
    (fun names ->
      ignore
        (Store.add_txn store ~locks:(List.map (fun n -> held (get n)) names)
           ~ctx:1))
    specs;
  store

let cycle_names r =
  List.map (List.map Lockdep.class_to_string) r.Lockdep.cycles

let test_abba_cycle_once () =
  (* b→a and a→b acquisition orders: one ABBA cycle, anchored at a. *)
  let store = static_cycle_store [ [ "b"; "a" ]; [ "a"; "b" ] ] in
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "ABBA reported once, smallest first"
    [ [ "a"; "b" ] ]
    (cycle_names (Lockdep.analyse store))

let test_abc_cycle_once () =
  (* a→b→c→a, with every rotation reachable as a DFS anchor. *)
  let store =
    static_cycle_store [ [ "a"; "b" ]; [ "b"; "c" ]; [ "c"; "a" ] ]
  in
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "3-class cycle reported once, canonical rotation"
    [ [ "a"; "b"; "c" ] ]
    (cycle_names (Lockdep.analyse store))

let test_reversed_cycle_deduplicated () =
  (* Both traversal directions of the same class set are one scenario. *)
  let store =
    static_cycle_store
      [
        [ "a"; "b" ]; [ "b"; "c" ]; [ "c"; "a" ];
        [ "b"; "a" ]; [ "c"; "b" ]; [ "a"; "c" ];
      ]
  in
  let cycles = cycle_names (Lockdep.analyse store) in
  check Alcotest.int "ABBA pairs + one 3-cycle" 4 (List.length cycles);
  check Alcotest.bool "3-cycle canonical and unique" true
    (List.length (List.filter (fun c -> List.length c = 3) cycles) = 1
    && List.mem [ "a"; "b"; "c" ] cycles)

(* {2 End-to-end: every family, seeded and clean} *)

let perfect name (s : Crossval.score) =
  check Alcotest.int (name ^ " no false positives") 0 s.Crossval.cv_fp;
  check Alcotest.int (name ^ " no misses") 0 s.Crossval.cv_fn

let test_family_seeded name () =
  let r = Sanitize.run ~bugs:true name in
  check Alcotest.bool
    (name ^ " seeded races manifested")
    true
    (List.length r.Sanitize.s_truth.Seeded.t_races > 0);
  check
    (Alcotest.list Alcotest.string)
    (name ^ " seeded irq bug manifested")
    [ "backing_dev_info.wb.work_lock" ]
    r.Sanitize.s_truth.Seeded.t_irq_unsafe;
  perfect (name ^ " races") r.Sanitize.s_crossval.Crossval.races;
  perfect (name ^ " irq") r.Sanitize.s_crossval.Crossval.irq

let test_family_clean name () =
  let r = Sanitize.run ~bugs:false name in
  check Alcotest.int (name ^ " clean trace: no races") 0
    (List.length r.Sanitize.s_races);
  check Alcotest.int (name ^ " clean trace: no irq findings") 0
    (List.length r.Sanitize.s_irq.Irq.i_unsafe
    + List.length r.Sanitize.s_irq.Irq.i_inversions);
  check Alcotest.int (name ^ " clean trace: nothing seeded") 0
    (List.length r.Sanitize.s_truth.Seeded.t_races
    + List.length r.Sanitize.s_truth.Seeded.t_irq_unsafe)

(* {2 Differential: ~jobs:1 vs ~jobs:4 byte-identity on the full report}

   [Sanitize.analyse] ignores [jobs]; this pins that passing it changes
   nothing and that two analyses of one trace agree. *)

let test_differential name () =
  let trace, truth = Run.sanitize_trace ~bugs:true name in
  let report jobs =
    let r =
      Sanitize.analyse ~jobs ~workload:name ~seed:7 ~scale:1 ~bugs:true
        ~truth trace
    in
    Sanitize.render r ^ "\n" ^ Sanitize.to_json r
  in
  check Alcotest.string
    (name ^ " report identical -j {1,4}")
    (report 1) (report 4)

let () =
  let fam f = List.map (fun n -> Alcotest.test_case n `Quick (f n)) in
  Alcotest.run "sanitizer"
    [
      ( "lockset",
        [
          Alcotest.test_case "bare cross-flow write" `Quick
            test_bare_cross_flow_write;
          Alcotest.test_case "single flow clean" `Quick test_single_flow_clean;
          Alcotest.test_case "locked discipline clean" `Quick
            test_locked_discipline_clean;
          Alcotest.test_case "bare-trigger policy" `Quick
            test_empty_candidates_without_bare_trigger;
          Alcotest.test_case "reader side protects reads" `Quick
            test_reader_side_protects_reads;
          Alcotest.test_case "shared-side write is bare" `Quick
            test_shared_write_is_not_protection;
          Alcotest.test_case "rcu read section" `Quick test_rcu_read_section;
          Alcotest.test_case "seqlock read section" `Quick
            test_seqlock_read_section;
          Alcotest.test_case "quiescent stacks exempt" `Quick
            test_quiescent_stack_exempt;
        ] );
      ("irq", [ Alcotest.test_case "context classifier" `Quick test_irq_classifier ]);
      ( "lockdep cycles",
        [
          Alcotest.test_case "ABBA once" `Quick test_abba_cycle_once;
          Alcotest.test_case "ABC once" `Quick test_abc_cycle_once;
          Alcotest.test_case "reversed dedup" `Quick
            test_reversed_cycle_deduplicated;
        ] );
      ("seeded", fam test_family_seeded Run.workload_names);
      ("clean", fam test_family_clean Run.workload_names);
      ("differential", fam test_differential Run.workload_names);
    ]
