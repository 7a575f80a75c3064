(* Tests for the kernel simulator: scheduler semantics, lock-discipline
   enforcement, simulated memory, RCU grace periods, fault sites, source
   coverage and trace determinism. *)

module Event = Lockdoc_trace.Event
module Trace = Lockdoc_trace.Trace
module Kernel = Lockdoc_ksim.Kernel
module Lock = Lockdoc_ksim.Lock
module Memory = Lockdoc_ksim.Memory
module Fault = Lockdoc_ksim.Fault
module Source = Lockdoc_ksim.Source
module Structs = Lockdoc_ksim.Structs
module Run = Lockdoc_ksim.Run
module Clock_example = Lockdoc_ksim.Clock_example

let check = Alcotest.check

let tiny =
  Lockdoc_trace.Layout.make ~name:"tiny"
    [ ("t_a", 8, Lockdoc_trace.Layout.Data);
      ("t_lock", 4, Lockdoc_trace.Layout.Lock) ]

let run_tasks ?config tasks =
  Kernel.run ?config ~layouts:[ tiny ] (fun () ->
      List.iter (fun (name, body) -> Kernel.spawn name body) tasks)

let quiet_config =
  { Kernel.default_config with Kernel.hardirq_rate = 0.; softirq_rate = 0. }

(* {2 Scheduler} *)

let test_determinism () =
  let t1 = Run.quick ~seed:3 () and t2 = Run.quick ~seed:3 () in
  check Alcotest.int "same event count" (Array.length t1.Trace.events)
    (Array.length t2.Trace.events);
  check Alcotest.bool "bitwise identical traces" true
    (Trace.to_lines t1 = Trace.to_lines t2)

let test_seed_changes_schedule () =
  let t1 = Run.quick ~seed:3 () and t2 = Run.quick ~seed:4 () in
  check Alcotest.bool "different seeds differ" true
    (Trace.to_lines t1 <> Trace.to_lines t2)

let test_deadlock_detection () =
  (* AB-BA deadlock depends on interleaving; retry a few seeds until the
     scheduler actually interleaves the two acquisition phases. *)
  let rec hunt seed =
    if seed > 40 then Alcotest.fail "never produced the AB-BA deadlock"
    else
      match
        ignore
          (run_tasks
             ~config:{ quiet_config with Kernel.seed }
             [
               ( "spawner",
                 fun () ->
                   let m1 = Lock.static ~kind:Event.Mutex "dlh_m1" in
                   let m2 = Lock.static ~kind:Event.Mutex "dlh_m2" in
                   Kernel.spawn "a" (fun () ->
                       Lock.mutex_lock m1;
                       Kernel.preempt_point ();
                       Lock.mutex_lock m2;
                       Lock.mutex_unlock m2;
                       Lock.mutex_unlock m1);
                   Kernel.spawn "b" (fun () ->
                       Lock.mutex_lock m2;
                       Kernel.preempt_point ();
                       Lock.mutex_lock m1;
                       Lock.mutex_unlock m1;
                       Lock.mutex_unlock m2) );
             ])
      with
      | () -> hunt (seed + 1)
      | exception Kernel.Deadlock _ -> ()
  in
  hunt 0

let test_blocking_hands_over () =
  (* A mutex held by one task forces the other to wait and then proceed. *)
  let order = ref [] in
  ignore
    (run_tasks ~config:quiet_config
       [
         ( "spawner",
           fun () ->
             let m = Lock.static ~kind:Event.Mutex "handover" in
             Kernel.spawn "first" (fun () ->
                 Lock.mutex_lock m;
                 order := `First_locked :: !order;
                 Kernel.preempt_point ();
                 Kernel.preempt_point ();
                 Lock.mutex_unlock m);
             Kernel.spawn "second" (fun () ->
                 Lock.mutex_lock m;
                 order := `Second_locked :: !order;
                 Lock.mutex_unlock m) );
       ]);
  check Alcotest.int "both ran" 2 (List.length !order)

(* {2 Lock discipline enforcement} *)

let expect_lock_error name body =
  ignore
    (run_tasks ~config:quiet_config
       [
         ( name,
           fun () ->
             (try
                body ();
                Alcotest.fail (name ^ ": expected Lock_error")
              with Lock.Lock_error _ -> ()) );
       ])

let test_recursive_spinlock_rejected () =
  expect_lock_error "recursive spin" (fun () ->
      let l = Lock.static ~kind:Event.Spinlock "rec_spin" in
      Lock.spin_lock l;
      Lock.spin_lock l)

let test_unlock_not_held_rejected () =
  expect_lock_error "stray unlock" (fun () ->
      let l = Lock.static ~kind:Event.Spinlock "stray" in
      Lock.spin_unlock l)

let test_sleep_in_atomic () =
  ignore
    (run_tasks ~config:quiet_config
       [
         ( "sleeper",
           fun () ->
             let s = Lock.static ~kind:Event.Spinlock "atomic_s" in
             let m = Lock.static ~kind:Event.Mutex "atomic_m" in
             Lock.spin_lock s;
             (* Force the mutex to appear contended so mutex_lock blocks. *)
             (try
                Kernel.wait_until "never" (fun () -> false);
                Alcotest.fail "expected Sleep_in_atomic"
              with Kernel.Sleep_in_atomic _ -> ());
             ignore m;
             Lock.spin_unlock s );
       ])

let test_rwsem_semantics () =
  ignore
    (run_tasks ~config:quiet_config
       [
         ( "rw",
           fun () ->
             let l = Lock.static ~kind:Event.Rwsem "rw1" in
             Lock.down_read l;
             Lock.down_read l (* multiple readers fine *);
             Lock.up_read l;
             Lock.up_read l;
             Lock.down_write l;
             Lock.downgrade_write l;
             Lock.up_read l );
       ])

let test_seqlock_retry_on_writer () =
  ignore
    (run_tasks ~config:quiet_config
       [
         ( "seq",
           fun () ->
             let l = Lock.static ~kind:Event.Seqlock "seq1" in
             let runs = ref 0 in
             let v =
               Lock.read_seq_section l (fun () ->
                   incr runs;
                   (* A writer slips in during the first pass only. *)
                   if !runs = 1 then begin
                     Lock.write_seqlock l;
                     Lock.write_sequnlock l
                   end;
                   42)
             in
             check Alcotest.int "value" 42 v;
             check Alcotest.int "one retry" 2 !runs );
       ])

let test_call_rcu_deferred () =
  ignore
    (run_tasks ~config:quiet_config
       [
         ( "rcu",
           fun () ->
             let freed = ref false in
             Lock.rcu_read_lock ();
             Lock.call_rcu (fun () -> freed := true);
             check Alcotest.bool "deferred while reading" false !freed;
             Lock.rcu_read_unlock ();
             check Alcotest.bool "ran at grace period" true !freed;
             (* Without readers the callback runs immediately. *)
             let now = ref false in
             Lock.call_rcu (fun () -> now := true);
             check Alcotest.bool "immediate without readers" true !now );
       ])

(* {2 Memory} *)

let test_memory_read_write () =
  ignore
    (run_tasks ~config:quiet_config
       [
         ( "mem",
           fun () ->
             let inst = Memory.alloc tiny in
             Memory.write inst "t_a" 7;
             check Alcotest.int "read back" 7 (Memory.read inst "t_a");
             Memory.modify inst "t_a" (fun v -> v * 2);
             check Alcotest.int "modify" 14 (Memory.read inst "t_a");
             Memory.free inst );
       ])

let test_memory_use_after_free () =
  ignore
    (run_tasks ~config:quiet_config
       [
         ( "uaf",
           fun () ->
             let inst = Memory.alloc tiny in
             Memory.free inst;
             (try
                ignore (Memory.read inst "t_a");
                Alcotest.fail "expected use-after-free failure"
              with Memory.Use_after_free _ -> ()) );
       ])

let test_memory_lock_member_rejected () =
  ignore
    (run_tasks ~config:quiet_config
       [
         ( "lockmember",
           fun () ->
             let inst = Memory.alloc tiny in
             (try
                ignore (Memory.read inst "t_lock");
                Alcotest.fail "expected Invalid_argument"
              with Invalid_argument _ -> ());
             Memory.free inst );
       ])

let test_memory_address_reuse () =
  ignore
    (run_tasks ~config:quiet_config
       [
         ( "reuse",
           fun () ->
             let a = Memory.alloc tiny in
             let addr = a.Memory.base in
             Memory.free a;
             let b = Memory.alloc tiny in
             check Alcotest.int "freed address reused" addr b.Memory.base;
             Memory.free b );
       ])

(* {2 Fault sites} *)

let test_fault_period () =
  Fault.set_enabled true;
  ignore
    (run_tasks ~config:quiet_config
       [
         ( "fault",
           fun () ->
             Fault.with_period "test_site_period" 3 @@ fun () ->
             let site = Fault.site "test_site_period" in
             let fires = List.init 9 (fun _ -> Fault.fire site) in
             check (Alcotest.list Alcotest.bool) "every third visit"
               [ false; false; true; false; false; true; false; false; true ]
               fires );
       ])

let test_fault_disabled () =
  ignore
    (run_tasks ~config:quiet_config
       [
         ( "fault-off",
           fun () ->
             Fault.with_period "test_site_disabled" 1 @@ fun () ->
             let site = Fault.site "test_site_disabled" in
             Fault.set_enabled false;
             Fun.protect
               ~finally:(fun () -> Fault.set_enabled true)
               (fun () ->
                 check Alcotest.bool "never fires when disabled" false
                   (Fault.fire site)) );
       ])

let test_fault_with_period_restores () =
  let site = Fault.site ~period:7 "test_site_scoped" in
  Fault.with_period "test_site_scoped" 2 (fun () ->
      check Alcotest.int "period overridden" 2
        (List.assoc "test_site_scoped" (Fault.sites ())));
  check Alcotest.int "period restored" 7
    (List.assoc "test_site_scoped" (Fault.sites ()));
  (try
     Fault.with_period "test_site_scoped" 4 (fun () -> failwith "boom")
   with Failure _ -> ());
  check Alcotest.int "period restored on exception" 7
    (List.assoc "test_site_scoped" (Fault.sites ()));
  ignore site

let test_fault_reset () =
  let site = Fault.site ~period:1 "test_site_reset" in
  Fault.set_enabled true;
  check Alcotest.bool "fires before reset" true (Fault.fire site);
  Fault.set_period "test_site_reset" 9;
  Fault.set_enabled false;
  Fault.reset ();
  check Alcotest.int "declared period restored" 1
    (List.assoc "test_site_reset" (Fault.sites ()));
  check Alcotest.int "fired count zeroed" 0
    (List.assoc "test_site_reset" (Fault.fired_counts ()));
  check Alcotest.bool "re-enabled, fires again" true (Fault.fire site);
  Fault.reset ()

(* {2 Source coverage} *)

let test_coverage_accounting () =
  let _, cov =
    Kernel.run ~config:quiet_config ~layouts:[ tiny ] (fun () ->
        Kernel.spawn "covered" (fun () ->
            Kernel.fn_scope ~file:"covdir/one.c" ~span:20 "cov_hot" (fun () -> ())))
  in
  ignore (Source.declare ~file:"covdir/one.c" ~span:30 "cov_cold");
  let reports = Source.report cov ~dirs:[ "covdir" ] in
  let r = List.hd reports in
  check Alcotest.int "two functions declared" 2 r.Source.functions_total;
  check Alcotest.int "one executed" 1 r.Source.functions_covered;
  check Alcotest.int "total lines" 50 r.Source.lines_total;
  check Alcotest.bool "partial line coverage" true
    (r.Source.lines_covered > 0 && r.Source.lines_covered < 50)

(* Re-declaration must be idempotent for an identical signature and loud
   for a conflicting one: silently keeping the first record would skew
   every coverage denominator derived from the registry. *)
let test_declare_mismatch () =
  let fn = Source.declare ~file:"redecl/a.c" ~span:10 "redecl_probe" in
  let again = Source.declare ~file:"redecl/a.c" ~span:10 "redecl_probe" in
  check Alcotest.bool "same record back" true (fn = again);
  let raises f =
    match f () with
    | (_ : Source.fn) -> false
    | exception Invalid_argument _ -> true
  in
  check Alcotest.bool "span mismatch raises" true
    (raises (fun () -> Source.declare ~file:"redecl/a.c" ~span:11 "redecl_probe"));
  check Alcotest.bool "file mismatch raises" true
    (raises (fun () -> Source.declare ~file:"redecl/b.c" ~span:10 "redecl_probe"));
  check Alcotest.bool "original record survives" true
    (Source.find "redecl_probe" = fn)

(* Report edge cases: directory matching is non-recursive (as in the
   paper's Tab. 3), declared-but-never-executed functions count against
   the denominators, and zero-span functions contribute no lines. *)
let test_report_edge_cases () =
  ignore (Source.declare ~file:"edgedir/a.c" ~span:10 "srcedge_top");
  ignore (Source.declare ~file:"edgedir/sub/b.c" ~span:10 "srcedge_nested");
  let zero = Source.declare ~file:"edgezero/z.c" ~span:0 "srcedge_zero" in
  let cov = Source.coverage () in
  (* Nested-dir exclusion: "edgedir" must not swallow "edgedir/sub". *)
  let top = List.hd (Source.report cov ~dirs:[ "edgedir" ]) in
  check Alcotest.int "only direct files counted" 1 top.Source.functions_total;
  check Alcotest.int "nested lines excluded" 10 top.Source.lines_total;
  let nested = List.hd (Source.report cov ~dirs:[ "edgedir/sub" ]) in
  check Alcotest.int "nested dir counted on its own" 1
    nested.Source.functions_total;
  (* Declared but never executed: full denominator, zero numerator. *)
  check Alcotest.int "no functions covered" 0 top.Source.functions_covered;
  check Alcotest.int "no lines covered" 0 top.Source.lines_covered;
  (* Zero-span functions count as functions but contribute no lines,
     entered or not. *)
  Source.mark_enter cov zero;
  let z = List.hd (Source.report cov ~dirs:[ "edgezero" ]) in
  check Alcotest.int "zero-span declared" 1 z.Source.functions_total;
  check Alcotest.int "zero-span entered" 1 z.Source.functions_covered;
  check Alcotest.int "zero-span has no lines" 0 z.Source.lines_total;
  check Alcotest.int "zero-span covers no lines" 0 z.Source.lines_covered

(* {2 Clock example invariants} *)

let test_clock_event_shape () =
  let trace = Clock_example.run () in
  let count pred = Trace.count trace pred in
  let sec_ptr = Lock.ptr Clock_example.sec_lock in
  let min_ptr = Lock.ptr Clock_example.min_lock in
  check Alcotest.int "1001 sec_lock acquisitions"
    1001
    (count (function
      | Event.Lock_acquire { lock_ptr; _ } -> lock_ptr = sec_ptr
      | _ -> false));
  check Alcotest.int "16 min_lock acquisitions (1000/60 carries)" 16
    (count (function
      | Event.Lock_acquire { lock_ptr; _ } -> lock_ptr = min_ptr
      | _ -> false));
  check Alcotest.int "one allocation" 1
    (count (function Event.Alloc _ -> true | _ -> false))

(* {2 IRQ injection} *)

let test_irq_injection_pseudo_locks () =
  (* With aggressive injection rates the trace must contain hardirq and
     softirq pseudo-lock sections, and (Inherit mode) handler accesses
     must see the interrupted task's locks. *)
  let config =
    { Kernel.default_config with
      Kernel.seed = 21; hardirq_rate = 0.2; softirq_rate = 0.2 }
  in
  let run_cfg = { Run.default_config with Run.kernel = config; Run.scale = 1 } in
  let trace, _ = Run.benchmark_mix ~config:run_cfg () in
  let pseudo_acquires =
    Trace.count trace (function
      | Event.Lock_acquire { kind = Event.Pseudo; _ } -> true
      | _ -> false)
  in
  check Alcotest.bool "pseudo-lock sections present" true (pseudo_acquires > 10);
  let irq_switches =
    Trace.count trace (function
      | Event.Ctx_switch { kind = Event.Hardirq; _ }
      | Event.Ctx_switch { kind = Event.Softirq; _ } -> true
      | _ -> false)
  in
  check Alcotest.bool "irq contexts appear" true (irq_switches > 10);
  (* Import in both modes and compare how handlers see task locks. *)
  let store_inh, _ =
    Lockdoc_db.Import.run ~irq_mode:Lockdoc_db.Import.Inherit trace
  in
  let store_sep, _ =
    Lockdoc_db.Import.run ~irq_mode:Lockdoc_db.Import.Separate trace
  in
  let module Store = Lockdoc_db.Store in
  let module Schema = Lockdoc_db.Schema in
  let handler_lock_depth store =
    (* max held-list length over transactions that include a pseudo lock *)
    let deepest = ref 0 in
    for i = 0 to Store.n_txns store - 1 do
      let tx = Store.txn store i in
      let has_pseudo =
        List.exists
          (fun h ->
            (Store.lock store h.Schema.h_lock).Schema.lk_kind = Event.Pseudo)
          tx.Schema.tx_locks
      in
      if has_pseudo then
        deepest := max !deepest (List.length tx.Schema.tx_locks)
    done;
    !deepest
  in
  check Alcotest.bool "inherit sees at least as deep handler lock sets" true
    (handler_lock_depth store_inh >= handler_lock_depth store_sep)

(* {2 Benchmark-mix smoke} *)

let test_benchmark_mix_smoke () =
  let trace = Run.quick ~seed:11 () in
  check Alcotest.bool "produces a substantial trace" true
    (Array.length trace.Trace.events > 10_000);
  (* Balanced lock events overall. *)
  let acquires =
    Trace.count trace (function Event.Lock_acquire _ -> true | _ -> false)
  in
  let releases =
    Trace.count trace (function Event.Lock_release _ -> true | _ -> false)
  in
  check Alcotest.int "acquire/release balance" acquires releases;
  (* Allocation/deallocation bookkeeping never goes negative and frees do
     not exceed allocations. *)
  let allocs = Trace.count trace (function Event.Alloc _ -> true | _ -> false) in
  let frees = Trace.count trace (function Event.Free _ -> true | _ -> false) in
  check Alcotest.bool "frees <= allocs" true (frees <= allocs)

let () =
  Alcotest.run "ksim"
    [
      ( "scheduler",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_changes_schedule;
          Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
          Alcotest.test_case "mutex handover" `Quick test_blocking_hands_over;
        ] );
      ( "locks",
        [
          Alcotest.test_case "recursive spinlock" `Quick test_recursive_spinlock_rejected;
          Alcotest.test_case "stray unlock" `Quick test_unlock_not_held_rejected;
          Alcotest.test_case "sleep in atomic" `Quick test_sleep_in_atomic;
          Alcotest.test_case "rwsem semantics" `Quick test_rwsem_semantics;
          Alcotest.test_case "seqlock retry" `Quick test_seqlock_retry_on_writer;
          Alcotest.test_case "call_rcu grace period" `Quick test_call_rcu_deferred;
        ] );
      ( "memory",
        [
          Alcotest.test_case "read/write" `Quick test_memory_read_write;
          Alcotest.test_case "use after free" `Quick test_memory_use_after_free;
          Alcotest.test_case "lock member" `Quick test_memory_lock_member_rejected;
          Alcotest.test_case "address reuse" `Quick test_memory_address_reuse;
        ] );
      ( "faults",
        [
          Alcotest.test_case "period" `Quick test_fault_period;
          Alcotest.test_case "disabled" `Quick test_fault_disabled;
          Alcotest.test_case "with_period restores" `Quick
            test_fault_with_period_restores;
          Alcotest.test_case "reset" `Quick test_fault_reset;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "accounting" `Quick test_coverage_accounting;
          Alcotest.test_case "re-declaration mismatch" `Quick
            test_declare_mismatch;
          Alcotest.test_case "report edge cases" `Quick test_report_edge_cases;
        ] );
      ( "clock example",
        [ Alcotest.test_case "event shape" `Quick test_clock_event_shape ] );
      ( "irq",
        [
          Alcotest.test_case "injection + pseudo locks" `Slow
            test_irq_injection_pseudo_locks;
        ] );
      ( "benchmark mix",
        [ Alcotest.test_case "smoke" `Slow test_benchmark_mix_smoke ] );
    ]
