(* Tests for the relational trace store and the import pipeline: address
   resolution, transaction reconstruction (including nested and
   out-of-order releases), filtering, and IRQ handling modes. *)

module Srcloc = Lockdoc_trace.Srcloc
module Layout = Lockdoc_trace.Layout
module Event = Lockdoc_trace.Event
module Trace = Lockdoc_trace.Trace
module Schema = Lockdoc_db.Schema
module Store = Lockdoc_db.Store
module Filter = Lockdoc_db.Filter
module Import = Lockdoc_db.Import

let check = Alcotest.check

let loc = Srcloc.make "test.c" 1

(* A small monitored type: two data members, one embedded lock, one
   atomic member. *)
let widget =
  Layout.make ~name:"widget"
    [
      ("w_a", 8, Layout.Data);
      ("w_lock", 4, Layout.Lock);
      ("w_b", 8, Layout.Data);
      ("w_cnt", 4, Layout.Atomic);
    ]

let mk_trace events =
  let sink = Trace.sink () in
  List.iter (Trace.emit sink) events;
  Trace.finish ~layouts:[ widget ] sink

let base = 0x100000

let alloc ?subclass ptr =
  Event.Alloc { ptr; size = widget.Layout.ty_size; data_type = "widget"; subclass }

let acquire ?(kind = Event.Spinlock) ?(name = "L") lock_ptr =
  Event.Lock_acquire { lock_ptr; kind; side = Event.Exclusive; name; loc }

let release lock_ptr = Event.Lock_release { lock_ptr; loc }

let read ptr = Event.Mem_access { ptr; size = 8; kind = Event.Read; loc }
let write ptr = Event.Mem_access { ptr; size = 8; kind = Event.Write; loc }

let import ?filter ?irq_mode events = Import.run ?filter ?irq_mode (mk_trace events)

(* {2 Address resolution} *)

let test_resolution () =
  let store, stats =
    import ~filter:Filter.empty
      [
        Event.Ctx_switch { pid = 1; kind = Event.Task };
        alloc base;
        read base (* w_a at offset 0 *);
        write (base + 12) (* w_b at offset 12 *);
        read (base + 4) (* interior byte of w_a? no: w_a is 0..7; 4 is interior of w_a *);
      ]
  in
  check Alcotest.int "kept all" 3 stats.Import.accesses_kept;
  check Alcotest.int "no unresolved" 0 stats.Import.unresolved;
  let members =
    List.init (Store.n_accesses store) (fun i -> (Store.access store i).Schema.ac_member)
  in
  check (Alcotest.list Alcotest.string) "members" [ "w_a"; "w_b"; "w_a" ] members

let test_unresolved_access () =
  let _, stats =
    import ~filter:Filter.empty
      [
        Event.Ctx_switch { pid = 1; kind = Event.Task };
        alloc base;
        read 0x999999 (* outside any allocation *);
      ]
  in
  check Alcotest.int "unresolved" 1 stats.Import.unresolved;
  check Alcotest.int "kept" 0 stats.Import.accesses_kept

let test_subclass_keys () =
  let store, _ =
    import ~filter:Filter.empty
      [
        Event.Ctx_switch { pid = 1; kind = Event.Task };
        alloc ~subclass:"ext4" base;
        read base;
        alloc (base + 0x100);
        read (base + 0x100);
      ]
  in
  check (Alcotest.list Alcotest.string) "type keys" [ "widget"; "widget:ext4" ]
    (Store.type_keys store)

let test_address_reuse () =
  (* Freeing and reallocating the same address must attribute accesses to
     the right allocation generation. *)
  let store, stats =
    import ~filter:Filter.empty
      [
        Event.Ctx_switch { pid = 1; kind = Event.Task };
        alloc base;
        read base;
        Event.Free { ptr = base };
        alloc ~subclass:"gen2" base;
        read base;
      ]
  in
  check Alcotest.int "two allocations" 2 (Store.n_allocations store);
  check Alcotest.int "kept" 2 stats.Import.accesses_kept;
  let a0 = Store.access store 0 and a1 = Store.access store 1 in
  check Alcotest.bool "different allocations" true
    (a0.Schema.ac_alloc <> a1.Schema.ac_alloc);
  check (Alcotest.option Alcotest.int) "first freed" (Some 3)
    (Store.allocation store a0.Schema.ac_alloc).Schema.al_end

(* Offsets past the importer's dense offset table (64 KiB) resolve by
   scanning the layout, like [Layout.member_at]. *)
let test_oversized_member () =
  let big =
    Layout.make ~name:"big"
      [ ("head", 8, Layout.Data); ("blob", 1 lsl 17, Layout.Data); ("tail", 8, Layout.Data) ]
  in
  let sink = Trace.sink () in
  List.iter (Trace.emit sink)
    [
      Event.Ctx_switch { pid = 1; kind = Event.Task };
      Event.Alloc { ptr = base; size = big.Layout.ty_size + 8; data_type = "big"; subclass = None };
      read (base + 100);
      read (base + 100_000);
      read (base + 8 + (1 lsl 17));
      read (base + big.Layout.ty_size);
    ];
  let store, stats =
    Import.run ~filter:Filter.empty (Trace.finish ~layouts:[ big ] sink)
  in
  check Alcotest.int "past the last member" 1 stats.Import.unresolved;
  check (Alcotest.list Alcotest.string) "members" [ "blob"; "blob"; "tail" ]
    (List.init (Store.n_accesses store) (fun i -> (Store.access store i).Schema.ac_member))

(* {2 Transaction reconstruction} *)

let lock1 = 0x10
let lock2 = 0x20

let txn_locks store id =
  (Store.txn store id).Schema.tx_locks
  |> List.map (fun h -> (Store.lock store h.Schema.h_lock).Schema.lk_name)

let access_txn store i = (Store.access store i).Schema.ac_txn

let test_nested_txn_resumes () =
  (* Accesses after the inner release must resume the outer transaction
     (paper Sec. 4.2). *)
  let store, _ =
    import ~filter:Filter.empty
      [
        Event.Ctx_switch { pid = 1; kind = Event.Task };
        alloc base;
        acquire ~name:"outer" lock1;
        read base (* txn A *);
        acquire ~name:"inner" lock2;
        read base (* txn B *);
        release lock2;
        read base (* back to txn A *);
        release lock1;
        read base (* no txn *);
      ]
  in
  let t0 = access_txn store 0 and t1 = access_txn store 1 in
  let t2 = access_txn store 2 and t3 = access_txn store 3 in
  check Alcotest.bool "A and B differ" true (t0 <> t1);
  check Alcotest.bool "outer resumed" true (t0 = t2);
  check (Alcotest.option Alcotest.int) "outside any txn" None t3;
  (match t1 with
  | Some b ->
      check (Alcotest.list Alcotest.string) "inner txn locks"
        [ "outer"; "inner" ] (txn_locks store b)
  | None -> Alcotest.fail "inner access had no transaction")

let test_out_of_order_release () =
  (* Hand-over-hand: release the first lock while the second is held. *)
  let store, stats =
    import ~filter:Filter.empty
      [
        Event.Ctx_switch { pid = 1; kind = Event.Task };
        alloc base;
        acquire ~name:"a" lock1;
        acquire ~name:"b" lock2;
        release lock1;
        read base (* held: [b] *);
        release lock2;
      ]
  in
  check Alcotest.int "no unbalanced" 0 stats.Import.unbalanced_releases;
  match access_txn store 0 with
  | Some t ->
      check (Alcotest.list Alcotest.string) "only b remains" [ "b" ]
        (txn_locks store t)
  | None -> Alcotest.fail "access lost its transaction"

let test_unbalanced_release () =
  let _, stats =
    import ~filter:Filter.empty
      [
        Event.Ctx_switch { pid = 1; kind = Event.Task };
        acquire ~name:"a" lock1;
        release lock1;
        release lock1;
      ]
  in
  check Alcotest.int "unbalanced counted" 1 stats.Import.unbalanced_releases

let test_per_context_lock_state () =
  (* Two tasks interleave; their held sets must not leak into each other. *)
  let store, _ =
    import ~filter:Filter.empty
      [
        alloc base;
        Event.Ctx_switch { pid = 1; kind = Event.Task };
        acquire ~name:"a" lock1;
        Event.Ctx_switch { pid = 2; kind = Event.Task };
        read base (* task 2 holds nothing *);
        Event.Ctx_switch { pid = 1; kind = Event.Task };
        read base (* task 1 holds a *);
        release lock1;
      ]
  in
  check (Alcotest.option Alcotest.int) "task 2 lock-free" None (access_txn store 0);
  check Alcotest.bool "task 1 in txn" true (access_txn store 1 <> None)

let test_embedded_lock_parent () =
  let store, _ =
    import ~filter:Filter.empty
      [
        Event.Ctx_switch { pid = 1; kind = Event.Task };
        alloc base;
        acquire ~name:"w_lock" (base + 8) (* embedded at offset 8 *);
        write base;
        release (base + 8);
      ]
  in
  let lk = Store.lock store 0 in
  (match lk.Schema.lk_parent with
  | Some (al, member) ->
      check Alcotest.int "parent allocation" 0 al;
      check Alcotest.string "parent member" "w_lock" member
  | None -> Alcotest.fail "lock not recognised as embedded");
  let _, stats2 =
    import ~filter:Filter.empty
      [ Event.Ctx_switch { pid = 1; kind = Event.Task };
        acquire ~name:"global" 0x4000; release 0x4000 ]
  in
  check Alcotest.int "static lock" 1 stats2.Import.locks_static

(* {2 Filtering} *)

let test_filter_fn_blacklist () =
  let filter = { Filter.empty with Filter.fn_blacklist = [ "init_fn" ] } in
  let _, stats =
    import ~filter
      [
        Event.Ctx_switch { pid = 1; kind = Event.Task };
        alloc base;
        Event.Fun_enter { fn = "init_fn"; loc };
        Event.Fun_enter { fn = "helper"; loc };
        write base (* dropped: init_fn is on the stack *);
        Event.Fun_exit { fn = "helper" };
        Event.Fun_exit { fn = "init_fn" };
        write base (* kept *);
      ]
  in
  check Alcotest.int "one dropped" 1 stats.Import.filtered_fn;
  check Alcotest.int "one kept" 1 stats.Import.accesses_kept

let test_filter_kinds () =
  let filter =
    { Filter.empty with Filter.drop_lock_members = true; drop_atomic_members = true }
  in
  let _, stats =
    import ~filter
      [
        Event.Ctx_switch { pid = 1; kind = Event.Task };
        alloc base;
        write (base + 8) (* w_lock *);
        write (base + 20) (* w_cnt, atomic *);
        write base (* w_a, kept *);
      ]
  in
  check Alcotest.int "kind-filtered" 2 stats.Import.filtered_kind;
  check Alcotest.int "kept" 1 stats.Import.accesses_kept

let test_filter_member_blacklist () =
  let filter =
    { Filter.empty with Filter.member_blacklist = [ ("widget", "w_b") ] }
  in
  let _, stats =
    import ~filter
      [
        Event.Ctx_switch { pid = 1; kind = Event.Task };
        alloc base;
        write (base + 12) (* w_b, black-listed *);
        write base;
      ]
  in
  check Alcotest.int "member-filtered" 1 stats.Import.filtered_member;
  check Alcotest.int "kept" 1 stats.Import.accesses_kept

let test_stack_recorded () =
  let store, _ =
    import ~filter:Filter.empty
      [
        Event.Ctx_switch { pid = 1; kind = Event.Task };
        alloc base;
        Event.Fun_enter { fn = "outer"; loc };
        Event.Fun_enter { fn = "inner"; loc };
        write base;
        Event.Fun_exit { fn = "inner" };
        Event.Fun_exit { fn = "outer" };
      ]
  in
  let a = Store.access store 0 in
  check (Alcotest.list Alcotest.string) "stack innermost-first"
    [ "inner"; "outer" ]
    (Store.stack store a.Schema.ac_stack)

(* {2 IRQ handling modes} *)

let irq_events =
  [
    Event.Ctx_switch { pid = 1; kind = Event.Task };
    alloc base;
    acquire ~name:"task_lock" lock1;
    Event.Ctx_switch { pid = 1001; kind = Event.Hardirq };
    acquire ~kind:Event.Pseudo ~name:"hardirq" 0x5;
    read base;
    release 0x5;
    Event.Ctx_switch { pid = 1; kind = Event.Task };
    release lock1;
  ]

let test_irq_inherit () =
  let store, _ = Import.run ~filter:Filter.empty ~irq_mode:Import.Inherit (mk_trace irq_events) in
  match (Store.access store 0).Schema.ac_txn with
  | Some t ->
      check (Alcotest.list Alcotest.string) "handler sees task lock + pseudo"
        [ "task_lock"; "hardirq" ] (txn_locks store t)
  | None -> Alcotest.fail "handler access lost its transaction"

let test_irq_separate () =
  let store, _ = Import.run ~filter:Filter.empty ~irq_mode:Import.Separate (mk_trace irq_events) in
  match (Store.access store 0).Schema.ac_txn with
  | Some t ->
      check (Alcotest.list Alcotest.string) "handler sees only the pseudo lock"
        [ "hardirq" ] (txn_locks store t)
  | None -> Alcotest.fail "handler access lost its transaction"

(* {2 CSV export/import} *)

let test_csv_roundtrip () =
  let store, _ =
    import ~filter:Filter.empty
      [
        Event.Ctx_switch { pid = 1; kind = Event.Task };
        alloc ~subclass:"ext4" base;
        acquire ~name:"w_lock" (base + 8);
        write base;
        Event.Fun_enter { fn = "writer"; loc };
        read (base + 12);
        Event.Fun_exit { fn = "writer" };
        release (base + 8);
        Event.Free { ptr = base };
      ]
  in
  let dir = Filename.temp_file "lockdoc_csv" "" in
  Sys.remove dir;
  let back = Lockdoc_db.Csv.import ~dir:(Lockdoc_db.Csv.export ~dir store; dir) in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f ->
          let p = Filename.concat dir f in
          if Sys.file_exists p then Sys.remove p)
        Lockdoc_db.Csv.files;
      if Sys.file_exists dir then Sys.rmdir dir)
    (fun () ->
      check Alcotest.int "accesses survive" (Store.n_accesses store)
        (Store.n_accesses back);
      check Alcotest.int "txns survive" (Store.n_txns store) (Store.n_txns back);
      check Alcotest.int "locks survive" (Store.n_locks store) (Store.n_locks back);
      check Alcotest.int "allocations survive" (Store.n_allocations store)
        (Store.n_allocations back);
      check (Alcotest.list Alcotest.string) "type keys survive"
        (Store.type_keys store) (Store.type_keys back);
      (* Row-level fidelity for the access table. *)
      for i = 0 to Store.n_accesses store - 1 do
        let a = Store.access store i and b = Store.access back i in
        check Alcotest.string "member" a.Schema.ac_member b.Schema.ac_member;
        check (Alcotest.option Alcotest.int) "txn" a.Schema.ac_txn b.Schema.ac_txn;
        check (Alcotest.list Alcotest.string) "stack"
          (Store.stack store a.Schema.ac_stack)
          (Store.stack back b.Schema.ac_stack)
      done;
      (* The analysis gives identical answers on the reloaded store. *)
      let mined s =
        Lockdoc_core.Derivator.derive_all (Lockdoc_core.Dataset.of_store s)
        |> List.map (fun m ->
               ( m.Lockdoc_core.Derivator.m_member,
                 Lockdoc_core.Rule.to_string m.Lockdoc_core.Derivator.m_winner ))
      in
      check
        (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
        "identical mined rules" (mined store) (mined back))

(* {2 Store misc} *)

let test_stack_interning () =
  let store = Store.create () in
  let a = Store.intern_stack store [ "f"; "g" ] in
  let b = Store.intern_stack store [ "f"; "g" ] in
  let c = Store.intern_stack store [ "g"; "f" ] in
  check Alcotest.int "same stack same id" a b;
  check Alcotest.bool "different stack new id" true (a <> c)

let test_layout_of_key () =
  let store, _ =
    import ~filter:Filter.empty
      [ Event.Ctx_switch { pid = 1; kind = Event.Task };
        alloc ~subclass:"x" base; read base ]
  in
  (match Store.layout_of_key store "widget:x" with
  | Some l -> check Alcotest.string "layout found" "widget" l.Layout.ty_name
  | None -> Alcotest.fail "subclassed key did not resolve")

(* {2 Anomaly recovery} *)

let task = Event.Ctx_switch { pid = 1; kind = Event.Task }

let lenient events = Import.run ~mode:Import.Lenient (mk_trace events)

let test_lenient_double_free () =
  let _, stats =
    lenient [ task; alloc base; Event.Free { ptr = base }; Event.Free { ptr = base } ]
  in
  check Alcotest.int "double free" 1 stats.Import.anomalies.Import.an_double_free;
  check Alcotest.int "total" 1 (Import.anomaly_total stats)

let test_lenient_free_without_alloc () =
  let _, stats = lenient [ task; Event.Free { ptr = 0x4242 } ] in
  check Alcotest.int "free without alloc" 1
    stats.Import.anomalies.Import.an_free_without_alloc

let test_lenient_access_after_free () =
  let _, stats =
    lenient [ task; alloc base; Event.Free { ptr = base }; read (base + 4) ]
  in
  check Alcotest.int "access after free" 1
    stats.Import.anomalies.Import.an_access_after_free;
  (* Recovery: the access also counts as unresolved, like any access
     outside a live allocation. *)
  check Alcotest.int "still unresolved" 1 stats.Import.unresolved

let test_lenient_acquire_on_freed () =
  let _, stats =
    lenient
      [ task; alloc base; Event.Free { ptr = base }; acquire (base + 8);
        release (base + 8) ]
  in
  check Alcotest.int "acquire on freed" 1
    stats.Import.anomalies.Import.an_acquire_on_freed

let test_lenient_unknown_data_type () =
  let _, stats =
    lenient
      [ task;
        Event.Alloc { ptr = 0x5000; size = 8; data_type = "mystery"; subclass = None };
        Event.Free { ptr = 0x5000 } ]
  in
  check Alcotest.int "unknown type" 1
    stats.Import.anomalies.Import.an_unknown_data_type;
  (* The skipped allocation makes its free dangle; that is a second,
     distinct anomaly. *)
  check Alcotest.int "free dangles" 1
    stats.Import.anomalies.Import.an_free_without_alloc

let test_lenient_flow_conflict () =
  let _, stats =
    lenient
      [ task; Event.Ctx_switch { pid = 1; kind = Event.Softirq }; task ]
  in
  check Alcotest.int "flow conflict" 1
    stats.Import.anomalies.Import.an_flow_conflict

let test_lenient_unclosed_txn () =
  let store, stats = lenient [ task; acquire 0x50; write base ] in
  check Alcotest.int "unclosed" 1 stats.Import.anomalies.Import.an_unclosed_txns;
  (* Flushed, not dropped: the transaction row exists. *)
  check Alcotest.bool "txn flushed" true (Store.n_txns store > 0)

let test_strict_raises_on_fatal () =
  let events = [ task; alloc base; Event.Free { ptr = base }; Event.Free { ptr = base } ] in
  match Import.run ~mode:Import.Strict (mk_trace events) with
  | _ -> Alcotest.fail "strict mode accepted a double free"
  | exception Trace.Invalid d ->
      check Alcotest.string "kind" "double-free"
        (Lockdoc_trace.Diag.kind_to_string d.Lockdoc_trace.Diag.d_kind)

let test_modes_agree_on_clean_trace () =
  let trace = Lockdoc_ksim.Run.quick ~seed:3 () in
  let _, strict = Import.run ~mode:Import.Strict trace in
  let _, len = Import.run ~mode:Import.Lenient trace in
  check Alcotest.bool "stats identical" true (strict = len);
  check Alcotest.int "no anomalies" 0 (Import.anomaly_total strict);
  (* A clean trace's stats render without any anomaly section. *)
  let rendered = Format.asprintf "%a" Import.pp_stats strict in
  check Alcotest.bool "no anomaly lines" false
    (String.split_on_char '\n' rendered
    |> List.exists (fun l ->
           String.length l >= 9 && String.sub l 0 9 = "anomalies"))

(* {2 Import-output goldens}

   MD5 of the full CSV export (every table, stacks and txns included)
   of each workload family at seed 3 under both IRQ modes, plus one
   corrupted trace imported leniently. The family traces carry no
   interrupts, so the scale-1 benchmark mix at seed 3 is pinned too:
   its interrupt handlers make the two IRQ modes differ. The
   digests were taken from the importer before its hot path was made
   flat; any change to row order, ids, stacks or transactions shows up
   here. Never regenerate them to make this test pass.

   The simulator numbers a function's source lines when the function
   is first declared, so a trace's locations depend on which
   simulations ran earlier in the process. All golden traces are
   therefore built together, in a fixed order, and this group runs
   first in the suite. *)

let golden_traces =
  lazy
    (let plain =
       List.map
         (fun name -> (name, Lockdoc_ksim.Run.workload_trace ~seed:3 name))
         Lockdoc_ksim.Run.workload_names
     in
     let mix =
       let config =
         {
           Lockdoc_ksim.Run.default_config with
           kernel = { Lockdoc_ksim.Kernel.default_config with seed = 3 };
           scale = 1;
         }
       in
       fst (Lockdoc_ksim.Run.benchmark_mix ~config ())
     in
     plain @ [ ("mix", mix) ])

let export_digest store =
  let dir = Filename.temp_file "lockdoc_golden" "" in
  Sys.remove dir;
  Lockdoc_db.Csv.export ~dir store;
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> Sys.remove (Filename.concat dir f)) Lockdoc_db.Csv.files;
      Sys.rmdir dir)
    (fun () ->
      Lockdoc_db.Csv.files
      |> List.map (fun f ->
             f ^ "\n"
             ^ In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all)
      |> String.concat "" |> Digest.string |> Digest.to_hex)

let golden_digests =
  [
    ("fs_bench/inherit", "006d59a6010f5f17687bb372a8a5656a");
    ("fs_bench/separate", "006d59a6010f5f17687bb372a8a5656a");
    ("fsstress/inherit", "fa7a8d86bf861aeb4589f97629db16c0");
    ("fsstress/separate", "fa7a8d86bf861aeb4589f97629db16c0");
    ("fs_inod/inherit", "2b5913378bcc49901d27e98c869dab94");
    ("fs_inod/separate", "2b5913378bcc49901d27e98c869dab94");
    ("pipe/inherit", "f3017099155dd8898c9bd2d54e236134");
    ("pipe/separate", "f3017099155dd8898c9bd2d54e236134");
    ("symlink/inherit", "354884cd9947f783bf493e244a6f6f08");
    ("symlink/separate", "354884cd9947f783bf493e244a6f6f08");
    ("device/inherit", "e095e5d52b2b22be0865dc8700a77fbf");
    ("device/separate", "e095e5d52b2b22be0865dc8700a77fbf");
    ("mix/inherit", "1c090bff2c7c1625c389d198ab5248ab");
    ("mix/separate", "5adb22aa6a26efe9fc2fb689894e7c2e");
  ]

let test_golden_digests () =
  let got =
    List.concat_map
      (fun (name, trace) ->
        List.map
          (fun (mode_name, irq_mode) ->
            let store, _ = Import.run ~irq_mode trace in
            (name ^ "/" ^ mode_name, export_digest store))
          [ ("inherit", Import.Inherit); ("separate", Import.Separate) ])
      (Lazy.force golden_traces)
  in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "export digests" golden_digests got

(* fs_bench at seed 3 damaged by [Corrupt.corrupt ~seed:9], which
   triggers five of the importer's anomaly classes. *)
let golden_corrupt_digest = "387623fef5c56af0d1344dfd422fd2de"

let test_golden_corrupt () =
  let lines = Trace.to_lines (List.assoc "fs_bench" (Lazy.force golden_traces)) in
  let lines, _ = Lockdoc_trace.Corrupt.corrupt ~seed:9 lines in
  let trace, _ = Trace.read_lines ~mode:Trace.Lenient lines in
  let store, stats = Import.run ~mode:Import.Lenient trace in
  check Alcotest.string "export digest" golden_corrupt_digest (export_digest store);
  check Alcotest.int "unbalanced releases" 1 stats.Import.unbalanced_releases;
  check Alcotest.bool "anomaly counts"
    true
    (stats.Import.anomalies
    = {
        Import.no_anomalies with
        Import.an_double_free = 1;
        an_access_after_free = 61;
        an_acquire_on_freed = 1;
        an_unclosed_txns = 2;
      })

(* {2 Per-flow caches}

   The importer keeps, per call-stack trie node, the function-blacklist
   verdict and the interned stack id of its stack, and per flow the
   held-lock stack newest first. These traces drive each across the
   events that must change what an access sees. *)

let enter fn = Event.Fun_enter { fn; loc }
let leave fn = Event.Fun_exit { fn }
let stack_id store i = (Store.access store i).Schema.ac_stack
let stack_of store i = Store.stack store (stack_id store i)

let test_cache_blacklisted_frame () =
  let filter = { Filter.empty with Filter.fn_blacklist = [ "init_fn" ] } in
  let store, stats =
    import ~filter
      [
        task;
        alloc base;
        enter "outer";
        write base (* kept: [outer] *);
        enter "init_fn";
        write base (* filtered *);
        enter "helper";
        write base (* filtered: init_fn is still below *);
        leave "helper";
        leave "init_fn";
        write base (* kept: back to [outer] *);
        enter "helper";
        write base (* kept: [helper; outer] *);
        leave "helper";
        write base (* kept: [outer] *);
      ]
  in
  check Alcotest.int "filtered under init_fn" 2 stats.Import.filtered_fn;
  check Alcotest.int "kept" 4 stats.Import.accesses_kept;
  check (Alcotest.list Alcotest.string) "shorter stack after exit" [ "outer" ]
    (stack_of store 1);
  check Alcotest.int "same id as before the blacklisted frame"
    (stack_id store 0) (stack_id store 1);
  check (Alcotest.list Alcotest.string) "deeper stack" [ "helper"; "outer" ]
    (stack_of store 2);
  check Alcotest.int "back again" (stack_id store 0) (stack_id store 3);
  check Alcotest.int "two stacks interned" 2 (Store.n_stacks store)

let cache_irq_events =
  [
    task;
    alloc base;
    enter "task_fn";
    acquire ~name:"task_lock" lock1;
    write base (* 0: task txn, [task_fn] *);
    Event.Ctx_switch { pid = 1001; kind = Event.Hardirq };
    read base (* 1: handler, no frames *);
    enter "irq_fn";
    read base (* 2: [irq_fn] *);
    Event.Ctx_switch { pid = 1; kind = Event.Task };
    write base (* 3: task again *);
    release lock1;
    write base (* 4: no txn *);
  ]

let test_cache_irq_switch () =
  let store, _ =
    Import.run ~filter:Filter.empty ~irq_mode:Import.Inherit (mk_trace cache_irq_events)
  in
  let txn i = access_txn store i in
  check Alcotest.bool "task access in a txn" true (txn 0 <> None);
  check (Alcotest.option Alcotest.int) "handler sees the interrupted txn" (txn 0)
    (txn 1);
  check (Alcotest.list Alcotest.string) "handler starts with no frames" []
    (stack_of store 1);
  check (Alcotest.list Alcotest.string) "handler frame" [ "irq_fn" ]
    (stack_of store 2);
  check (Alcotest.option Alcotest.int) "task txn after the switch back" (txn 0)
    (txn 3);
  check Alcotest.int "task stack id after the switch back" (stack_id store 0)
    (stack_id store 3);
  check (Alcotest.option Alcotest.int) "released" None (txn 4);
  let store, _ =
    Import.run ~filter:Filter.empty ~irq_mode:Import.Separate (mk_trace cache_irq_events)
  in
  check (Alcotest.option Alcotest.int) "separate handler: no txn" None
    (access_txn store 1);
  check (Alcotest.option Alcotest.int) "separate: task txn kept"
    (access_txn store 0) (access_txn store 3)

let test_cache_out_of_order_release () =
  let lock3 = 0x30 in
  let store, stats =
    import ~filter:Filter.empty
      [
        task;
        alloc base;
        acquire ~name:"A" lock1;
        acquire ~name:"B" lock2;
        acquire ~name:"C" lock3;
        read base (* A B C *);
        release lock1 (* out of order: B and C reopen *);
        read base (* B C *);
        release lock3;
        read base (* B, the rebuilt txn *);
        acquire ~name:"A" lock1;
        read base (* B A *);
        release lock2 (* out of order again: A reopens *);
        read base (* A *);
        release lock1;
        read base (* none *);
      ]
  in
  check Alcotest.int "balanced" 0 stats.Import.unbalanced_releases;
  let locks i = Option.map (txn_locks store) (access_txn store i) in
  check
    (Alcotest.list (Alcotest.option (Alcotest.list Alcotest.string)))
    "current txn after each release"
    [
      Some [ "A"; "B"; "C" ];
      Some [ "B"; "C" ];
      Some [ "B" ];
      Some [ "B"; "A" ];
      Some [ "A" ];
      None;
    ]
    (List.init 6 locks);
  check Alcotest.bool "resumed txn is the rebuilt one" true
    (access_txn store 2 <> access_txn store 0)

(* A checkpoint marshals the engine mid-flow; the resumed engine must
   produce the rows of an uninterrupted import, caches included. Every
   split point of the hand-built traces, and a few of the scale-1 mix. *)
let resumed_digest ?irq_mode ~filter trace split =
  let g = Import.engine ~filter ?irq_mode trace.Trace.layouts in
  Array.iteri (fun i ev -> if i < split then Import.feed g ev) trace.Trace.events;
  let g : Import.engine = Marshal.from_string (Marshal.to_string g []) 0 in
  Array.iteri (fun i ev -> if i >= split then Import.feed g ev) trace.Trace.events;
  ignore (Import.finalize g);
  export_digest (Import.engine_store g)

let test_cache_checkpoint_resume () =
  let check_splits ~name ?irq_mode ~filter trace splits =
    let store, _ = Import.run ~filter ?irq_mode trace in
    let whole = export_digest store in
    List.iter
      (fun split ->
        check Alcotest.string
          (Printf.sprintf "%s: resumed at %d" name split)
          whole
          (resumed_digest ?irq_mode ~filter trace split))
      splits
  in
  let hand = mk_trace (cache_irq_events @ [ enter "init_fn"; write base; leave "init_fn"; write base ]) in
  let all n = List.init (n + 1) Fun.id in
  check_splits ~name:"hand-built"
    ~filter:{ Filter.empty with Filter.fn_blacklist = [ "init_fn" ] }
    hand
    (all (Array.length hand.Trace.events));
  let mix = List.assoc "mix" (Lazy.force golden_traces) in
  let n = Array.length mix.Trace.events in
  List.iter
    (fun irq_mode ->
      check_splits ~name:"mix" ~irq_mode ~filter:Filter.default mix
        (List.init 5 (fun i -> (i + 1) * n / 6)))
    [ Import.Inherit; Import.Separate ]

(* {2 Call-stack trie}

   The importer keeps one call-stack trie per engine in place of a
   frame list per flow. [list_model] is the list semantics it replaces:
   each flow's frames, innermost first; an exit pops up to and
   including the innermost frame of its name, or everything when no
   frame has it; an irq flow starts empty; an access is dropped when
   any frame is blacklisted; stack ids go to distinct frame lists in
   order of first kept access. It returns the kept accesses' (frames,
   id) pairs in order and the number dropped. *)
let list_model ~blacklist events =
  let flows = Hashtbl.create 8 in
  let cur = ref (ref []) in
  Hashtbl.replace flows 0 !cur;
  let ids = ref [] and kept = ref [] and dropped = ref 0 in
  List.iter
    (function
      | Event.Ctx_switch { pid; kind = Event.Task } ->
          (match Hashtbl.find_opt flows pid with
          | Some f -> cur := f
          | None ->
              cur := ref [];
              Hashtbl.replace flows pid !cur)
      | Event.Ctx_switch _ -> cur := ref []
      | Event.Fun_enter { fn; _ } -> !cur := fn :: !(!cur)
      | Event.Fun_exit { fn } ->
          let rec pop = function
            | [] -> []
            | f :: rest -> if f = fn then rest else pop rest
          in
          !cur := pop !(!cur)
      | Event.Mem_access _ ->
          let frames = !(!cur) in
          if List.exists (fun f -> List.mem f blacklist) frames then incr dropped
          else begin
            let id =
              match List.assoc_opt frames !ids with
              | Some id -> id
              | None ->
                  let id = List.length !ids in
                  ids := (frames, id) :: !ids;
                  id
            in
            kept := (frames, id) :: !kept
          end
      | _ -> ())
    events;
  (List.rev !kept, !dropped)

let test_trie_list_semantics () =
  let blacklist = [ "init_fn" ] in
  let events =
    [
      task;
      alloc base;
      enter "a";
      enter "b";
      write base (* 0: [b; a] *);
      leave "zzz";
      write base (* 1: an exit of a function not on the stack empties it *);
      enter "a";
      enter "b";
      enter "c";
      write base (* 2: [c; b; a] *);
      leave "b";
      write base (* 3: the exit of b pops c and b *);
      Event.Ctx_switch { pid = 1001; kind = Event.Hardirq };
      write base (* 4: the irq flow starts with an empty stack *);
      enter "irq_fn";
      write base (* 5: [irq_fn] *);
      task;
      enter "init_fn";
      enter "helper";
      write base (* dropped: init_fn below the top *);
      leave "helper";
      write base (* dropped: [init_fn; a] *);
      leave "init_fn";
      enter "x";
      enter "y";
      write base (* 6: [y; x; a] in flow 1 *);
      Event.Ctx_switch { pid = 2; kind = Event.Task };
      enter "a";
      enter "x";
      enter "y";
      write base (* 7: [y; x; a] in flow 2 *);
    ]
  in
  let store, stats =
    import ~filter:{ Filter.empty with Filter.fn_blacklist = blacklist } events
  in
  let kept, dropped = list_model ~blacklist events in
  check Alcotest.int "dropped as the lists drop" dropped stats.Import.filtered_fn;
  check
    (Alcotest.list (Alcotest.pair (Alcotest.list Alcotest.string) Alcotest.int))
    "frames and ids as the lists give them" kept
    (List.init (Store.n_accesses store) (fun i -> (stack_of store i, stack_id store i)));
  check (Alcotest.list Alcotest.string) "exit of a missing function" []
    (stack_of store 1);
  check (Alcotest.list Alcotest.string) "exit popping two frames" [ "a" ]
    (stack_of store 3);
  check (Alcotest.list Alcotest.string) "irq flow starts empty" [] (stack_of store 4);
  check Alcotest.int "blacklisted frame below the top" 2 stats.Import.filtered_fn;
  check Alcotest.int "one stack from two flows, one id" (stack_id store 6)
    (stack_id store 7);
  check Alcotest.int "empty stack interned once" (stack_id store 1) (stack_id store 4)

(* {2 Allocation budget}

   Import and the observation fold allocate little per trace event: the
   access table is columns, the call stacks a trie, and the lookups of
   live and freed allocations allocate nothing. Minor-heap words per
   event over the pinned scale-1 mix (seed 3). Rows kept as records,
   frame lists and a [Map] floor query took 13.3 words per event to
   import this trace and 4.9 to fold it; columns take 5.0 and 4.1. *)
let test_alloc_budget () =
  let mix = List.assoc "mix" (Lazy.force golden_traces) in
  let n = float (Array.length mix.Trace.events) in
  let per_event f =
    let w0 = Gc.minor_words () in
    let r = f () in
    (r, (Gc.minor_words () -. w0) /. n)
  in
  let (store, _), import_w = per_event (fun () -> Import.run mix) in
  let _, fold_w = per_event (fun () -> Lockdoc_core.Dataset.of_store store) in
  check Alcotest.bool
    (Printf.sprintf "Import.run: %.2f words/event <= 7" import_w)
    true (import_w <= 7.);
  check Alcotest.bool
    (Printf.sprintf "Dataset.of_store: %.2f words/event <= 4.5" fold_w)
    true (fold_w <= 4.5)

(* {2 Resolve-once lookups}

   The store resolves each allocation's type key once, and the fold
   reuses a transaction's classified locks for every cell of one
   allocation. These fixtures put those shortcuts where they could go
   wrong (interleaved allocations, subclass keys, a reused address), and
   the results are checked against a fresh resolution: each access
   against its allocation's lifetime, the fold against the brute-force
   fold of test/oracle.ml. *)

module Dataset = Lockdoc_core.Dataset
module Rule = Lockdoc_core.Rule
module Lockdesc = Lockdoc_core.Lockdesc

let kind_str = function Rule.R -> "r" | Rule.W -> "w"

let sorted_combos combos =
  List.sort compare
    (List.map (fun (locks, n) -> (List.map Lockdesc.to_string locks, n)) combos)

(* Cells (per type key, in first-access order), groups with their
   multisets, and write-over-read flips: the fold against the oracle's,
   under every (wor, side_sensitive) setting. *)
let check_fold_matches_oracle name store =
  List.iter
    (fun (wor, side_sensitive) ->
      let id what = Printf.sprintf "%s wor=%b side=%b: %s" name wor side_sensitive what in
      let ds = Dataset.of_store ~wor ~side_sensitive store in
      let oracle = Oracle.fold ~wor ~side_sensitive store in
      let keys = List.sort_uniq compare (List.map (fun o -> o.Oracle.ty) oracle) in
      check (Alcotest.list Alcotest.string) (id "type keys") keys (Dataset.type_keys ds);
      let cell m k locks first events =
        Printf.sprintf "%s/%s [%s] first=%d events=%d" m (kind_str k)
          (String.concat "; " (List.map Lockdesc.to_string locks))
          first events
      in
      List.iter
        (fun ty ->
          check (Alcotest.list Alcotest.string) (id ("cells of " ^ ty))
            (List.filter_map
               (fun o ->
                 if o.Oracle.ty = ty then
                   Some (cell o.Oracle.member o.Oracle.kind o.Oracle.locks
                           o.Oracle.first o.Oracle.events)
                 else None)
               oracle)
            (List.map
               (fun (o : Dataset.obs) ->
                 let _, m, k = Dataset.key o.Dataset.o_group in
                 cell m k o.Dataset.o_locks o.Dataset.o_first o.Dataset.o_events)
               (Dataset.observations ds ty)))
        keys;
      let group_str ((ty, m, k), combos) =
        Printf.sprintf "%s.%s/%s: %s" ty m (kind_str k)
          (String.concat " | "
             (List.map
                (fun (locks, n) -> Printf.sprintf "[%s] x%d" (String.concat "; " locks) n)
                (sorted_combos combos)))
      in
      check (Alcotest.list Alcotest.string) (id "groups")
        (List.map
           (fun (key, obs) ->
             let tally = Hashtbl.create 8 in
             List.iter
               (fun o ->
                 let n = Option.value ~default:0 (Hashtbl.find_opt tally o.Oracle.locks) in
                 Hashtbl.replace tally o.Oracle.locks (n + 1))
               obs;
             group_str (key, Hashtbl.fold (fun l n acc -> (l, n) :: acc) tally []))
           (Oracle.groups oracle))
        (List.map (fun (key, g) -> group_str (key, Dataset.combos g)) (Dataset.groups ds));
      (* A cell flips once, when a write follows its first access, a read. *)
      let flips =
        List.length
          (List.filter
             (fun o ->
               wor && o.Oracle.kind = Rule.W
               && (Store.access store o.Oracle.first).Schema.ac_kind = Event.Read)
             oracle)
      in
      check Alcotest.int (id "flips") flips (Dataset.flips ds))
    [ (true, false); (false, false); (true, true); (false, true) ]

(* Every kept access lies within the lifetime of the allocation it was
   attributed to. *)
let check_lifetimes name store =
  Store.iter_accesses store (fun a ->
      let al = Store.allocation store a.Schema.ac_alloc in
      check Alcotest.bool
        (Printf.sprintf "%s: access %d inside allocation %d's lifetime" name
           a.Schema.ac_id al.Schema.al_id)
        true
        (a.Schema.ac_event > al.Schema.al_start
        && match al.Schema.al_end with Some e -> a.Schema.ac_event < e | None -> true))

let shared_acquire lock_ptr =
  Event.Lock_acquire { lock_ptr; kind = Event.Rwlock; side = Event.Shared; name = "rw"; loc }

(* Two allocations accessed in turn inside one transaction: their cells
   get different lock lists (ES for the owner's lock, EO for the
   other's), repeat accesses and a flip on each. *)
let test_interleaved_allocations () =
  let b2 = base + 0x100 in
  let store, _ =
    import ~filter:Filter.empty
      [
        Event.Ctx_switch { pid = 1; kind = Event.Task };
        alloc base;
        alloc b2;
        acquire ~name:"glob" lock1;
        shared_acquire 0x20;
        acquire ~name:"w_lock" (base + 8);
        read base; read b2; write (base + 12); read (b2 + 12);
        write b2; read base; read (b2 + 12); write (base + 12);
        release (base + 8);
        read b2; read base; write base;
        release 0x20;
        release lock1;
        read base; write b2;
      ]
  in
  check_lifetimes "interleaved" store;
  check_fold_matches_oracle "interleaved" store

(* Subclassed and plain allocations of one type, accessed in turn. *)
let test_subclass_lookups () =
  let store, _ =
    import ~filter:Filter.empty
      [
        Event.Ctx_switch { pid = 1; kind = Event.Task };
        alloc ~subclass:"ext4" base;
        alloc ~subclass:"xfs" (base + 0x100);
        alloc (base + 0x200);
        acquire ~name:"w_lock" (base + 0x108);
        read base; read (base + 0x100); read (base + 0x200);
        write (base + 0x10c); write (base + 12); read (base + 0x100);
        release (base + 0x108);
        read (base + 0x200); write base;
        alloc ~subclass:"ext4" (base + 0x300);
        acquire ~name:"glob" lock1;
        read (base + 0x300); read base; write (base + 0x300);
        release lock1;
      ]
  in
  check (Alcotest.list Alcotest.string) "type keys"
    [ "widget"; "widget:ext4"; "widget:xfs" ]
    (Store.type_keys store);
  check_lifetimes "subclasses" store;
  check_fold_matches_oracle "subclasses" store

(* Free and re-allocate one address between accesses of one
   transaction: the accesses after the free belong to the new
   allocation, with its own type key. *)
let test_reuse_lookups () =
  let store, stats =
    import ~filter:Filter.empty
      [
        Event.Ctx_switch { pid = 1; kind = Event.Task };
        alloc base;
        acquire ~name:"glob" lock1;
        read base; write (base + 12); read base;
        Event.Free { ptr = base };
        alloc ~subclass:"gen2" base;
        read base; write base; read (base + 12);
        Event.Free { ptr = base };
        alloc base;
        write (base + 12);
        release lock1;
        read base;
      ]
  in
  check Alcotest.int "three allocations" 3 (Store.n_allocations store);
  check Alcotest.int "all kept" 8 stats.Import.accesses_kept;
  check (Alcotest.list Alcotest.int) "allocation per access"
    [ 0; 0; 0; 1; 1; 1; 2; 2 ]
    (List.init (Store.n_accesses store) (fun i -> (Store.access store i).Schema.ac_alloc));
  check_lifetimes "reuse" store;
  check_fold_matches_oracle "reuse" store

(* Overlapping allocations (a damaged trace can have them): an address
   resolves to the live allocation with the greatest base at or below
   it, and only if it lies inside that one. *)
let test_overlap_lookups () =
  let store, stats =
    Import.run ~filter:Filter.empty ~mode:Import.Lenient
    @@ mk_trace
      [
        Event.Ctx_switch { pid = 1; kind = Event.Task };
        alloc base;
        alloc (base + 8);
        read base; read (base + 12); read (base + 2); read (base + 30);
        read (base + 4); read (base + 40); read (base + 9);
        Event.Free { ptr = base + 8 };
        read (base + 30); read (base + 12);
      ]
  in
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "allocation and member per access"
    [ (0, "w_a"); (1, "w_a"); (0, "w_a"); (1, "w_cnt"); (0, "w_a"); (1, "w_a"); (0, "w_b") ]
    (List.init (Store.n_accesses store) (fun i ->
         let a = Store.access store i in
         (a.Schema.ac_alloc, a.Schema.ac_member)));
  check Alcotest.int "unresolved: past the inner one, then in the freed one" 2
    stats.Import.unresolved

let () =
  Alcotest.run "db"
    [
      ( "golden",
        [
          Alcotest.test_case "export digests" `Quick test_golden_digests;
          Alcotest.test_case "corrupt export digest" `Quick test_golden_corrupt;
        ] );
      ( "caches",
        [
          Alcotest.test_case "blacklisted frame" `Quick test_cache_blacklisted_frame;
          Alcotest.test_case "irq switch" `Quick test_cache_irq_switch;
          Alcotest.test_case "out-of-order release" `Quick
            test_cache_out_of_order_release;
          Alcotest.test_case "checkpoint resume" `Quick test_cache_checkpoint_resume;
        ] );
      ( "trie",
        [ Alcotest.test_case "list semantics" `Quick test_trie_list_semantics ] );
      ( "budget",
        [ Alcotest.test_case "minor words per event" `Quick test_alloc_budget ] );
      ( "resolution",
        [
          Alcotest.test_case "member resolution" `Quick test_resolution;
          Alcotest.test_case "unresolved access" `Quick test_unresolved_access;
          Alcotest.test_case "subclass keys" `Quick test_subclass_keys;
          Alcotest.test_case "address reuse" `Quick test_address_reuse;
          Alcotest.test_case "oversized member" `Quick test_oversized_member;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "nested resume" `Quick test_nested_txn_resumes;
          Alcotest.test_case "out-of-order release" `Quick test_out_of_order_release;
          Alcotest.test_case "unbalanced release" `Quick test_unbalanced_release;
          Alcotest.test_case "per-context state" `Quick test_per_context_lock_state;
          Alcotest.test_case "embedded lock parent" `Quick test_embedded_lock_parent;
        ] );
      ( "filtering",
        [
          Alcotest.test_case "function blacklist" `Quick test_filter_fn_blacklist;
          Alcotest.test_case "lock/atomic members" `Quick test_filter_kinds;
          Alcotest.test_case "member blacklist" `Quick test_filter_member_blacklist;
          Alcotest.test_case "stack recorded" `Quick test_stack_recorded;
        ] );
      ( "irq",
        [
          Alcotest.test_case "inherit mode" `Quick test_irq_inherit;
          Alcotest.test_case "separate mode" `Quick test_irq_separate;
        ] );
      ( "csv",
        [ Alcotest.test_case "roundtrip" `Quick test_csv_roundtrip ] );
      ( "lookups",
        [
          Alcotest.test_case "interleaved allocations" `Quick
            test_interleaved_allocations;
          Alcotest.test_case "subclass keys" `Quick test_subclass_lookups;
          Alcotest.test_case "address reuse" `Quick test_reuse_lookups;
          Alcotest.test_case "overlapping allocations" `Quick test_overlap_lookups;
        ] );
      ( "store",
        [
          Alcotest.test_case "stack interning" `Quick test_stack_interning;
          Alcotest.test_case "layout of key" `Quick test_layout_of_key;
        ] );
      ( "anomalies",
        [
          Alcotest.test_case "double free" `Quick test_lenient_double_free;
          Alcotest.test_case "free without alloc" `Quick
            test_lenient_free_without_alloc;
          Alcotest.test_case "access after free" `Quick
            test_lenient_access_after_free;
          Alcotest.test_case "acquire on freed" `Quick
            test_lenient_acquire_on_freed;
          Alcotest.test_case "unknown data type" `Quick
            test_lenient_unknown_data_type;
          Alcotest.test_case "flow kind conflict" `Quick
            test_lenient_flow_conflict;
          Alcotest.test_case "unclosed txn flushed" `Quick
            test_lenient_unclosed_txn;
          Alcotest.test_case "strict raises" `Quick test_strict_raises_on_fatal;
          Alcotest.test_case "modes agree when clean" `Quick
            test_modes_agree_on_clean_trace;
        ] );
    ]
