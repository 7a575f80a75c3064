(* The durability layer: WAL framing and damage tolerance, atomic
   snapshots, the durable import coordinator, and the satellite fixes
   that ride along with it (Fieldenc-escaped CSV, descriptive store
   lookup errors). *)

module Trace = Lockdoc_trace.Trace
module Layout = Lockdoc_trace.Layout
module Event = Lockdoc_trace.Event
module Srcloc = Lockdoc_trace.Srcloc
module Schema = Lockdoc_db.Schema
module Store = Lockdoc_db.Store
module Wal = Lockdoc_db.Wal
module Record = Lockdoc_db.Record
module Snapshot = Lockdoc_db.Snapshot
module Durable = Lockdoc_db.Durable
module Crashpoint = Lockdoc_db.Crashpoint
module Import = Lockdoc_db.Import
module Filter = Lockdoc_db.Filter
module Run = Lockdoc_ksim.Run
module Dataset = Lockdoc_core.Dataset
module Derivator = Lockdoc_core.Derivator
module Report = Lockdoc_core.Report
module Violation = Lockdoc_core.Violation

let check = Alcotest.check

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

let with_dir prefix f =
  let dir = temp_dir prefix in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let mined s = Report.mined_to_json (Derivator.derive_all (Dataset.of_store s))

(* Rules and violations JSON of a store. *)
let reports s =
  let dataset = Dataset.of_store s in
  let m = Derivator.derive_all dataset in
  (Report.mined_to_json m, Report.violations_to_json (Violation.find dataset m))

(* The store a plain import of the first [k] events builds. *)
let prefix_store trace k =
  let g = Import.engine trace.Trace.layouts in
  for i = 0 to k - 1 do
    Import.feed g trace.Trace.events.(i)
  done;
  Import.engine_store g

(* {2 WAL} *)

let test_crc32 () =
  check Alcotest.int "IEEE check vector" 0xCBF43926 (Record.crc32 "123456789");
  check Alcotest.int "empty" 0 (Record.crc32 "");
  (* crc32 "a" has bit 31 set: on 64-bit OCaml it exceeds Int32.max_int,
     so the [Int32.of_int] in the frame header truncates it to a
     negative int32. The reader must mask it back ([land 0xFFFFFFFF]);
     these vectors pin both halves of that contract. *)
  check Alcotest.int "top-bit vector" 0xE8B7BE43 (Record.crc32 "a");
  check Alcotest.int "top-bit clear vector" 0x352441C2 (Record.crc32 "abc")

let test_wal_crc32_edge_payloads () =
  with_dir "lockdoc_wal" @@ fun dir ->
  let w = Wal.create ~dir () in
  (* Empty payload (len 0, crc 0) and a payload whose crc32 has the top
     bit set, exercising the Int32 truncation path end to end. *)
  let edge = [ ""; "a"; "abc"; String.make 3 '\x00' ] in
  List.iter (Wal.append w) edge;
  Wal.close w;
  let records, torn = Wal.read ~dir ~from:0 in
  check Alcotest.bool "no tear" true (torn = None);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "edge payloads round-trip"
    (List.mapi (fun i p -> (i, p)) edge)
    records

let payloads = List.init 100 (fun i -> Printf.sprintf "record %d \t with tabs" i)

let test_wal_roundtrip () =
  with_dir "lockdoc_wal" @@ fun dir ->
  let w = Wal.create ~dir () in
  List.iter (Wal.append w) payloads;
  check Alcotest.int "lsn advanced" 100 (Wal.lsn w);
  Wal.close w;
  let records, torn = Wal.read ~dir ~from:0 in
  check Alcotest.bool "no tear" true (torn = None);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "all records back"
    (List.mapi (fun i p -> (i, p)) payloads)
    records;
  (* Reading from an offset skips the prefix. *)
  let tail, torn = Wal.read ~dir ~from:97 in
  check Alcotest.bool "no tear from offset" true (torn = None);
  check Alcotest.int "suffix length" 3 (List.length tail);
  check Alcotest.int "first lsn" 97 (fst (List.hd tail))

let test_wal_rotation () =
  with_dir "lockdoc_wal" @@ fun dir ->
  (* Tiny segments: every record or two starts a new file. *)
  let w = Wal.create ~dir ~segment_bytes:32 () in
  List.iter (Wal.append w) payloads;
  Wal.close w;
  check Alcotest.bool "multiple segments" true
    (List.length (Wal.segment_files ~dir) > 3);
  let records, torn = Wal.read ~dir ~from:0 in
  check Alcotest.bool "no tear" true (torn = None);
  check Alcotest.int "all records across segments" 100 (List.length records);
  (* Compaction: dropping below lsn 50 must keep everything >= 50. *)
  Wal.drop_below ~dir ~lsn:50;
  let records, torn = Wal.read ~dir ~from:50 in
  check Alcotest.bool "no tear after drop" true (torn = None);
  check Alcotest.int "suffix intact" 50 (List.length records);
  check Alcotest.bool "some segments deleted" true
    (List.length (Wal.segment_files ~dir) < 50)

let test_wal_torn_tail () =
  with_dir "lockdoc_wal" @@ fun dir ->
  let w = Wal.create ~dir () in
  List.iter (Wal.append w) payloads;
  Wal.close w;
  let _, path = List.hd (Wal.segment_files ~dir) in
  let content = read_file path in
  (* Chop mid-record: the reader must deliver the intact prefix. *)
  write_file path (String.sub content 0 (String.length content - 11));
  let records, torn = Wal.read ~dir ~from:0 in
  check Alcotest.bool "tear detected" true (torn <> None);
  check Alcotest.int "intact prefix survives" 99 (List.length records)

let test_wal_bit_flip () =
  with_dir "lockdoc_wal" @@ fun dir ->
  let w = Wal.create ~dir () in
  List.iter (Wal.append w) payloads;
  Wal.close w;
  let _, path = List.hd (Wal.segment_files ~dir) in
  let content = Bytes.of_string (read_file path) in
  let pos = Bytes.length content - 20 in
  Bytes.set content pos (Char.chr (Char.code (Bytes.get content pos) lxor 0x40));
  write_file path (Bytes.to_string content);
  let records, torn = Wal.read ~dir ~from:0 in
  check Alcotest.bool "flip detected" true (torn <> None);
  check Alcotest.bool "prefix survives, no raise" true
    (List.length records >= 98)

let test_wal_replay_stops_at_rejected () =
  with_dir "lockdoc_wal" @@ fun dir ->
  let w = Wal.create ~dir ~segment_bytes:64 () in
  List.iter (Wal.append w) payloads;
  Wal.close w;
  let seen = ref [] in
  let applied, stop =
    Wal.replay ~dir ~from:10 (fun p ->
        if p = List.nth payloads 15 then failwith "bad record";
        seen := p :: !seen)
  in
  check Alcotest.int "records before the rejected one" 5 applied;
  check
    (Alcotest.list Alcotest.string)
    "given in LSN order from [from], nothing past the rejection"
    (List.filteri (fun i _ -> i >= 10 && i < 15) payloads)
    (List.rev !seen);
  check (Alcotest.option Alcotest.string) "reason names the lsn"
    (Some "rejected record at lsn 15: Failure(\"bad record\")")
    stop

let test_wal_truncate_and_resume () =
  with_dir "lockdoc_wal" @@ fun dir ->
  let w = Wal.create ~dir ~segment_bytes:64 () in
  List.iter (Wal.append w) payloads;
  Wal.close w;
  Wal.truncate_after ~dir ~lsn:42;
  let records, torn = Wal.read ~dir ~from:0 in
  check Alcotest.bool "no tear after truncate" true (torn = None);
  check Alcotest.int "exactly the prefix" 42 (List.length records);
  (* A writer resuming at the truncation point continues the sequence. *)
  let w = Wal.create ~dir ~start_lsn:42 () in
  Wal.append w "resumed";
  Wal.close w;
  let records, torn = Wal.read ~dir ~from:0 in
  check Alcotest.bool "still clean" true (torn = None);
  check Alcotest.int "sequence continued" 43 (List.length records);
  check Alcotest.string "resumed record" "resumed"
    (snd (List.nth records 42))

(* {2 Snapshots} *)

(* Satellite: serialise a store built from every ksim workload family,
   reload, and compare counts, type keys and derived rules. *)
let test_snapshot_roundtrip_all_families () =
  List.iter
    (fun name ->
      with_dir "lockdoc_snap" @@ fun dir ->
      let trace = Run.workload_trace ~seed:11 name in
      let store, stats = Import.run trace in
      let meta =
        {
          Snapshot.m_snapshot = Snapshot.snapshot_name 0;
          m_wal_lsn = 0;
          m_trace_offset = Array.length trace.Trace.events;
          m_trace_file = "";
          m_trace_events = Array.length trace.Trace.events;
          m_complete = true;
        }
      in
      Snapshot.save ~dir
        {
          Snapshot.p_meta = meta;
          p_store = store;
          p_engine = None;
          p_stats = Some stats;
        };
      match Snapshot.load (Filename.concat dir meta.Snapshot.m_snapshot) with
      | None -> Alcotest.failf "%s: snapshot did not load" name
      | Some p ->
          let back = p.Snapshot.p_store in
          check Alcotest.int (name ^ ": n_accesses") (Store.n_accesses store)
            (Store.n_accesses back);
          check Alcotest.int (name ^ ": n_txns") (Store.n_txns store)
            (Store.n_txns back);
          check Alcotest.int (name ^ ": n_locks") (Store.n_locks store)
            (Store.n_locks back);
          check Alcotest.int (name ^ ": n_allocations")
            (Store.n_allocations store) (Store.n_allocations back);
          check Alcotest.int (name ^ ": n_data_types")
            (Store.n_data_types store) (Store.n_data_types back);
          check Alcotest.int (name ^ ": n_stacks") (Store.n_stacks store)
            (Store.n_stacks back);
          check
            (Alcotest.list Alcotest.string)
            (name ^ ": type keys") (Store.type_keys store)
            (Store.type_keys back);
          check Alcotest.bool (name ^ ": stats survive") true
            (p.Snapshot.p_stats = Some stats);
          check Alcotest.string (name ^ ": mined rules") (mined store)
            (mined back))
    Run.workload_names

let test_snapshot_corruption () =
  with_dir "lockdoc_snap" @@ fun dir ->
  let trace = Run.workload_trace ~seed:11 ~scale:1 "fsstress" in
  let store, _ = Import.run trace in
  let meta =
    {
      Snapshot.m_snapshot = Snapshot.snapshot_name 0;
      m_wal_lsn = 0;
      m_trace_offset = 0;
      m_trace_file = "";
      m_trace_events = 0;
      m_complete = false;
    }
  in
  Snapshot.save ~dir
    { Snapshot.p_meta = meta; p_store = store; p_engine = None; p_stats = None };
  let path = Filename.concat dir meta.Snapshot.m_snapshot in
  let good = read_file path in
  (* Bit flip in the payload: checksum must catch it. *)
  let bad = Bytes.of_string good in
  let pos = Bytes.length bad / 2 in
  Bytes.set bad pos (Char.chr (Char.code (Bytes.get bad pos) lxor 1));
  write_file path (Bytes.to_string bad);
  check Alcotest.bool "flipped snapshot rejected" true
    (Snapshot.load path = None);
  (* Truncation: short read must not raise. *)
  write_file path (String.sub good 0 (String.length good / 2));
  check Alcotest.bool "truncated snapshot rejected" true
    (Snapshot.load path = None);
  (* Wrong magic. *)
  write_file path ("NOTASNAPSHOT\n" ^ good);
  check Alcotest.bool "bad magic rejected" true (Snapshot.load path = None);
  (* A garbled length field promising ~2 GiB: checked against the bytes
     left in the file before anything that size is allocated. *)
  let huge = Bytes.of_string good in
  Bytes.set_int32_le huge (String.index good '\n' + 1) 0x7FFFFFF0l;
  write_file path (Bytes.to_string huge);
  let before = Gc.allocated_bytes () in
  let loaded = Snapshot.load path in
  let grew = Gc.allocated_bytes () -. before in
  check Alcotest.bool "absurd length rejected" true (loaded = None);
  check Alcotest.bool
    (Printf.sprintf "allocated %.0f bytes for a %d-byte file" grew
       (String.length good))
    true
    (grew < 4. *. float (String.length good))

let test_manifest_roundtrip () =
  with_dir "lockdoc_manifest" @@ fun dir ->
  let m =
    {
      Snapshot.m_snapshot = "snap-000003.snap";
      m_wal_lsn = 12345;
      m_trace_offset = 67890;
      m_trace_file = "/tmp/odd;name\twith,stuff.trace";
      m_trace_events = 99999;
      m_complete = false;
    }
  in
  Snapshot.write_manifest ~dir m;
  check Alcotest.bool "manifest roundtrips" true
    (Snapshot.read_manifest ~dir = Some m);
  write_file (Filename.concat dir "MANIFEST") "not a manifest\nsnapshot=x\n";
  check Alcotest.bool "damaged manifest rejected" true
    (Snapshot.read_manifest ~dir = None)

(* {2 Store lookup errors (satellite)} *)

let test_descriptive_lookup_errors () =
  let store = Store.create () in
  let expect name fn =
    match fn () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument msg ->
        let has needle =
          let rec go i =
            i + String.length needle <= String.length msg
            && (String.sub msg i (String.length needle) = needle || go (i + 1))
          in
          go 0
        in
        check Alcotest.bool
          (Printf.sprintf "%s names the accessor: %s" name msg)
          true
          (has ("Store." ^ name));
        check Alcotest.bool
          (Printf.sprintf "%s names the id: %s" name msg)
          true (has "7")
  in
  expect "data_type" (fun () -> Store.data_type store 7);
  expect "allocation" (fun () -> Store.allocation store 7);
  expect "lock" (fun () -> Store.lock store 7);
  expect "txn" (fun () -> Store.txn store 7);
  expect "access" (fun () -> Store.access store 7);
  expect "stack" (fun () -> Store.stack store 7)

(* {2 CSV with hostile identifiers (satellite)} *)

let test_csv_fieldenc () =
  (* Identifiers full of the CSV separator, commas, tabs — and a
     subclass that is literally "-", colliding with the null marker. *)
  let loc = Srcloc.make "a;b.c" 1 in
  let store = Store.create () in
  let dt =
    Store.add_data_type store
      (Layout.make ~name:"ty;pe" [ ("mem;ber,\tone", 8, Layout.Data) ])
  in
  let al =
    Store.add_allocation store ~ptr:0x1000 ~size:8 ~ty:dt.Schema.dt_id
      ~subclass:(Some "-") ~start:0
  in
  Store.set_alloc_end store al.Schema.al_id (Some 10);
  let lk =
    Store.add_lock store ~ptr:0x2000 ~kind:Event.Spinlock ~name:"lo;ck,name"
      ~parent:(Some (al.Schema.al_id, "mem;ber,\tone"))
  in
  let tx =
    Store.add_txn store
      ~locks:
        [ { Schema.h_lock = lk.Schema.lk_id; h_side = Event.Exclusive; h_loc = loc } ]
      ~ctx:1
  in
  let stack = Store.intern_stack store [ "fn;one"; "fn,two" ] in
  ignore
    (Store.add_access store ~event:1 ~alloc:al.Schema.al_id
       ~slot:(Store.member_slot store ~ty:dt.Schema.dt_id "mem;ber,\tone")
       ~kind:Event.Write ~txn:tx.Schema.tx_id
       ~loc ~stack ~ctx:1);
  with_dir "lockdoc_csv_hostile" @@ fun dir ->
  Lockdoc_db.Csv.export ~dir store;
  let back = Lockdoc_db.Csv.import ~dir in
  check Alcotest.string "data type name" "ty;pe"
    (Store.data_type back 0).Schema.dt_name;
  let al' = Store.allocation back 0 in
  check (Alcotest.option Alcotest.string) "literal dash subclass" (Some "-")
    al'.Schema.al_subclass;
  check (Alcotest.option Alcotest.int) "al_end survives" (Some 10)
    al'.Schema.al_end;
  let lk' = Store.lock back 0 in
  check Alcotest.string "lock name" "lo;ck,name" lk'.Schema.lk_name;
  check Alcotest.bool "lock parent member" true
    (lk'.Schema.lk_parent = Some (0, "mem;ber,\tone"));
  check
    (Alcotest.list Alcotest.string)
    "stack frames" [ "fn;one"; "fn,two" ] (Store.stack back 0);
  let a = Store.access back 0 in
  check Alcotest.string "access member" "mem;ber,\tone" a.Schema.ac_member;
  check Alcotest.string "access loc" "a;b.c:1"
    (Srcloc.to_string a.Schema.ac_loc);
  check
    (Alcotest.list Alcotest.string)
    "type keys (subclass intact)" [ "ty;pe:-" ] (Store.type_keys back)

(* {2 Durable import} *)

(* Checkpoint interval that guarantees several checkpoints whatever the
   workload's event count. *)
let cp_every trace =
  max 1 (Array.length trace.Trace.events / 5)

let test_durable_matches_plain () =
  with_dir "lockdoc_durable" @@ fun dir ->
  let trace = Run.workload_trace ~seed:11 "fsstress" in
  let checkpoint_every = cp_every trace in
  let plain_store, plain_stats = Import.run trace in
  let store, stats, progress = Durable.import ~dir ~checkpoint_every trace in
  check Alcotest.bool "stats identical" true (plain_stats = stats);
  check Alcotest.int "fresh run" 0 progress.Durable.pr_resumed_from;
  check Alcotest.bool "several checkpoints" true
    (progress.Durable.pr_checkpoints > 2);
  check Alcotest.string "mined rules identical" (mined plain_store)
    (mined store);
  (* recover from the completed dir reproduces the same store. *)
  let r = Durable.recover ~dir in
  check Alcotest.bool "recover complete" true r.Durable.r_complete;
  check Alcotest.bool "recover clean" true (r.Durable.r_stop = None);
  check Alcotest.string "recovered rules identical" (mined plain_store)
    (mined r.Durable.r_store);
  (* Re-importing a completed dir is a fast path: no new work. *)
  let _, stats2, progress2 = Durable.import ~dir ~checkpoint_every trace in
  check Alcotest.bool "fast path stats" true (plain_stats = stats2);
  check Alcotest.int "fast path no checkpoints" 0
    progress2.Durable.pr_checkpoints;
  check Alcotest.int "fast path no wal" 0 progress2.Durable.pr_wal_records

let test_durable_crash_resume () =
  let trace = Run.workload_trace ~seed:11 "fsstress" in
  let checkpoint_every = cp_every trace in
  let golden_store, golden_stats = Import.run trace in
  (* Measure how many crash points one uninterrupted durable import
     has, then kill a second one in the middle of that range. *)
  let total_hits =
    with_dir "lockdoc_durable" @@ fun dir ->
    Crashpoint.reset ();
    ignore (Durable.import ~dir ~checkpoint_every trace);
    Crashpoint.hits ()
  in
  with_dir "lockdoc_durable" @@ fun dir ->
  Crashpoint.reset ();
  Crashpoint.arm ~after:(total_hits / 2);
  (match Durable.import ~dir ~checkpoint_every trace with
  | _ -> Alcotest.fail "expected the armed crash to fire"
  | exception Crashpoint.Crash _ -> ());
  Crashpoint.reset ();
  (* recover never raises and yields a consistent prefix store. *)
  let r = Durable.recover ~dir in
  check Alcotest.bool "prefix has no more accesses than golden" true
    (Store.n_accesses r.Durable.r_store <= Store.n_accesses golden_store);
  (* Resuming completes the import with identical results. *)
  let store, stats, progress = Durable.import ~dir ~checkpoint_every trace in
  check Alcotest.bool "resumed, not restarted" true
    (progress.Durable.pr_resumed_from > 0);
  check Alcotest.bool "stats identical after resume" true
    (golden_stats = stats);
  check Alcotest.string "rules identical after resume" (mined golden_store)
    (mined store)

let test_durable_trace_mismatch () =
  with_dir "lockdoc_durable" @@ fun dir ->
  let trace = Run.workload_trace ~seed:11 ~scale:1 "fsstress" in
  let other = Run.workload_trace ~seed:11 ~scale:2 "fsstress" in
  ignore (Durable.import ~dir ~checkpoint_every:5_000 trace);
  match Durable.import ~dir ~checkpoint_every:5_000 other with
  | _ -> Alcotest.fail "expected a trace-identity failure"
  | exception Durable.Foreign_dir msg ->
      check Alcotest.string "message names the dir and both traces"
        (Printf.sprintf "%s belongs to a different trace (%d events; given %d \
                         events)"
           dir
           (Array.length trace.Trace.events)
           (Array.length other.Trace.events))
        msg

(* Recovery re-feeds the journal tail past the snapshot to the
   snapshot's engine; the result must be exactly a plain import of the
   first [r_trace_offset] events, before and after tail damage. *)
let test_journal_replay_prefix () =
  let trace = Run.workload_trace ~seed:11 "fsstress" in
  let checkpoint_every = Array.length trace.Trace.events / 3 in
  let total_hits =
    with_dir "lockdoc_durable" @@ fun dir ->
    Crashpoint.reset ();
    ignore (Durable.import ~dir ~checkpoint_every trace);
    Crashpoint.hits ()
  in
  with_dir "lockdoc_durable" @@ fun dir ->
  Crashpoint.reset ();
  (* Halfway through the hits is mid-way through the second interval. *)
  Crashpoint.arm ~after:(total_hits / 2);
  (match Durable.import ~dir ~checkpoint_every trace with
  | _ -> Alcotest.fail "expected the armed crash to fire"
  | exception Crashpoint.Crash _ -> ());
  Crashpoint.reset ();
  let check_prefix what =
    let r = Durable.recover ~dir in
    check Alcotest.int (what ^ ": lsn tracks the trace offset")
      r.Durable.r_trace_offset r.Durable.r_wal_lsn;
    let expected = prefix_store trace r.Durable.r_trace_offset in
    let rows st =
      ( List.init (Store.n_accesses st) (Store.access st),
        List.init (Store.n_txns st) (Store.txn st),
        List.init (Store.n_stacks st) (Store.stack st) )
    in
    check Alcotest.bool (what ^ ": access, txn and stack rows") true
      (rows expected = rows r.Durable.r_store);
    check
      (Alcotest.pair Alcotest.string Alcotest.string)
      (what ^ ": rules and violations")
      (reports expected) (reports r.Durable.r_store);
    r
  in
  let r = check_prefix "crashed" in
  check Alcotest.bool "journal records were replayed" true
    (r.Durable.r_replayed > 0);
  ignore (Wal.corrupt_tail ~dir ~seed:5);
  let r' = check_prefix "corrupted" in
  check Alcotest.bool "damage only shortens the prefix" true
    (r'.Durable.r_trace_offset <= r.Durable.r_trace_offset)

let () =
  Alcotest.run "durable"
    [
      ( "wal",
        [
          Alcotest.test_case "crc32" `Quick test_crc32;
          Alcotest.test_case "crc32 edge payloads" `Quick
            test_wal_crc32_edge_payloads;
          Alcotest.test_case "roundtrip" `Quick test_wal_roundtrip;
          Alcotest.test_case "rotation + compaction" `Quick test_wal_rotation;
          Alcotest.test_case "torn tail" `Quick test_wal_torn_tail;
          Alcotest.test_case "bit flip" `Quick test_wal_bit_flip;
          Alcotest.test_case "truncate + resume" `Quick
            test_wal_truncate_and_resume;
          Alcotest.test_case "replay stops at rejected record" `Quick
            test_wal_replay_stops_at_rejected;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "roundtrip, all families" `Slow
            test_snapshot_roundtrip_all_families;
          Alcotest.test_case "corruption rejected" `Quick
            test_snapshot_corruption;
          Alcotest.test_case "manifest" `Quick test_manifest_roundtrip;
        ] );
      ( "store",
        [
          Alcotest.test_case "descriptive lookup errors" `Quick
            test_descriptive_lookup_errors;
        ] );
      ( "csv",
        [
          Alcotest.test_case "hostile identifiers" `Quick test_csv_fieldenc;
        ] );
      ( "durable",
        [
          Alcotest.test_case "matches plain import" `Slow
            test_durable_matches_plain;
          Alcotest.test_case "crash, recover, resume" `Slow
            test_durable_crash_resume;
          Alcotest.test_case "trace identity guard" `Quick
            test_durable_trace_mismatch;
          Alcotest.test_case "journal replay equals prefix import" `Slow
            test_journal_replay_prefix;
        ] );
    ]
