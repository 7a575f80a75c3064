(* Tests for the trace substrate: source locations, type layouts, event
   serialisation and the trace container. *)

module Srcloc = Lockdoc_trace.Srcloc
module Layout = Lockdoc_trace.Layout
module Event = Lockdoc_trace.Event
module Trace = Lockdoc_trace.Trace

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* {2 Srcloc} *)

let test_srcloc_roundtrip () =
  let loc = Srcloc.make "fs/inode.c" 507 in
  check Alcotest.string "to_string" "fs/inode.c:507" (Srcloc.to_string loc);
  check Alcotest.bool "roundtrip" true
    (Srcloc.equal loc (Srcloc.of_string (Srcloc.to_string loc)))

let test_srcloc_ordering () =
  let a = Srcloc.make "a.c" 10 and b = Srcloc.make "a.c" 20 in
  check Alcotest.bool "line order" true (Srcloc.compare a b < 0);
  let c = Srcloc.make "b.c" 1 in
  check Alcotest.bool "file order" true (Srcloc.compare a c < 0)

let test_srcloc_malformed () =
  Alcotest.check_raises "no colon" (Failure "Srcloc.of_string: missing ':' in nope")
    (fun () -> ignore (Srcloc.of_string "nope"))

(* {2 Layout} *)

let example_layout =
  Layout.make ~name:"thing"
    [ ("a", 4, Layout.Data); ("lock", 4, Layout.Lock); ("n", 8, Layout.Atomic) ]

let test_layout_offsets () =
  check Alcotest.int "total size" 16 example_layout.Layout.ty_size;
  let m = Layout.find_member example_layout "lock" in
  check Alcotest.int "offset" 4 m.Layout.m_offset;
  check Alcotest.int "size" 4 m.Layout.m_size

let test_layout_member_at () =
  let name_at off =
    Option.map (fun m -> m.Layout.m_name) (Layout.member_at example_layout off)
  in
  check (Alcotest.option Alcotest.string) "first byte" (Some "a") (name_at 0);
  check (Alcotest.option Alcotest.string) "interior byte" (Some "a") (name_at 3);
  check (Alcotest.option Alcotest.string) "second member" (Some "lock") (name_at 4);
  check (Alcotest.option Alcotest.string) "last byte" (Some "n") (name_at 15);
  check (Alcotest.option Alcotest.string) "past the end" None (name_at 16)

let test_layout_data_members () =
  check (Alcotest.list Alcotest.string) "data members only" [ "a" ]
    (List.map (fun m -> m.Layout.m_name) (Layout.data_members example_layout))

let test_layout_roundtrip () =
  let s = Layout.to_string example_layout in
  let back = Layout.of_string s in
  check Alcotest.string "name" "thing" back.Layout.ty_name;
  check Alcotest.int "size" 16 back.Layout.ty_size;
  check Alcotest.int "members" 3 (List.length back.Layout.members);
  check Alcotest.string "reserialise" s (Layout.to_string back)

(* {2 Event} *)

let sample_events =
  [
    Event.Alloc { ptr = 0x1000; size = 64; data_type = "inode"; subclass = Some "ext4" };
    Event.Alloc { ptr = 0x2000; size = 32; data_type = "dentry"; subclass = None };
    Event.Free { ptr = 0x1000 };
    Event.Lock_acquire
      {
        lock_ptr = 0x10;
        kind = Event.Spinlock;
        side = Event.Exclusive;
        name = "i_lock";
        loc = Srcloc.make "fs/inode.c" 42;
      };
    Event.Lock_acquire
      {
        lock_ptr = 0x20;
        kind = Event.Rwsem;
        side = Event.Shared;
        name = "s_umount";
        loc = Srcloc.make "fs/super.c" 7;
      };
    Event.Lock_release { lock_ptr = 0x10; loc = Srcloc.make "fs/inode.c" 44 };
    Event.Mem_access
      { ptr = 0x1010; size = 8; kind = Event.Read; loc = Srcloc.make "fs/stat.c" 3 };
    Event.Mem_access
      { ptr = 0x1018; size = 4; kind = Event.Write; loc = Srcloc.make "fs/attr.c" 9 };
    Event.Fun_enter { fn = "iget_locked"; loc = Srcloc.make "fs/inode.c" 30 };
    Event.Fun_exit { fn = "iget_locked" };
    Event.Ctx_switch { pid = 3; kind = Event.Task };
    Event.Ctx_switch { pid = 1001; kind = Event.Hardirq };
    Event.Ctx_switch { pid = 2001; kind = Event.Softirq };
  ]

let test_event_roundtrip () =
  List.iter
    (fun ev ->
      let back = Event.of_line (Event.to_line ev) in
      check Alcotest.bool (Event.to_line ev) true (Event.equal ev back))
    sample_events

let test_lock_kind_roundtrip () =
  List.iter
    (fun k ->
      check Alcotest.bool "kind roundtrip" true
        (Event.lock_kind_of_string (Event.lock_kind_to_string k) = k))
    [
      Event.Spinlock; Event.Rwlock; Event.Mutex; Event.Semaphore; Event.Rwsem;
      Event.Rcu; Event.Seqlock; Event.Pseudo;
    ]

let test_event_malformed () =
  Alcotest.check_raises "garbage line"
    (Failure "Event.of_line: malformed line: ???") (fun () ->
      ignore (Event.of_line "???"))

let event_gen =
  let open QCheck.Gen in
  let loc = map2 (fun f l -> Srcloc.make (Printf.sprintf "f%d.c" f) l) (int_bound 20) (int_bound 5000) in
  oneof
    [
      map2 (fun p s -> Event.Alloc { ptr = p; size = s + 1; data_type = "t"; subclass = None })
        (int_bound 100000) (int_bound 512);
      map (fun p -> Event.Free { ptr = p }) (int_bound 100000);
      map2
        (fun p l ->
          Event.Lock_acquire
            { lock_ptr = p; kind = Event.Mutex; side = Event.Exclusive; name = "m"; loc = l })
        (int_bound 100000) loc;
      map2 (fun p l -> Event.Lock_release { lock_ptr = p; loc = l }) (int_bound 100000) loc;
      map3
        (fun p s l -> Event.Mem_access { ptr = p; size = s + 1; kind = Event.Read; loc = l })
        (int_bound 100000) (int_bound 16) loc;
      map (fun pid -> Event.Ctx_switch { pid; kind = Event.Task }) (int_bound 64);
    ]

let prop_event_roundtrip =
  QCheck.Test.make ~name:"random event line roundtrip" ~count:300
    (QCheck.make event_gen)
    (fun ev -> Event.equal ev (Event.of_line (Event.to_line ev)))

(* {2 Trace container} *)

let test_sink_order () =
  let sink = Trace.sink () in
  List.iter (Trace.emit sink) sample_events;
  check Alcotest.int "emitted" (List.length sample_events) (Trace.emitted sink);
  let trace = Trace.finish ~layouts:[ example_layout ] sink in
  check Alcotest.int "array size" (List.length sample_events)
    (Array.length trace.Trace.events);
  List.iteri
    (fun i ev ->
      check Alcotest.bool "order preserved" true
        (Event.equal ev trace.Trace.events.(i)))
    sample_events

let test_trace_lines_roundtrip () =
  let sink = Trace.sink () in
  List.iter (Trace.emit sink) sample_events;
  let trace = Trace.finish ~layouts:[ example_layout ] sink in
  let back = Trace.of_lines (Trace.to_lines trace) in
  check Alcotest.int "layouts survive" 1 (List.length back.Trace.layouts);
  check Alcotest.int "events survive" (Array.length trace.Trace.events)
    (Array.length back.Trace.events)

let test_trace_save_load () =
  let sink = Trace.sink () in
  List.iter (Trace.emit sink) sample_events;
  let trace = Trace.finish ~layouts:[ example_layout ] sink in
  let path = Filename.temp_file "lockdoc_test" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.save path trace;
      let back, _ = Trace.read path in
      check Alcotest.int "events" (Array.length trace.Trace.events)
        (Array.length back.Trace.events);
      check Alcotest.int "count reads" 1
        (Trace.count back (function
          | Event.Mem_access { kind = Event.Read; _ } -> true
          | _ -> false)))

(* {2 Validating reader} *)

module Diag = Lockdoc_trace.Diag
module Check = Lockdoc_trace.Check
module Corrupt = Lockdoc_trace.Corrupt

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let write_temp lines =
  let path = Filename.temp_file "lockdoc_test" ".trace" in
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc;
  path

let test_load_reports_file_and_line () =
  let good = Event.to_line (Event.Free { ptr = 7 }) in
  let path = write_temp [ good; good; "A\tnot_a_number\t4\tt\t-" ] in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      match Trace.read path with
      | _ -> Alcotest.fail "bad file accepted"
      | exception Trace.Invalid d ->
          let msg = Diag.to_string d in
          check Alcotest.bool ("file name in: " ^ msg) true
            (contains ~sub:path msg);
          check Alcotest.bool ("line number in: " ^ msg) true
            (contains ~sub:":3:" msg))

let kinds diags = List.map (fun d -> d.Diag.d_kind) diags

let test_lenient_reader_classifies () =
  let good = Event.to_line (Event.Free { ptr = 7 }) in
  let layout = "T\t" ^ Layout.to_string example_layout in
  let lines =
    [
      good;
      "Z\twhat";                  (* unknown tag *)
      "A\t1\t2";                  (* truncated record *)
      "A\tnope\t4\tt\t-";         (* malformed field *)
      layout;
      layout;                      (* duplicate layout *)
      good;
    ]
  in
  let t, diags = Trace.read_lines ~mode:Trace.Lenient lines in
  check Alcotest.int "good events kept" 2 (Array.length t.Trace.events);
  check Alcotest.int "one layout kept" 1 (List.length t.Trace.layouts);
  check
    (Alcotest.list Alcotest.string)
    "diag kinds"
    [ "unknown-tag"; "truncated-record"; "malformed-field"; "duplicate-layout" ]
    (List.map Diag.kind_to_string (kinds diags));
  (* Strict mode raises on the first of the same anomalies. *)
  (match Trace.read_lines ~mode:Trace.Strict lines with
  | _ -> Alcotest.fail "strict accepted bad lines"
  | exception Trace.Invalid d ->
      check Alcotest.string "first anomaly" "unknown-tag"
        (Diag.kind_to_string d.Diag.d_kind));
  (* A clean input yields no diagnostics in either mode. *)
  let _, clean = Trace.read_lines ~mode:Trace.Lenient [ good; layout ] in
  check Alcotest.int "clean input" 0 (List.length clean)

(* {2 Stream invariants} *)

let mk_trace events =
  let sink = Trace.sink () in
  List.iter (Trace.emit sink) events;
  Trace.finish ~layouts:[ example_layout ] sink

let loc = Srcloc.make "x.c" 1

let test_check_clean () =
  let t =
    mk_trace
      [
        Event.Ctx_switch { pid = 1; kind = Event.Task };
        Event.Alloc { ptr = 0x1000; size = 16; data_type = "thing"; subclass = None };
        Event.Lock_acquire
          { lock_ptr = 0x1004; kind = Event.Spinlock; side = Event.Exclusive;
            name = "lock"; loc };
        Event.Mem_access { ptr = 0x1000; size = 4; kind = Event.Write; loc };
        Event.Lock_release { lock_ptr = 0x1004; loc };
        Event.Free { ptr = 0x1000 };
      ]
  in
  check Alcotest.bool "clean" true (Check.is_clean t)

let test_check_flags_anomalies () =
  let expect name events expected =
    let got =
      List.sort_uniq compare (List.map Diag.kind_to_string (kinds (Check.run (mk_trace events))))
    in
    check (Alcotest.list Alcotest.string) name expected got
  in
  let alloc = Event.Alloc { ptr = 0x1000; size = 16; data_type = "thing"; subclass = None } in
  expect "double free"
    [ alloc; Event.Free { ptr = 0x1000 }; Event.Free { ptr = 0x1000 } ]
    [ "double-free" ];
  expect "free without alloc" [ Event.Free { ptr = 0x4444 } ]
    [ "free-without-alloc" ];
  expect "access after free"
    [ alloc; Event.Free { ptr = 0x1000 };
      Event.Mem_access { ptr = 0x1008; size = 4; kind = Event.Read; loc } ]
    [ "access-after-free" ];
  expect "access outside"
    [ Event.Mem_access { ptr = 0x9999; size = 4; kind = Event.Read; loc } ]
    [ "access-outside-alloc" ];
  expect "unknown data type"
    [ Event.Alloc { ptr = 0x2000; size = 8; data_type = "mystery"; subclass = None };
      Event.Free { ptr = 0x2000 } ]
    [ "unknown-data-type" ];
  expect "unbalanced release"
    [ Event.Lock_release { lock_ptr = 0x50; loc } ]
    [ "unbalanced-release" ];
  expect "unclosed txn"
    [ Event.Lock_acquire
        { lock_ptr = 0x50; kind = Event.Mutex; side = Event.Exclusive;
          name = "m"; loc } ]
    [ "unclosed-txn" ];
  expect "double acquire"
    [ Event.Lock_acquire
        { lock_ptr = 0x50; kind = Event.Mutex; side = Event.Exclusive;
          name = "m"; loc };
      Event.Lock_acquire
        { lock_ptr = 0x50; kind = Event.Mutex; side = Event.Exclusive;
          name = "m"; loc };
      Event.Lock_release { lock_ptr = 0x50; loc };
      Event.Lock_release { lock_ptr = 0x50; loc } ]
    [ "double-acquire" ];
  expect "irq imbalance"
    [ Event.Ctx_switch { pid = 1001; kind = Event.Hardirq } ]
    [ "irq-imbalance" ];
  expect "flow kind conflict"
    [ Event.Ctx_switch { pid = 9; kind = Event.Task };
      Event.Ctx_switch { pid = 9; kind = Event.Softirq };
      Event.Ctx_switch { pid = 9; kind = Event.Task } ]
    [ "flow-kind-conflict" ];
  (* Seqlock writer overlapping an optimistic reader is legitimate. *)
  expect "seqlock overlap ok"
    [ Event.Lock_acquire
        { lock_ptr = 0x60; kind = Event.Seqlock; side = Event.Shared;
          name = "seq"; loc };
      Event.Lock_acquire
        { lock_ptr = 0x60; kind = Event.Seqlock; side = Event.Exclusive;
          name = "seq"; loc };
      Event.Lock_release { lock_ptr = 0x60; loc };
      Event.Lock_release { lock_ptr = 0x60; loc } ]
    []

(* {2 Corruption} *)

let test_corrupt_deterministic () =
  let lines = Trace.to_lines (mk_trace sample_events) in
  let c1, ops1 = Corrupt.corrupt ~seed:5 lines in
  let c2, ops2 = Corrupt.corrupt ~seed:5 lines in
  check Alcotest.bool "same seed, same lines" true (c1 = c2);
  check
    (Alcotest.list Alcotest.string)
    "same seed, same ops"
    (List.map Corrupt.describe ops1)
    (List.map Corrupt.describe ops2);
  check Alcotest.bool "always altered" true (c1 <> lines);
  let distinct =
    List.sort_uniq compare
      (List.init 20 (fun seed -> fst (Corrupt.corrupt ~seed lines)))
  in
  check Alcotest.bool "seeds diversify" true (List.length distinct > 5)

let test_corrupt_ops_count () =
  let lines = Trace.to_lines (mk_trace sample_events) in
  let _, ops = Corrupt.corrupt ~ops:4 ~seed:9 lines in
  check Alcotest.int "requested op count" 4 (List.length ops)

(* {2 Escaped identifiers} *)

let nasty_string =
  QCheck.Gen.oneofl
    [
      ""; " "; "a b"; "a\tb"; "a\nb"; "a\rb"; "a;b"; "a,b"; "-"; "a\\b";
      "a|b"; "x:y"; "tab\tsep;and,more"; "\\"; ";";
    ]

let nasty_event_gen =
  let open QCheck.Gen in
  let s = nasty_string in
  let sub = oneof [ return None; map (fun x -> Some x) s ] in
  oneof
    [
      map2
        (fun dt sc -> Event.Alloc { ptr = 0x1000; size = 8; data_type = dt; subclass = sc })
        s sub;
      map
        (fun name ->
          Event.Lock_acquire
            { lock_ptr = 0x10; kind = Event.Spinlock; side = Event.Exclusive;
              name; loc })
        s;
      map (fun fn -> Event.Fun_enter { fn; loc }) s;
      map (fun fn -> Event.Fun_exit { fn }) s;
    ]

let prop_nasty_trace_roundtrip =
  QCheck.Test.make ~name:"escaped identifier trace roundtrip" ~count:500
    (QCheck.make
       QCheck.Gen.(
         pair (list_size (int_range 0 8) nasty_event_gen)
           (pair nasty_string (list_size (int_range 1 3) nasty_string))))
    (fun (events, (ty_name, members)) ->
      let layout =
        Layout.make
          ~name:(if ty_name = "" then "t" else ty_name)
          (List.mapi
             (fun i m -> (Printf.sprintf "%d%s" i m, 4, Layout.Data))
             members)
      in
      let sink = Trace.sink () in
      List.iter (Trace.emit sink) events;
      let t = Trace.finish ~layouts:[ layout ] sink in
      let back = Trace.of_lines (Trace.to_lines t) in
      List.length back.Trace.layouts = 1
      && Layout.to_string (List.hd back.Trace.layouts) = Layout.to_string layout
      && Array.length back.Trace.events = List.length events
      && List.for_all2 Event.equal events (Array.to_list back.Trace.events))

let () =
  Alcotest.run "trace"
    [
      ( "srcloc",
        [
          Alcotest.test_case "roundtrip" `Quick test_srcloc_roundtrip;
          Alcotest.test_case "ordering" `Quick test_srcloc_ordering;
          Alcotest.test_case "malformed" `Quick test_srcloc_malformed;
        ] );
      ( "layout",
        [
          Alcotest.test_case "offsets" `Quick test_layout_offsets;
          Alcotest.test_case "member_at" `Quick test_layout_member_at;
          Alcotest.test_case "data members" `Quick test_layout_data_members;
          Alcotest.test_case "roundtrip" `Quick test_layout_roundtrip;
        ] );
      ( "event",
        [
          Alcotest.test_case "roundtrip samples" `Quick test_event_roundtrip;
          Alcotest.test_case "lock kinds" `Quick test_lock_kind_roundtrip;
          Alcotest.test_case "malformed" `Quick test_event_malformed;
          qtest prop_event_roundtrip;
        ] );
      ( "container",
        [
          Alcotest.test_case "sink order" `Quick test_sink_order;
          Alcotest.test_case "lines roundtrip" `Quick test_trace_lines_roundtrip;
          Alcotest.test_case "save/load" `Quick test_trace_save_load;
        ] );
      ( "reader",
        [
          Alcotest.test_case "bad file carries location" `Quick
            test_load_reports_file_and_line;
          Alcotest.test_case "lenient classification" `Quick
            test_lenient_reader_classifies;
          qtest prop_nasty_trace_roundtrip;
        ] );
      ( "check",
        [
          Alcotest.test_case "clean trace" `Quick test_check_clean;
          Alcotest.test_case "flags anomalies" `Quick test_check_flags_anomalies;
        ] );
      ( "corrupt",
        [
          Alcotest.test_case "deterministic" `Quick test_corrupt_deterministic;
          Alcotest.test_case "op count" `Quick test_corrupt_ops_count;
        ] );
    ]
