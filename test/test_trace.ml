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

(* The per-byte escaper that [Fieldenc] replaced with run copies, kept
   as the oracle: same bytes out, same failures. *)
module Fieldenc_oracle = struct
  let must_escape c =
    c = '\\' || c = '\t' || c = '\n' || c = '\r' || c = ';' || c = ','

  let encode s =
    if not (String.exists must_escape s) then s
    else begin
      let b = Buffer.create (String.length s + 4) in
      String.iter
        (fun c ->
          match c with
          | '\\' -> Buffer.add_string b "\\\\"
          | '\t' -> Buffer.add_string b "\\t"
          | '\n' -> Buffer.add_string b "\\n"
          | '\r' -> Buffer.add_string b "\\r"
          | ';' -> Buffer.add_string b "\\;"
          | ',' -> Buffer.add_string b "\\,"
          | c -> Buffer.add_char b c)
        s;
      Buffer.contents b
    end

  let decode s =
    if not (String.contains s '\\') then s
    else begin
      let b = Buffer.create (String.length s) in
      let n = String.length s in
      let rec go i =
        if i < n then
          if s.[i] = '\\' then begin
            if i + 1 >= n then
              failwith ("Fieldenc.decode: trailing backslash in " ^ s);
            (match s.[i + 1] with
            | '\\' -> Buffer.add_char b '\\'
            | 't' -> Buffer.add_char b '\t'
            | 'n' -> Buffer.add_char b '\n'
            | 'r' -> Buffer.add_char b '\r'
            | ';' -> Buffer.add_char b ';'
            | ',' -> Buffer.add_char b ','
            | '-' -> Buffer.add_char b '-'
            | c ->
                failwith
                  (Printf.sprintf "Fieldenc.decode: bad escape \\%c in %s" c s));
            go (i + 2)
          end
          else begin
            Buffer.add_char b s.[i];
            go (i + 1)
          end
      in
      go 0;
      Buffer.contents b
    end
end

(* Strings dense with the bytes either direction treats specially. *)
let fieldenc_gen =
  QCheck.Gen.(
    string_size ~gen:(oneofl [ 'a'; 'z'; '\\'; '\t'; '\n'; '\r'; ';'; ','; '-'; 't'; 'n'; 'r'; 'x'; '"' ])
      (int_range 0 40))

let outcome f s = match f s with v -> Ok v | exception Failure m -> Error m

let prop_fieldenc_oracle =
  QCheck.Test.make ~name:"fieldenc matches the per-byte oracle" ~count:3000
    (QCheck.make ~print:String.escaped
       QCheck.Gen.(oneof [ fieldenc_gen; string_printable; string ]))
    (fun s ->
      Lockdoc_trace.Fieldenc.encode s = Fieldenc_oracle.encode s
      && outcome Lockdoc_trace.Fieldenc.decode s = outcome Fieldenc_oracle.decode s)

let prop_fieldenc_roundtrip =
  QCheck.Test.make ~name:"fieldenc round trip" ~count:3000
    (QCheck.make ~print:String.escaped QCheck.Gen.(oneof [ fieldenc_gen; string ]))
    (fun s ->
      Lockdoc_trace.Fieldenc.decode (Lockdoc_trace.Fieldenc.encode s) = s)

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

(* {2 In-place scanner}

   [Event.scan] must never disagree with [Event.of_line]: on every line
   it either declines or returns the event the reference parser
   returns. Lines are scanned as slices of a larger buffer, twice (the
   second time every name and location is an intern hit). *)

let scan_line sc line =
  let pre = "F\t1\n" and post = "\nX\tz" in
  let buf = pre ^ line ^ post in
  let start = String.length pre in
  let stop = start + String.length line in
  let first = Event.scan sc buf start stop in
  let again = Event.scan sc buf start stop in
  if first <> again then Alcotest.fail ("second scan differs: " ^ line);
  first

(* The reference verdict on one line: what [of_line] makes of it. *)
let agrees_with_reference line =
  match scan_line (Event.scanner ()) line with
  | None -> true
  | Some ev -> (
      match Event.of_line line with
      | ref_ev -> ev = ref_ev
      | exception Failure _ -> false)

let scan_int_gen =
  let open QCheck.Gen in
  oneof
    [
      int_bound 5000;
      map (fun n -> -n) (int_bound 5000);
      int_range 100_000_000_000_000_000 999_999_999_999_999_999;
      map (fun n -> -n) (int_range 100_000_000_000_000_000 999_999_999_999_999_999);
      int_range 1_000_000_000_000_000_000 max_int;
      map (fun n -> -n) (int_range 1_000_000_000_000_000_000 max_int);
      oneofl [ 0; max_int; min_int; -1 ];
    ]

let scan_name_gen =
  QCheck.Gen.(
    oneof
      [
        nasty_string;
        oneofl [ "i_lock"; "ext4_iget"; "inode"; "fs/inode.c"; "a:b"; "x\\"; "-" ];
        string_size ~gen:printable (int_range 0 6);
      ])

let scan_event_gen =
  let open QCheck.Gen in
  let i = scan_int_gen and name = scan_name_gen in
  let loc = map2 Srcloc.make name i in
  let sub = oneof [ return None; map Option.some name ] in
  oneof
    [
      map
        (fun (((p, sz), dt), sc) ->
          Event.Alloc { ptr = p; size = sz; data_type = dt; subclass = sc })
        (pair (pair (pair i i) name) sub);
      map (fun p -> Event.Free { ptr = p }) i;
      map
        (fun ((((p, kind), side), n), l) ->
          Event.Lock_acquire { lock_ptr = p; kind; side; name = n; loc = l })
        (pair
           (pair
              (pair
                 (pair i
                    (oneofl
                       [
                         Event.Spinlock; Event.Rwlock; Event.Mutex; Event.Semaphore;
                         Event.Rwsem; Event.Rcu; Event.Seqlock; Event.Pseudo;
                       ]))
                 (oneofl [ Event.Exclusive; Event.Shared ]))
              name)
           loc);
      map2 (fun p l -> Event.Lock_release { lock_ptr = p; loc = l }) i loc;
      map (fun (((p, sz), k), l) -> Event.Mem_access { ptr = p; size = sz; kind = k; loc = l })
        (pair (pair (pair i i) (oneofl [ Event.Read; Event.Write ])) loc);
      map2 (fun fn l -> Event.Fun_enter { fn; loc = l }) name loc;
      map (fun fn -> Event.Fun_exit { fn }) name;
      map2 (fun pid kind -> Event.Ctx_switch { pid; kind }) i
        (oneofl [ Event.Task; Event.Softirq; Event.Hardirq ]);
    ]

let prop_scan_agrees =
  QCheck.Test.make ~name:"scanner agrees with of_line on to_line" ~count:2000
    (QCheck.make ~print:Event.to_line scan_event_gen)
    (fun ev -> agrees_with_reference (Event.to_line ev))

(* Mutations a damaged file or a hand edit produces. *)
let mutate_gen line =
  let open QCheck.Gen in
  let n = String.length line in
  let tabs = List.filter (fun k -> line.[k] = '\t') (List.init n Fun.id) in
  let at_tab f = if tabs = [] then return line else map f (oneofl tabs) in
  let splice k drop ins = String.sub line 0 k ^ ins ^ String.sub line (k + drop) (n - k - drop) in
  oneof
    [
      map2
        (fun k c -> if n = 0 then line else splice (k mod n) 1 (String.make 1 c))
        (int_bound 200)
        (oneof [ oneofl [ '\t'; '\\'; '\r'; '-'; '+'; 'x'; '0'; '9'; ':'; ' '; '_' ]; char ]);
      at_tab (fun k -> splice k 1 "");
      at_tab (fun k -> splice k 0 "\t");
      return (line ^ "\r");
      at_tab (fun k -> splice (k + 1) 0 "+");
      at_tab (fun k -> splice (k + 1) 0 "0x");
      at_tab (fun k -> splice (k + 1) 0 "1_");
      at_tab (fun k -> splice (k + 1) 0 "-");
      return (line ^ "\t");
    ]

let prop_scan_mutated =
  QCheck.Test.make ~name:"scanner never accepts what of_line rejects" ~count:4000
    (QCheck.make ~print:String.escaped
       QCheck.Gen.(scan_event_gen >>= fun ev -> mutate_gen (Event.to_line ev)))
    agrees_with_reference

(* The one simulated trace of this suite. ksim numbers source lines by
   first use within a process, so a second simulation here would change
   this trace and the goldens pinned on it. *)
let golden_lines =
  lazy (Trace.to_lines (Lockdoc_ksim.Run.workload_trace ~seed:3 "fs_bench"))

(* A real workload trace has no escapes and only short ints: the
   scanner must take every event line, or the reader fell back to the
   reference path without anyone noticing. *)
let test_scan_accepts_workload () =
  let sc = Event.scanner () in
  let lines = Lazy.force golden_lines in
  let declined =
    List.filter
      (fun l ->
        (not (String.length l >= 2 && String.sub l 0 2 = "T\t"))
        && Event.scan sc l 0 (String.length l) = None)
      lines
  in
  check (Alcotest.list Alcotest.string) "declined lines" [] declined

let test_scan_parse () =
  let sc = Event.scanner () in
  List.iter
    (fun ev ->
      let line = Event.to_line ev in
      check Alcotest.bool line true (Event.parse sc line = Event.of_line line))
    sample_events;
  check Alcotest.bool "reference fallback" true
    (Event.parse sc "F\t0x10" = Event.Free { ptr = 16 });
  Alcotest.check_raises "reference failure"
    (Failure "Event.of_line: malformed line: ???") (fun () ->
      ignore (Event.parse sc "???"));
  Alcotest.check_raises "slice outside the string" (Invalid_argument "Event.scan")
    (fun () -> ignore (Event.scan sc "F\t1" 1 4))

let test_add_line () =
  let b = Buffer.create 16 in
  List.iter
    (fun ev ->
      Buffer.add_string b (Event.to_line ev);
      Buffer.add_char b '\n')
    sample_events;
  let b' = Buffer.create 16 in
  List.iter
    (fun ev ->
      Event.add_line b' ev;
      Buffer.add_char b' '\n')
    sample_events;
  check Alcotest.string "add_line appends to_line" (Buffer.contents b)
    (Buffer.contents b');
  check Alcotest.string "negative and min_int"
    (Printf.sprintf "F\t%d" min_int)
    (Event.to_line (Event.Free { ptr = min_int }))

(* {2 Reader edge cases}

   Each case is read from a file (the in-place scanner over one buffer)
   and through [read_lines] over the same lines split the way the file
   reader splits them; both must agree with each other and with the
   pinned expectation. *)

let write_raw content =
  let path = Filename.temp_file "lockdoc_test" ".trace" in
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc;
  path

(* The lines a file reader sees: split on '\n', without the empty
   remainder after a final newline. *)
let file_lines content =
  if content = "" then []
  else
    let parts = String.split_on_char '\n' content in
    if content.[String.length content - 1] = '\n' then
      List.filteri (fun i _ -> i < List.length parts - 1) parts
    else parts

let without_file d = { d with Diag.d_file = None }

let read_both ?(mode = Trace.Lenient) content =
  let path = write_raw content in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let t, diags = Trace.read ~mode path in
      let t', diags' = Trace.read_lines ~mode (file_lines content) in
      check
        (Alcotest.list Alcotest.string)
        "file and line readers agree"
        (Trace.to_lines t') (Trace.to_lines t);
      check
        (Alcotest.list Alcotest.string)
        "file and line diagnostics agree"
        (List.map Diag.to_string diags')
        (List.map (fun d -> Diag.to_string (without_file d)) diags);
      (t, diags'))

let diag_strings diags = List.map Diag.to_string diags

let test_edge_no_trailing_newline () =
  let t, diags = read_both "F\t7\nC\t3\ttask" in
  check (Alcotest.list Alcotest.string) "events" [ "F\t7"; "C\t3\ttask" ]
    (Trace.to_lines t);
  check Alcotest.int "no diagnostics" 0 (List.length diags)

let test_edge_blank_lines () =
  let t, diags = read_both "F\t1\n\n\nZ\tbad\n\nF\t2\n" in
  check (Alcotest.list Alcotest.string) "events" [ "F\t1"; "F\t2" ]
    (Trace.to_lines t);
  check (Alcotest.list Alcotest.string) "blank lines count"
    [ "line 4: unknown-tag (fatal): unknown record tag \"Z\" in line \"Z\\tbad\"" ]
    (diag_strings diags);
  match read_both ~mode:Trace.Strict "F\t1\n\n\nZ\tbad\n" with
  | _ -> Alcotest.fail "strict accepted an unknown tag"
  | exception Trace.Invalid d ->
      check (Alcotest.option Alcotest.int) "strict line" (Some 4) d.Diag.d_line

let test_edge_crlf () =
  let t, diags = read_both "F\t1\r\nX\tfoo\r\nF\t2\n" in
  (* A CR stays in the last field: a number no longer parses, a name
     keeps it. *)
  check (Alcotest.list Alcotest.string) "events" [ "X\tfoo\\r"; "F\t2" ]
    (Trace.to_lines t);
  check (Alcotest.list Alcotest.string) "diagnostics"
    [ "line 1: malformed-field (fatal): int_of_string" ]
    (diag_strings diags)

let test_edge_empty_and_layouts_only () =
  let t, diags = read_both "" in
  check Alcotest.int "empty: events" 0 (Array.length t.Trace.events);
  check Alcotest.int "empty: layouts" 0 (List.length t.Trace.layouts);
  check Alcotest.int "empty: diagnostics" 0 (List.length diags);
  let layout = "T\t" ^ Layout.to_string example_layout in
  let t, diags = read_both (layout ^ "\n") in
  check Alcotest.int "layouts only: events" 0 (Array.length t.Trace.events);
  check (Alcotest.list Alcotest.string) "layouts only: layouts" [ layout ]
    (Trace.to_lines t);
  check Alcotest.int "layouts only: diagnostics" 0 (List.length diags)

let test_edge_reference_ints () =
  let t, diags = read_both "M\t0x10\t4\tr\tf.c:1\nF\t+5\nF\t1_000\nF\t-3\n" in
  check (Alcotest.list Alcotest.string) "prefixed ints parse as before"
    [ "M\t16\t4\tr\tf.c:1"; "F\t5"; "F\t1000"; "F\t-3" ]
    (Trace.to_lines t);
  check Alcotest.int "no diagnostics" 0 (List.length diags);
  let _, diags = read_both "F\t12345678901234567890\nF\t123456789012345678\n" in
  check (Alcotest.list Alcotest.string) "out-of-range int"
    [ "line 1: malformed-field (fatal): int_of_string" ]
    (diag_strings diags)

(* {2 Reader goldens}

   A trace damaged by [Corrupt.corrupt] at several seeds is read in
   Lenient mode (from lines and from a file) and in Strict mode; the
   diagnostics, the surviving events and the [trace.*] counters are
   pinned by digests taken from the line-list reader before the
   in-place scanner existed. *)

let golden_seeds = [ 1; 2; 3; 5; 8; 13; 21; 34 ]

let reader_digest lines =
  let path = write_temp lines in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let t, diags = Trace.read_lines ~mode:Trace.Lenient lines in
      let tf, fdiags = Trace.read ~mode:Trace.Lenient path in
      let strict =
        match Trace.read_lines ~mode:Trace.Strict lines with
        | _ -> "accepted"
        | exception Trace.Invalid d -> Diag.to_string d
      in
      let parts =
        diag_strings diags
        @ Trace.to_lines t
        @ List.map (fun d -> Diag.to_string (without_file d)) fdiags
        @ Trace.to_lines tf @ [ strict ]
      in
      Digest.to_hex (Digest.string (String.concat "\n" parts)))

let golden_reader_digests =
  [
    (1, "9ba765e13695954b7fa0e7df55ba09e7");
    (2, "b659be7af4503640c6566dd5b43791f6");
    (3, "deaae3c2619e5f3430852ef46215cb0f");
    (5, "7cdcad06825ac690cc301e59b90cda5b");
    (8, "e9ae4649be243e73e4c7c2c667f18a8f");
    (13, "000f71fc0ede02f0085ab2675d1f8e01");
    (21, "dab301d5566195cd461e319c01c32aa5");
    (34, "e9e4fd1f8fe405c9c8c5db4d79fb581c");
  ]

let test_golden_reader () =
  let lines = Lazy.force golden_lines in
  let got =
    List.map
      (fun seed ->
        let lines', _ = Corrupt.corrupt ~ops:4 ~seed lines in
        (seed, reader_digest lines'))
      golden_seeds
  in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "reader digests" golden_reader_digests got

(* [save] streams through one buffer flushed in 64 KiB chunks; the
   file must hold exactly [to_lines], one per line. *)
let test_save_streams_to_lines () =
  let t = Trace.of_lines (Lazy.force golden_lines) in
  let path = Filename.temp_file "lockdoc_test" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.save path t;
      let expected = String.concat "" (List.map (fun l -> l ^ "\n") (Trace.to_lines t)) in
      check Alcotest.bool "file is larger than one chunk" true
        (String.length expected > 1 lsl 17);
      check Alcotest.string "saved bytes" (Digest.to_hex (Digest.string expected))
        (Digest.to_hex (Digest.file path)))

let trace_counters () =
  List.filter
    (fun (name, v) ->
      v <> 0 && String.length name > 6 && String.sub name 0 6 = "trace.")
    (Lockdoc_obs.Obs.snapshot ()).Lockdoc_obs.Obs.sn_counters

let golden_counters =
  [
    ("trace.anomaly.malformed-field", 2);
    ("trace.anomaly.truncated-record", 1);
    ("trace.anomaly.unknown-tag", 2);
    ("trace.events", 16601);
    ("trace.layouts", 11);
    ("trace.recovered", 5);
    ("trace.rows", 16618);
  ]

let test_golden_counters () =
  let lines, _ = Corrupt.corrupt ~ops:4 ~seed:5 (Lazy.force golden_lines) in
  let lines = lines @ [ ""; "Z\tx"; "F\t1\t2"; "F\tnope"; "T\tbad" ] in
  let path = write_temp lines in
  let module Obs = Lockdoc_obs.Obs in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      Obs.set_enabled true;
      Obs.reset ();
      ignore (Trace.read ~mode:Trace.Lenient path);
      check
        (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
        "trace counters" golden_counters (trace_counters ()))

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
          Alcotest.test_case "save streams to_lines" `Quick
            test_save_streams_to_lines;
        ] );
      ( "reader",
        [
          Alcotest.test_case "bad file carries location" `Quick
            test_load_reports_file_and_line;
          Alcotest.test_case "lenient classification" `Quick
            test_lenient_reader_classifies;
          qtest prop_nasty_trace_roundtrip;
          qtest prop_fieldenc_oracle;
          qtest prop_fieldenc_roundtrip;
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
      ( "scanner",
        [
          qtest prop_scan_agrees;
          qtest prop_scan_mutated;
          Alcotest.test_case "accepts a workload trace" `Quick
            test_scan_accepts_workload;
          Alcotest.test_case "parse" `Quick test_scan_parse;
          Alcotest.test_case "add_line" `Quick test_add_line;
        ] );
      ( "reader edges",
        [
          Alcotest.test_case "no trailing newline" `Quick
            test_edge_no_trailing_newline;
          Alcotest.test_case "blank lines" `Quick test_edge_blank_lines;
          Alcotest.test_case "crlf" `Quick test_edge_crlf;
          Alcotest.test_case "empty and layouts only" `Quick
            test_edge_empty_and_layouts_only;
          Alcotest.test_case "reference ints" `Quick test_edge_reference_ints;
        ] );
      ( "reader goldens",
        [
          Alcotest.test_case "damaged traces" `Quick test_golden_reader;
          Alcotest.test_case "trace counters" `Quick test_golden_counters;
        ] );
    ]
