(* The streaming layer, locked down differentially.

   Three oracles anchor everything here:

   - the text format: packing a trace and unpacking it again must
     reproduce the exact event/layout sequence (byte-identical lines);
   - the batch pipeline: the online derivator's [freeze] must emit
     rules and violations byte-identical to import+derive_all on the
     same event prefix, at several prefixes, for -j 1 and -j 4;
   - the brute-force miner of [Oracle]: both paths must match its
     rules and violations byte for byte, across selection strategies,
     tac values and the fold's ablation knobs.

   Plus unit/property coverage of the codec primitives (varint/zigzag
   boundaries, interning determinism, CRC rejection of bit flips,
   torn tails, chunked feeding).

   The default run keeps the seed bank small so `dune runtest` stays
   fast; `dune build @stream` (or LOCKDOC_STREAM_SEEDS=n) widens it to
   the full pinned range. *)

module Trace = Lockdoc_trace.Trace
module Event = Lockdoc_trace.Event
module Layout = Lockdoc_trace.Layout
module Diag = Lockdoc_trace.Diag
module Import = Lockdoc_db.Import
module Run = Lockdoc_ksim.Run
module Dataset = Lockdoc_core.Dataset
module Derivator = Lockdoc_core.Derivator
module Violation = Lockdoc_core.Violation
module Report = Lockdoc_core.Report
module Rule = Lockdoc_core.Rule
module Selection = Lockdoc_core.Selection
module Varint = Lockdoc_stream.Varint
module Codec = Lockdoc_stream.Codec
module Online = Lockdoc_stream.Online
module Obs = Lockdoc_obs.Obs
module Store = Lockdoc_db.Store
module Schema = Lockdoc_db.Schema
module Kernel = Lockdoc_ksim.Kernel

let check = Alcotest.check

let n_seeds =
  match Sys.getenv_opt "LOCKDOC_STREAM_SEEDS" with
  | Some s -> (try max 1 (int_of_string s) with Failure _ -> 3)
  | None -> 3

(* ---- Codec primitives --------------------------------------------- *)

let boundary_ints =
  [
    0; 1; -1; 2; -2; 63; 64; 127; 128; 129; 255; 256; 16383; 16384;
    -16384; 1 lsl 30; -(1 lsl 30); (1 lsl 62) - 1; max_int; min_int;
    max_int - 1; min_int + 1;
  ]

let test_varint_boundaries () =
  List.iter
    (fun n ->
      let b = Buffer.create 16 in
      Varint.write_uint b n;
      let v, next = Varint.read_uint (Buffer.contents b) 0 in
      check Alcotest.int (Printf.sprintf "uint %d" n) n v;
      check Alcotest.int "uint consumed all" (Buffer.length b) next;
      let b = Buffer.create 16 in
      Varint.write_int b n;
      let v, next = Varint.read_int (Buffer.contents b) 0 in
      check Alcotest.int (Printf.sprintf "int %d" n) n v;
      check Alcotest.int "int consumed all" (Buffer.length b) next)
    boundary_ints

let test_zigzag () =
  List.iter
    (fun n ->
      check Alcotest.int
        (Printf.sprintf "zigzag bijective at %d" n)
        n
        (Varint.unzigzag (Varint.zigzag n)))
    boundary_ints;
  (* Sign transitions map to adjacent small naturals. *)
  check Alcotest.int "zz 0" 0 (Varint.zigzag 0);
  check Alcotest.int "zz -1" 1 (Varint.zigzag (-1));
  check Alcotest.int "zz 1" 2 (Varint.zigzag 1);
  check Alcotest.int "zz -2" 3 (Varint.zigzag (-2))

let test_varint_qcheck () =
  let round n =
    let b = Buffer.create 16 in
    Varint.write_int b n;
    fst (Varint.read_int (Buffer.contents b) 0) = n
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:500 ~name:"varint int round-trip"
       QCheck.int round)

let test_varint_truncation_rejected () =
  let b = Buffer.create 16 in
  Varint.write_uint b max_int;
  let s = Buffer.contents b in
  for cut = 0 to String.length s - 1 do
    match Varint.read_uint (String.sub s 0 cut) 0 with
    | exception Failure _ -> ()
    | _ -> Alcotest.failf "truncated varint (%d bytes) accepted" cut
  done

(* ---- Round-trips over every workload family ----------------------- *)

let families = Run.workload_names

let trace_lines t = Trace.to_lines t

let test_roundtrip_families () =
  List.iter
    (fun name ->
      for seed = 0 to n_seeds - 1 do
        let id = Printf.sprintf "%s/seed %d" name seed in
        let trace = Run.workload_trace ~seed:(100 + seed) name in
        let packed = Codec.encode_trace trace in
        let reparsed, diags = Codec.decode_string ~mode:Trace.Strict packed in
        check Alcotest.int (id ^ ": no diags") 0 (List.length diags);
        check
          (Alcotest.list Alcotest.string)
          (id ^ ": lines byte-identical")
          (trace_lines trace) (trace_lines reparsed);
        (* Interning and registers are deterministic: re-encoding the
           decoded trace reproduces the packed bytes exactly. *)
        check Alcotest.string (id ^ ": re-encode deterministic") packed
          (Codec.encode_trace reparsed);
        (* Compactness is the point: stay well under the text format. *)
        let text_bytes =
          List.fold_left (fun a l -> a + String.length l + 1) 0
            (trace_lines trace)
        in
        if String.length packed * 2 > text_bytes then
          Alcotest.failf "%s: packed %d bytes vs text %d — not compact" id
            (String.length packed) text_bytes
      done)
    families

(* The decoder shares one location per (file id, line). String ids are
   explicit, so a later segment may intern an id again with another
   string; locations decoded after that must name the new file. Two
   encoders each intern "file" id 0, and the second one's segment is
   appended to the first one's stream. *)
let test_reinterned_file_id () =
  let mem file =
    Event.Mem_access
      { ptr = 0x1000; size = 8; kind = Event.Read; loc = Lockdoc_trace.Srcloc.make file 5 }
  in
  let packed file =
    let out = Buffer.create 64 in
    let e = Codec.encoder (Buffer.add_string out) in
    Codec.add_event e (mem file);
    Codec.add_event e (mem file);
    Codec.close_encoder e;
    Buffer.contents out
  in
  let second = packed "fs/b.c" in
  let stream =
    packed "fs/a.c"
    ^ String.sub second (String.length Codec.magic)
        (String.length second - String.length Codec.magic)
  in
  let trace, diags = Codec.decode_string ~mode:Trace.Strict stream in
  check Alcotest.int "no diags" 0 (List.length diags);
  check
    (Alcotest.list Alcotest.string)
    "locations follow the re-interned id"
    (List.map Event.to_line [ mem "fs/a.c"; mem "fs/a.c"; mem "fs/b.c"; mem "fs/b.c" ])
    (List.map Event.to_line (Array.to_list trace.Trace.events))

(* The decoder keeps locations in arrays indexed by line. A crafted
   trace — many file names, each used once at a large line, and a line
   outside the arrays' range — must decode to the same events without
   the arrays growing with the line numbers (decoding this input
   allocates about 20 MB without the decoder's bound, 9 MB with it). *)
let test_crafted_lines () =
  let events =
    List.concat_map
      (fun k ->
        let file = Printf.sprintf "fs/f%d.c" k in
        List.map
          (fun line ->
            Event.Mem_access
              { ptr = 0x1000; size = 8; kind = Event.Read;
                loc = Lockdoc_trace.Srcloc.make file line })
          [ 60_000 + k; 3; 1 lsl 20; -5 ])
      (List.init 40 Fun.id)
  in
  let packed =
    Codec.encode_trace { Trace.layouts = []; events = Array.of_list events }
  in
  let before = Gc.allocated_bytes () in
  let trace, diags = Codec.decode_string ~mode:Trace.Strict packed in
  let allocated = Gc.allocated_bytes () -. before in
  check Alcotest.int "no diags" 0 (List.length diags);
  check
    (Alcotest.list Alcotest.string)
    "events decode as encoded"
    (List.map Event.to_line events)
    (List.map Event.to_line (Array.to_list trace.Trace.events));
  check Alcotest.bool
    (Printf.sprintf "decoding allocated %.1f MB, under 12 MB" (allocated /. 1e6))
    true (allocated < 12e6)

let test_chunked_feed () =
  let trace = Run.workload_trace ~seed:11 "pipe" in
  let packed = Codec.encode_trace trace in
  let whole, _ = Codec.decode_string packed in
  List.iter
    (fun chunk ->
      let d = Codec.decoder ~mode:Trace.Lenient () in
      let n = String.length packed in
      let pos = ref 0 in
      while !pos < n do
        let len = min chunk (n - !pos) in
        Codec.feed d (String.sub packed !pos len);
        pos := !pos + len
      done;
      let diags = Codec.finish d in
      check Alcotest.int
        (Printf.sprintf "chunk %d: no diags" chunk)
        0 (List.length diags);
      let evs = Codec.events d in
      check Alcotest.int
        (Printf.sprintf "chunk %d: event count" chunk)
        (Array.length whole.Trace.events)
        (List.length evs);
      List.iteri
        (fun i ev ->
          check Alcotest.string
            (Printf.sprintf "chunk %d: event %d" chunk i)
            (Event.to_line whole.Trace.events.(i))
            (Event.to_line ev))
        evs)
    [ 1; 7; 64; 4096 ]

let test_empty_trace () =
  let trace = { Trace.layouts = []; events = [||] } in
  let packed = Codec.encode_trace trace in
  check Alcotest.string "empty trace is just the magic" Codec.magic packed;
  let reparsed, diags = Codec.decode_string packed in
  check Alcotest.int "no diags" 0 (List.length diags);
  check Alcotest.int "no events" 0 (Array.length reparsed.Trace.events)

(* ---- Damage ------------------------------------------------------- *)

let flip_bit s ~byte ~bit =
  let b = Bytes.of_string s in
  Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl bit)));
  Bytes.to_string b

let test_crc_rejects_bit_flips () =
  let trace = Run.workload_trace ~seed:11 "device" in
  let packed = Codec.encode_trace trace in
  let n = String.length packed in
  (* A deterministic sample of positions: the magic, both header
     fields, and payload bytes spread across the file. *)
  let positions =
    [ 2; 8; 9; 12; 13; 20; n / 3; n / 2; (2 * n) / 3; n - 1 ]
    |> List.filter (fun p -> p >= 0 && p < n)
    |> List.sort_uniq compare
  in
  List.iter
    (fun byte ->
      List.iter
        (fun bit ->
          let damaged = flip_bit packed ~byte ~bit in
          (* Lenient: never raises, always reports. *)
          (match Codec.decode_string ~mode:Trace.Lenient damaged with
          | _, [] ->
              Alcotest.failf "bit flip at %d.%d went unreported" byte bit
          | _, _ -> ()
          | exception e ->
              Alcotest.failf "lenient decode raised %s on flip at %d.%d"
                (Printexc.to_string e) byte bit);
          (* Strict: refuses. *)
          match Codec.decode_string ~mode:Trace.Strict damaged with
          | exception Trace.Invalid _ -> ()
          | _ -> Alcotest.failf "strict accepted flip at %d.%d" byte bit)
        [ 0; 5 ])
    positions

let test_torn_tail () =
  let trace = Run.workload_trace ~seed:11 "symlink" in
  let packed = Codec.encode_trace trace in
  let n = String.length packed in
  List.iter
    (fun cut ->
      let torn = String.sub packed 0 cut in
      match Codec.decode_string ~mode:Trace.Lenient torn with
      | _, [] -> Alcotest.failf "cut at %d bytes went unreported" cut
      | _, diags ->
          check Alcotest.bool
            (Printf.sprintf "cut %d: truncation diagnosed" cut)
            true
            (List.exists
               (fun d -> d.Diag.d_kind = Diag.Truncated_record)
               diags)
      | exception e ->
          Alcotest.failf "lenient decode raised %s on cut at %d"
            (Printexc.to_string e) cut)
    [ 4; 11; n / 2; n - 3 ]

(* ---- Online vs batch: the differential anchor --------------------- *)

let batch_outputs trace prefix =
  let sub = { trace with Trace.events = Array.sub trace.Trace.events 0 prefix } in
  let store, _ = Import.run sub in
  let dataset = Dataset.of_store store in
  let mined = Derivator.derive_all dataset in
  ( Report.mined_to_json mined,
    Report.violations_to_json (Violation.find dataset mined) )

let test_online_matches_batch () =
  List.iter
    (fun name ->
      for seed = 0 to n_seeds - 1 do
        let id = Printf.sprintf "%s/seed %d" name seed in
        let trace = Run.workload_trace ~seed:(200 + seed) name in
        let n = Array.length trace.Trace.events in
        let prefixes =
          List.sort_uniq compare [ 0; n / 4; n / 2; (3 * n) / 4; n ]
        in
        (* One live online instance fed straight through; frozen at
           each prefix without stopping the stream. *)
        let online = Online.create trace.Trace.layouts in
        let fed = ref 0 in
        List.iter
          (fun prefix ->
            for i = !fed to prefix - 1 do
              Online.feed online trace.Trace.events.(i)
            done;
            fed := prefix;
            let ds, mined = Online.freeze online in
            let online_rules = Report.mined_to_json mined in
            let online_viol =
              Report.violations_to_json (Violation.find ds mined)
            in
            let batch_rules, batch_viol = batch_outputs trace prefix in
            check Alcotest.string
              (Printf.sprintf "%s@%d: rules" id prefix)
              batch_rules online_rules;
            check Alcotest.string
              (Printf.sprintf "%s@%d: violations" id prefix)
              batch_viol online_viol)
          prefixes
      done)
    families

(* ---- The brute-force oracle --------------------------------------- *)

(* Both derivation paths — a batch [Dataset.of_store] fold with
   [derive_all], and the online [freeze] of a live stream — against the
   brute-force miner of [Oracle], byte for byte, at five prefixes. The
   ablation knobs of the fold are covered on the batch path, where
   they are selectable; selection strategy and tac on both. *)
let test_oracle () =
  let knobs = [ (true, false); (false, false); (true, true); (false, true) ] in
  let strategies = [ Selection.Lockdoc; Selection.Naive ] in
  List.iter
    (fun name ->
      for seed = 0 to n_seeds - 1 do
        let trace = Run.workload_trace ~seed:(200 + seed) name in
        let n = Array.length trace.Trace.events in
        let online = Online.create trace.Trace.layouts in
        let fed = ref 0 in
        List.iter
          (fun prefix ->
            for i = !fed to prefix - 1 do
              Online.feed online trace.Trace.events.(i)
            done;
            fed := prefix;
            let sub =
              { trace with Trace.events = Array.sub trace.Trace.events 0 prefix }
            in
            let store, _ = Import.run sub in
            List.iter
              (fun (wor, side_sensitive) ->
                let dataset = Dataset.of_store ~wor ~side_sensitive store in
                List.iter
                  (fun strategy ->
                    List.iter
                      (fun tac ->
                        let id =
                          Printf.sprintf "%s/seed %d@%d wor=%b side=%b %s tac %.1f"
                            name seed prefix wor side_sensitive
                            (match strategy with
                            | Selection.Lockdoc -> "lockdoc"
                            | Selection.Naive -> "naive")
                            tac
                        in
                        let rules, violations =
                          Oracle.outputs ~wor ~side_sensitive ~strategy ~tac store
                        in
                        let agree path (ds, mined) =
                          check Alcotest.string (id ^ ": " ^ path ^ " rules") rules
                            (Report.mined_to_json mined);
                          check Alcotest.string (id ^ ": " ^ path ^ " violations")
                            violations
                            (Report.violations_to_json (Violation.find ds mined))
                        in
                        agree "derive_all"
                          (dataset, Derivator.derive_all ~strategy ~tac dataset);
                        if wor && not side_sensitive then
                          agree "online" (Online.freeze ~strategy ~tac online))
                      [ 0.5; 0.9 ])
                  strategies)
              knobs)
          (List.sort_uniq compare [ 0; n / 4; n / 2; (3 * n) / 4; n ])
      done)
    families

(* ---- The freeze memo ---------------------------------------------- *)

(* Each group memoizes its last rule; these pin that a memo never
   outlives a change to its group or to the (strategy, tac) it was
   scored with. Every check compares against batch mining of the same
   prefix. *)

let batch_mined ?strategy ?tac trace prefix =
  let sub = { trace with Trace.events = Array.sub trace.Trace.events 0 prefix } in
  let store, _ = Import.run sub in
  Derivator.derive_all ?strategy ?tac (Dataset.of_store store)

let rescored = Obs.counter "stream.online.rescored"
let flips = Obs.counter "stream.online.flips"

let with_metrics f =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) f

(* A freeze's rules JSON and the number of groups it re-scored. *)
let counted_freeze online =
  let before = Obs.counter_value rescored in
  let _, mined = Online.freeze online in
  (Report.mined_to_json mined, Obs.counter_value rescored - before)

let memo_trace = lazy (Run.workload_trace ~seed:201 "fs_bench")

let test_repeat_freeze_hits_memo () =
  with_metrics @@ fun () ->
  let trace = Lazy.force memo_trace in
  let n = Array.length trace.Trace.events in
  let online = Online.create trace.Trace.layouts in
  for i = 0 to (n / 2) - 1 do
    Online.feed online trace.Trace.events.(i)
  done;
  let first, scored = counted_freeze online in
  let again, rescored_again = counted_freeze online in
  check Alcotest.bool "first freeze scores groups" true (scored > 0);
  check Alcotest.int "second freeze re-scores nothing" 0 rescored_again;
  check Alcotest.string "second freeze is byte-identical" first again;
  check Alcotest.string "memoized rules match batch"
    (Report.mined_to_json (batch_mined trace (n / 2)))
    again;
  for i = n / 2 to n - 1 do
    Online.feed online trace.Trace.events.(i)
  done;
  let full, rescored_full = counted_freeze online in
  check Alcotest.bool "feeding dirties some groups" true (rescored_full > 0);
  check Alcotest.string "after more feed: rules match batch"
    (Report.mined_to_json (batch_mined trace n))
    full

let test_memo_honours_tac () =
  let trace = Lazy.force memo_trace in
  let n = Array.length trace.Trace.events in
  let online = Online.create trace.Trace.layouts in
  Array.iter (Online.feed online) trace.Trace.events;
  let at ?strategy tac =
    let _, mined = Online.freeze ?strategy ~tac online in
    let rules = Report.mined_to_json mined in
    check Alcotest.string
      (Printf.sprintf "tac %.1f: rules match batch" tac)
      (Report.mined_to_json (batch_mined ?strategy ~tac trace n))
      rules;
    rules
  in
  let high = at 0.9 in
  let low = at 0.5 in
  (* The strategy is part of the memo key too. *)
  let naive = at ~strategy:Lockdoc_core.Selection.Naive 0.5 in
  let high' = at 0.9 in
  check Alcotest.bool "the trace has a tac-sensitive rule" true (high <> low);
  check Alcotest.bool "the trace has a strategy-sensitive rule" true
    (naive <> low);
  check Alcotest.string "back at 0.9: same bytes" high high'

let test_memoized_json () =
  let trace = Lazy.force memo_trace in
  let n = Array.length trace.Trace.events in
  let online = Online.create trace.Trace.layouts in
  let fed = ref 0 in
  List.iter
    (fun prefix ->
      for i = !fed to prefix - 1 do
        Online.feed online trace.Trace.events.(i)
      done;
      fed := prefix;
      let _, rules = Online.freeze_json online in
      List.iter
        (fun (m, json) ->
          check Alcotest.string
            (Printf.sprintf "@%d: %s/%s object" prefix m.Derivator.m_type
               m.Derivator.m_member)
            (Report.mined_rule_to_json m) json)
        rules;
      check Alcotest.string
        (Printf.sprintf "@%d: joined objects match batch" prefix)
        (Report.mined_to_json (batch_mined trace prefix))
        ("[" ^ String.concat "," (List.map snd rules) ^ "]"))
    (List.sort_uniq compare [ 0; n / 4; n / 2; (3 * n) / 4; n ])

(* An R -> W flip moves a cell between two groups without adding an
   observation: the write group must be re-scored, and so must the
   read group when it keeps other cells. Freeze right before each flip
   (so every memo is warm) and right after it, until three flips have
   left their read group non-empty. *)
let test_flips_match_batch () =
  with_metrics @@ fun () ->
  let trace = Lazy.force memo_trace in
  let n = Array.length trace.Trace.events in
  let online = Online.create trace.Trace.layouts in
  let read_totals mined =
    List.filter_map
      (fun (m : Derivator.mined) ->
        if m.Derivator.m_kind = Rule.R then
          Some ((m.Derivator.m_type, m.Derivator.m_member), m.Derivator.m_total)
        else None)
      mined
  in
  let shrunk = ref 0 and i = ref 0 in
  while !shrunk < 3 && !i < n do
    let before = Obs.counter_value flips in
    ignore (Online.freeze online);
    Online.feed online trace.Trace.events.(!i);
    incr i;
    if Obs.counter_value flips > before then begin
      let rules, scored = counted_freeze online in
      let batch = batch_mined trace !i in
      check Alcotest.bool (Printf.sprintf "flip @%d: re-scored" !i) true
        (scored >= 1);
      check Alcotest.string
        (Printf.sprintf "flip @%d: rules match batch" !i)
        (Report.mined_to_json batch) rules;
      let prev = read_totals (batch_mined trace (!i - 1)) in
      if
        List.exists
          (fun (k, total) -> List.assoc_opt k prev = Some (total + 1))
          (read_totals batch)
      then incr shrunk
    end
  done;
  check Alcotest.int "flips that left their read group non-empty" 3 !shrunk

(* ---- Violation memo ----------------------------------------------- *)

(* [Online.freeze_report] memoizes each group's violations by its
   touched counter and winning rule. A flip moves a cell between two
   groups; a repeat access only raises a cell's [o_events], which the
   violation's "events" field prints. Freeze after every event, so
   every memo is warm when such an event lands, and compare: right
   after every flip and repeat access, with [Violation.find] on the
   same live dataset; at evenly spaced points, with batch mining of the
   same prefix. *)

let join objs = "[" ^ String.concat "," objs ^ "]"

let check_against_find label online (rules, violations) =
  let expected = Violation.find (Online.dataset online) (List.map fst rules) in
  check Alcotest.bool (label ^ ": lists equal Violation.find") true
    (List.concat_map fst violations = expected);
  check Alcotest.string (label ^ ": violations json")
    (Report.violations_to_json expected)
    (join (List.map snd violations))

let check_against_batch label trace prefix (rules, violations) =
  let batch_rules, batch_viol = batch_outputs trace prefix in
  check Alcotest.string (label ^ ": rules match batch") batch_rules
    (join (List.map snd rules));
  check Alcotest.string (label ^ ": violations match batch") batch_viol
    (join (List.map snd violations))

(* Returns the number of flips and of repeat accesses checked, and of
   repeat accesses that changed the violations. [max_checks] bounds the
   [Violation.find] comparisons of each kind. *)
let memo_run ~max_checks trace =
  with_metrics @@ fun () ->
  let n = Array.length trace.Trace.events in
  let online = Online.create trace.Trace.layouts in
  let st = Online.store online in
  let cells = Hashtbl.create 4096 in
  let grid = max 1 (n / 16) in
  let flips_checked = ref 0 and repeats_checked = ref 0 in
  let repeats_moved = ref 0 and prev = ref "" in
  for i = 0 to n - 1 do
    let rows = Store.n_accesses st and before = Obs.counter_value flips in
    Online.feed online trace.Trace.events.(i);
    let flipped = Obs.counter_value flips > before in
    let repeated = ref false in
    for id = rows to Store.n_accesses st - 1 do
      let a = Store.access st id in
      Option.iter
        (fun txn ->
          let cell = (a.Schema.ac_alloc, a.Schema.ac_member, txn) in
          if Hashtbl.mem cells cell then repeated := true
          else Hashtbl.replace cells cell ())
        a.Schema.ac_txn
    done;
    let report = Online.freeze_report online in
    let viol = join (List.map snd (snd report)) in
    let label = Printf.sprintf "@%d" (i + 1) in
    if flipped && !flips_checked < max_checks then begin
      incr flips_checked;
      check_against_find ("flip " ^ label) online report
    end
    else if !repeated && (not flipped) && !repeats_checked < max_checks then begin
      incr repeats_checked;
      if viol <> !prev then incr repeats_moved;
      check_against_find ("repeat " ^ label) online report
    end;
    if (i + 1) mod grid = 0 || i + 1 = n then
      check_against_batch label trace (i + 1) report;
    prev := viol
  done;
  (!flips_checked, !repeats_checked, !repeats_moved)

let test_violation_memo () =
  let flips, repeats, _ = memo_run ~max_checks:100 (Lazy.force memo_trace) in
  check Alcotest.int "fs_bench: flips checked" 100 flips;
  check Alcotest.int "fs_bench: repeat accesses checked" 100 repeats;
  List.iter
    (fun seed ->
      let flips, repeats, moved = memo_run ~max_checks:max_int (Widgets.trace seed) in
      let label = Printf.sprintf "widgets seed %d" seed in
      check Alcotest.bool (label ^ ": flips checked") true (flips >= 20);
      check Alcotest.bool (label ^ ": repeat accesses checked") true (repeats >= 100);
      check Alcotest.bool (label ^ ": repeat accesses changed the violations")
        true (moved >= 20))
    [ 1; 2; 3 ]

(* [Online.freeze_report] assembles its violations from memos, not
   through [Violation.find], but moves the same metrics: the rules it
   was given and the violations it returned. Checked at eight points,
   on a fresh freeze and on a repeat that hits every memo. *)
let v_groups = Obs.counter "violations.groups"
let v_found = Obs.counter "violations.found"

let counted f =
  let groups = Obs.counter_value v_groups and found = Obs.counter_value v_found in
  let r = f () in
  (r, Obs.counter_value v_groups - groups, Obs.counter_value v_found - found)

let test_violation_metrics () =
  with_metrics @@ fun () ->
  let trace = Widgets.trace 1 in
  let n = Array.length trace.Trace.events in
  let online = Online.create trace.Trace.layouts in
  let fed = ref 0 and total = ref 0 in
  List.iter
    (fun prefix ->
      for i = !fed to prefix - 1 do
        Online.feed online trace.Trace.events.(i)
      done;
      fed := prefix;
      List.iter
        (fun pass ->
          let label = Printf.sprintf "@%d %s" prefix pass in
          let (rules, _), groups, found =
            counted (fun () -> Online.freeze_report online)
          in
          let _, groups', found' =
            counted (fun () ->
                Violation.find (Online.dataset online) (List.map fst rules))
          in
          check Alcotest.int (label ^ ": violations.groups") groups' groups;
          check Alcotest.int (label ^ ": violations.found") found' found;
          total := !total + found)
        [ "fresh"; "repeat" ])
    (List.init 8 (fun k -> (k + 1) * n / 8));
  check Alcotest.bool "violations were counted" true (!total > 0)

(* The benchmark's largest input shape — the mix at scale 4, with the
   most write-over-read flips — streamed through the online derivator
   at a seed other than the benchmark's, its reports checked against
   batch mining at eight points. *)
let test_scale4_mix () =
  let trace =
    let config =
      { Run.kernel = { Kernel.default_config with Kernel.seed = 11 };
        Run.scale = 4; Run.faults = true }
    in
    fst (Run.benchmark_mix ~config ())
  in
  let n = Array.length trace.Trace.events in
  let online = Online.create trace.Trace.layouts in
  let fed = ref 0 in
  List.iter
    (fun prefix ->
      for i = !fed to prefix - 1 do
        Online.feed online trace.Trace.events.(i)
      done;
      fed := prefix;
      check_against_batch
        (Printf.sprintf "mix seed 11 scale 4 @%d" prefix)
        trace prefix (Online.freeze_report online))
    (List.init 8 (fun k -> (k + 1) * n / 8))

(* Feeding from the packed binary through the incremental decoder into
   the online derivator — the whole streaming path end to end. *)
let test_streamed_binary_pipeline () =
  let trace = Run.workload_trace ~seed:11 "fs_inod" in
  let packed = Codec.encode_trace trace in
  let dec = Codec.decoder () in
  let online = ref None in
  let n = String.length packed in
  let pos = ref 0 in
  while !pos < n do
    let len = min 4096 (n - !pos) in
    Codec.feed dec (String.sub packed !pos len);
    pos := !pos + len;
    List.iter
      (fun ev ->
        let o =
          match !online with
          | Some o -> o
          | None ->
              (* Layout records all precede the first event in a packed
                 trace, so the engine can start at the first event. *)
              let o = Online.create (Codec.layouts dec) in
              online := Some o;
              o
        in
        Online.feed o ev)
      (Codec.events dec)
  done;
  check Alcotest.int "no decode diags" 0 (List.length (Codec.finish dec));
  let o = Option.get !online in
  let _, mined = Online.freeze o in
  let batch_rules, _ =
    batch_outputs trace (Array.length trace.Trace.events)
  in
  check Alcotest.string "binary-streamed rules match batch" batch_rules
    (Report.mined_to_json mined)

let () =
  Alcotest.run "stream"
    [
      ( "codec-primitives",
        [
          Alcotest.test_case "varint boundaries" `Quick test_varint_boundaries;
          Alcotest.test_case "zigzag" `Quick test_zigzag;
          Alcotest.test_case "varint qcheck" `Quick test_varint_qcheck;
          Alcotest.test_case "truncated varint rejected" `Quick
            test_varint_truncation_rejected;
        ] );
      ( "round-trip",
        [
          Alcotest.test_case
            (Printf.sprintf "families (%d seeds)" n_seeds)
            `Slow test_roundtrip_families;
          Alcotest.test_case "re-interned file id" `Quick test_reinterned_file_id;
          Alcotest.test_case "crafted line numbers" `Quick test_crafted_lines;
          Alcotest.test_case "chunked feeding" `Quick test_chunked_feed;
          Alcotest.test_case "empty trace" `Quick test_empty_trace;
        ] );
      ( "damage",
        [
          Alcotest.test_case "CRC rejects bit flips" `Quick
            test_crc_rejects_bit_flips;
          Alcotest.test_case "torn tails diagnosed" `Quick test_torn_tail;
        ] );
      ( "online-vs-batch",
        [
          Alcotest.test_case
            (Printf.sprintf "differential (%d seeds)" n_seeds)
            `Slow test_online_matches_batch;
          Alcotest.test_case "binary streamed pipeline" `Quick
            test_streamed_binary_pipeline;
        ] );
      ( "oracle",
        [
          Alcotest.test_case
            (Printf.sprintf "brute force (%d seeds)" n_seeds)
            `Slow test_oracle;
        ] );
      ( "freeze-memo",
        [
          Alcotest.test_case "repeat freeze re-scores nothing" `Quick
            test_repeat_freeze_hits_memo;
          Alcotest.test_case "memo honours tac and strategy" `Quick
            test_memo_honours_tac;
          Alcotest.test_case "memoized rule json" `Quick test_memoized_json;
          Alcotest.test_case "R->W flips match batch" `Quick
            test_flips_match_batch;
          Alcotest.test_case "violation memo over flips and repeats" `Quick
            test_violation_memo;
          Alcotest.test_case "violation metrics match find" `Quick
            test_violation_metrics;
          Alcotest.test_case "scale-4 mix, seed 11" `Slow test_scale4_mix;
        ] );
    ]
