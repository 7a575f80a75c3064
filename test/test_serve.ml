(* The serve daemon: framing, protocol, sans-IO engine, chaos matrix.

   Layers under test, bottom up:

   - [Frame]: incremental codec units plus the satellite differential
     against the WAL segment reader — the wire protocol *is* the WAL
     record discipline, so the same byte stream must parse identically
     through both, including under byte-dribbling and torn tails.
   - [Proto]: message round-trips and malformed-payload rejection.
   - [Server]: the sans-IO engine driven directly with virtual time —
     sequencing (nack / idempotent retransmit / seal-count guard),
     inline ingest (a rejected row fails its session inside the call
     that delivers it), fault isolation (garbled connection vs crashed
     worker), the supervisor (backoff, durable rebuild, permanent
     failure, a crash inside the seal), timeouts,
     supersede, shutdown; debounced rule-subscription pushes checked
     against a [stream] query at the same watermark. Every completed
     session
     checks the byte-identity oracle: mined rules and violations equal
     to the batch pipeline's.
   - [Chaos]: one run per fault family and per transport segmentation
     model (seeded; the @chaos alias and LOCKDOC_CHAOS_SEEDS widen the
     matrix), asserting the fault actually bit via the evidence
     counters.
   - [Sockserv]: a forked daemon on a real Unix socket — and again on
     TCP — two sessions fed through the reconnect-capable client,
     follow-mode pushes, status query, shutdown. *)

module Frame = Lockdoc_serve.Frame
module Proto = Lockdoc_serve.Proto
module Server = Lockdoc_serve.Server
module Chaos = Lockdoc_serve.Chaos
module Sockserv = Lockdoc_serve.Sockserv
module Wal = Lockdoc_db.Wal
module Record = Lockdoc_db.Record
module Import = Lockdoc_db.Import
module Crashpoint = Lockdoc_db.Crashpoint
module Trace = Lockdoc_trace.Trace
module Run = Lockdoc_ksim.Run
module Dataset = Lockdoc_core.Dataset
module Derivator = Lockdoc_core.Derivator
module Violation = Lockdoc_core.Violation
module Report = Lockdoc_core.Report

let check = Alcotest.check

let n_seeds =
  match Sys.getenv_opt "LOCKDOC_CHAOS_SEEDS" with
  | Some s -> (try max 1 (int_of_string s) with Failure _ -> 1)
  | None -> 1

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* ---- Shared fixtures ---------------------------------------------- *)

let pipe_trace = lazy (Run.workload_trace "pipe")
let device_trace = lazy (Run.workload_trace "device")

(* The batch oracle, as [Chaos.batch_reference]: the seal's online
   derivation must reproduce it byte for byte — same import engine,
   thresholds and report serialisation. *)
let batch_ref ?(tac = 0.9) ?(jobs = 1) (trace : Trace.t) =
  let g = Import.engine trace.layouts in
  Array.iter (Import.feed g) trace.events;
  ignore (Import.finalize g);
  let dataset = Dataset.of_store (Import.engine_store g) in
  let mined = Derivator.derive_all ~tac ~jobs dataset in
  let rules = Report.mined_to_json mined in
  let violations =
    Report.violations_to_json (Violation.find ~jobs dataset mined)
  in
  (Array.length trace.events, rules, violations)

(* ---- Frame codec -------------------------------------------------- *)

let drain d =
  let rec go acc =
    match Frame.next d with
    | Frame.Frame p -> go (p :: acc)
    | Frame.Awaiting -> List.rev acc
    | Frame.Corrupt reason -> Alcotest.failf "unexpected corrupt: %s" reason
  in
  go []

let sample_payloads =
  [ ""; "a"; "hello\tworld\nsecond line"; String.make 1200 'x'; "rows\t0\t0" ]

let test_frame_roundtrip () =
  let d = Frame.decoder () in
  List.iter (fun p -> Frame.feed d (Frame.encode p)) sample_payloads;
  check (Alcotest.list Alcotest.string) "payloads" sample_payloads (drain d);
  check Alcotest.int "fully consumed" 0 (Frame.buffered d)

let test_frame_chunked () =
  let stream = String.concat "" (List.map Frame.encode sample_payloads) in
  List.iter
    (fun chunk ->
      let d = Frame.decoder () in
      let got = ref [] in
      let off = ref 0 in
      while !off < String.length stream do
        let len = min chunk (String.length stream - !off) in
        Frame.feed d ~off:!off ~len stream;
        got := !got @ drain d;
        off := !off + len
      done;
      check
        (Alcotest.list Alcotest.string)
        (Printf.sprintf "chunk=%d" chunk)
        sample_payloads !got)
    [ 1; 2; 3; 7; String.length stream ]

let test_frame_corrupt_latches () =
  let f = Frame.encode "some payload" in
  let bad = Bytes.of_string f in
  (* Flip a payload bit: the CRC check must catch it. *)
  Bytes.set bad (Record.header_bytes + 3)
    (Char.chr (Char.code (Bytes.get bad (Record.header_bytes + 3)) lxor 0x40));
  let d = Frame.decoder () in
  Frame.feed d (Bytes.to_string bad);
  (match Frame.next d with
  | Frame.Corrupt _ -> ()
  | _ -> Alcotest.fail "expected Corrupt after bit flip");
  (* Latched: further valid bytes cannot resynchronise a live stream. *)
  Frame.feed d (Frame.encode "valid");
  (match Frame.next d with
  | Frame.Corrupt _ -> ()
  | _ -> Alcotest.fail "Corrupt must be permanent");
  check Alcotest.bool "is_corrupt" true (Frame.is_corrupt d)

let test_frame_length_ceiling () =
  (* A decoder with a lowered ceiling rejects a frame the default
     encoder happily produces — before buffering the payload. *)
  let d = Frame.decoder ~max_frame:64 () in
  Frame.feed d (Frame.encode (String.make 100 'y'));
  match Frame.next d with
  | Frame.Corrupt _ -> ()
  | _ -> Alcotest.fail "expected Corrupt for over-limit length"

(* ---- Satellite: frame decoder vs WAL segment reader --------------- *)

let wal_payloads parsed = List.map snd parsed.Wal.ps_records

let test_frame_wal_differential () =
  let stream = String.concat "" (List.map Frame.encode sample_payloads) in
  (* Complete stream: both parsers yield the same payload sequence and
     the WAL reader sees no torn tail. *)
  let parsed = Wal.parse_segment ~start:0 stream in
  check
    (Alcotest.list Alcotest.string)
    "wal sees the frame payloads" sample_payloads (wal_payloads parsed);
  check Alcotest.bool "no torn tail" true (parsed.Wal.ps_torn = None);
  (* Byte-dribbled decode equals the WAL parse for every chunk size. *)
  List.iter
    (fun chunk ->
      let d = Frame.decoder () in
      let got = ref [] in
      let off = ref 0 in
      while !off < String.length stream do
        let len = min chunk (String.length stream - !off) in
        Frame.feed d ~off:!off ~len stream;
        got := !got @ drain d;
        off := !off + len
      done;
      check
        (Alcotest.list Alcotest.string)
        (Printf.sprintf "dribble chunk=%d equals wal" chunk)
        (wal_payloads parsed) !got)
    [ 1; 2; 3; 7 ]

let test_frame_wal_torn_tail () =
  (* Every truncation point: the live decoder treats the torn tail as
     Awaiting (more bytes may come), the WAL reader as a torn record —
     and both deliver exactly the same complete prefix. *)
  let stream = String.concat "" (List.map Frame.encode sample_payloads) in
  for cut = 0 to String.length stream - 1 do
    let prefix = String.sub stream 0 cut in
    let parsed = Wal.parse_segment ~start:0 prefix in
    let d = Frame.decoder () in
    Frame.feed d prefix;
    let frames = drain d in
    check
      (Alcotest.list Alcotest.string)
      (Printf.sprintf "cut=%d same records" cut)
      (wal_payloads parsed) frames;
    check Alcotest.bool
      (Printf.sprintf "cut=%d truncation is not corruption" cut)
      false (Frame.is_corrupt d)
  done

let test_frame_wal_bitflip () =
  (* Damage inside the middle record: both parsers must deliver the
     records before it, then flag the damage (decoder latches Corrupt;
     WAL reader reports a torn/damaged tail and stops). *)
  let stream = String.concat "" (List.map Frame.encode sample_payloads) in
  let first_two =
    String.length (Frame.encode (List.nth sample_payloads 0))
    + String.length (Frame.encode (List.nth sample_payloads 1))
  in
  let flip_at = first_two + Record.header_bytes + 2 in
  let bad = Bytes.of_string stream in
  Bytes.set bad flip_at (Char.chr (Char.code (Bytes.get bad flip_at) lxor 1));
  let bad = Bytes.to_string bad in
  let expected = [ List.nth sample_payloads 0; List.nth sample_payloads 1 ] in
  let parsed = Wal.parse_segment ~start:0 bad in
  check
    (Alcotest.list Alcotest.string)
    "wal keeps the clean prefix" expected (wal_payloads parsed);
  check Alcotest.bool "wal flags the damage" true (parsed.Wal.ps_torn <> None);
  let d = Frame.decoder () in
  Frame.feed d bad;
  let rec collect acc =
    match Frame.next d with
    | Frame.Frame p -> collect (p :: acc)
    | Frame.Awaiting -> Alcotest.fail "decoder must notice the bit flip"
    | Frame.Corrupt _ -> List.rev acc
  in
  check
    (Alcotest.list Alcotest.string)
    "decoder keeps the clean prefix" expected (collect [])

(* ---- Proto -------------------------------------------------------- *)

let client_msgs : Proto.client_msg list =
  [
    Hello { version = Proto.version; session = "abc-1.2_X" };
    Rows { start = 0; lines = [] };
    Rows { start = 17; lines = [ "E\topen\tfs/open.c:12"; "T\tfoo;8;f,0,4,d" ] };
    Seal { rows = 0 };
    Seal { rows = 123456 };
    Query Status;
    Query Metrics;
    Ping;
    Bye;
    Shutdown;
  ]

let server_msgs : Proto.server_msg list =
  [
    Welcome { resume = 42 };
    Nack { expected = 7 };
    Retry_after { ms = 50; reason = "at max-clients\t(64)" };
    Retry_after { ms = 10; reason = "backoff" };
    Err { code = "garbled"; reason = "crc mismatch\nat byte 9" };
    Pong;
    Sealed { events = 9; rules = "{\"rules\":[]}"; violations = "{}" };
    Info { json = "{\"sessions\":[]}" };
    Closing { reason = "idle-timeout" };
  ]

let test_proto_roundtrip () =
  List.iter
    (fun m ->
      match Proto.client_of_payload (Proto.client_to_payload m) with
      | Ok m' ->
          check Alcotest.bool "client msg round-trips" true (m = m')
      | Error e -> Alcotest.failf "client decode failed: %s" e)
    client_msgs;
  List.iter
    (fun m ->
      match Proto.server_of_payload (Proto.server_to_payload m) with
      | Ok m' ->
          check Alcotest.bool "server msg round-trips" true (m = m')
      | Error e -> Alcotest.failf "server decode failed: %s" e)
    server_msgs

let test_proto_rejects_malformed () =
  let bad =
    [
      "";
      "frobnicate";
      "hello\tnot-a-number\tsess";
      "rows\t-1\t0";
      "rows\t0\t2\nonly one row";
      "seal";
      "seal\t-5";
      "query\tbogus";
    ]
  in
  List.iter
    (fun payload ->
      match Proto.client_of_payload payload with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed payload %S" payload)
    bad;
  (* Replies: a version-1 [retry-after] still carried a resend
     watermark; version 2 has no such field. *)
  List.iter
    (fun payload ->
      match Proto.server_of_payload payload with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed reply %S" payload)
    [ ""; "retry-after\t50\t3\tqueue full"; "retry-after\tsoon\tx"; "nack" ]

(* ---- Server engine (sans-IO, virtual time) ------------------------ *)

let enc m = Frame.encode (Proto.client_to_payload m)
let send srv ~now cid m = Server.on_bytes srv ~now cid (enc m)

let expect_silent label = function
  | [] -> ()
  | outs -> Alcotest.failf "%s: expected no outputs, got %d" label
              (List.length outs)

let only_send label = function
  | [ Server.Send (cid, m) ] -> (cid, m)
  | outs ->
      Alcotest.failf "%s: expected exactly one Send, got %d outputs" label
        (List.length outs)

let expect_welcome label outs =
  match only_send label outs with
  | _, Proto.Welcome { resume } -> resume
  | _ -> Alcotest.failf "%s: expected Welcome" label

let expect_err_close label code = function
  | [ Server.Send (_, Proto.Err { code = c; _ }); Server.Close _ ] ->
      check Alcotest.string label code c
  | _ -> Alcotest.failf "%s: expected Err %s + Close" label code

let session_view srv id =
  match List.find_opt (fun v -> v.Server.v_id = id) (Server.sessions srv) with
  | Some v -> v
  | None -> Alcotest.failf "session %s not found" id

let connect srv ~now session =
  let cid, outs = Server.accept srv ~now in
  expect_silent "accept" outs;
  let resume =
    expect_welcome "hello"
      (send srv ~now cid
         (Proto.Hello { version = Proto.version; session }))
  in
  (cid, resume)

(* Send one rows frame; an accepted frame is answered by silence. *)
let send_rows srv ~now cid ~start lines =
  expect_silent "rows" (send srv ~now cid (Proto.Rows { start; lines }))

let rec batches n = function
  | [] -> []
  | l ->
      let rec take k acc = function
        | x :: tl when k > 0 -> take (k - 1) (x :: acc) tl
        | rest -> (List.rev acc, rest)
      in
      let b, rest = take n [] l in
      b :: batches n rest

let stream_all srv ~now cid ?(batch = 200) ~start lines =
  let cursor = ref start in
  List.iter
    (fun b ->
      send_rows srv ~now cid ~start:!cursor b;
      cursor := !cursor + List.length b)
    (batches batch lines)

let expect_sealed label outs =
  match only_send label outs with
  | _, Proto.Sealed { events; rules; violations } -> (events, rules, violations)
  | _ -> Alcotest.failf "%s: expected Sealed" label

let check_oracle label trace (events, rules, violations) =
  let e, r, v = batch_ref trace in
  check Alcotest.int (label ^ ": events") e events;
  check Alcotest.string (label ^ ": rules byte-identical") r rules;
  check Alcotest.string (label ^ ": violations byte-identical") v violations

let test_server_seal_oracle () =
  let trace = Lazy.force pipe_trace in
  let lines = Trace.to_lines trace in
  let total = List.length lines in
  let srv = Server.create () in
  let now = 0.0 in
  let cid, resume = connect srv ~now "s1" in
  check Alcotest.int "fresh session resumes at 0" 0 resume;
  stream_all srv ~now cid ~start:0 lines;
  let sealed =
    expect_sealed "seal" (send srv ~now cid (Proto.Seal { rows = total }))
  in
  check_oracle "pipe via serve" trace sealed;
  (* Sealing is idempotent: the cached result comes back byte-identical. *)
  let again =
    expect_sealed "re-seal" (send srv ~now cid (Proto.Seal { rows = total }))
  in
  check Alcotest.bool "re-seal returns the cached result" true (sealed = again);
  check Alcotest.string "state" "sealed" (session_view srv "s1").Server.v_state

let test_server_nack_and_idempotency () =
  let lines = Trace.to_lines (Lazy.force pipe_trace) in
  let b = batches 50 lines in
  let b0 = List.nth b 0 and b1 = List.nth b 1 in
  let srv = Server.create () in
  let now = 0.0 in
  let cid, _ = connect srv ~now "s" in
  expect_silent "first frame" (send srv ~now cid (Proto.Rows { start = 0; lines = b0 }));
  (* A gap answers Nack with the accepted watermark... *)
  (match only_send "gap" (send srv ~now cid (Proto.Rows { start = 120; lines = b1 })) with
  | _, Proto.Nack { expected } -> check Alcotest.int "nack watermark" 50 expected
  | _ -> Alcotest.fail "expected Nack on sequence gap");
  (* ... a pure retransmission is absorbed silently ... *)
  expect_silent "retransmit" (send srv ~now cid (Proto.Rows { start = 0; lines = b0 }));
  check Alcotest.int "accepted unchanged" 50 (session_view srv "s").Server.v_accepted;
  (* ... and an overlapping frame contributes only its fresh suffix. *)
  let overlap =
    List.filteri (fun i _ -> i >= 40) b0 @ b1
  in
  expect_silent "overlap" (send srv ~now cid (Proto.Rows { start = 40; lines = overlap }));
  check Alcotest.int "accepted after overlap" 100
    (session_view srv "s").Server.v_accepted

(* A retransmitted frame is judged on its fresh suffix only: rows the
   session already accepted are not parsed again, so garbage in that
   prefix neither costs a parse nor rejects the rows after it. *)
let test_server_retransmit_parses_fresh_only () =
  let lines = Trace.to_lines (Lazy.force pipe_trace) in
  let row0 = List.nth lines 0 and row1 = List.nth lines 1 in
  let srv = Server.create () in
  let now = 0.0 in
  let cid, _ = connect srv ~now "s" in
  expect_silent "row 0" (send srv ~now cid (Proto.Rows { start = 0; lines = [ row0 ] }));
  expect_silent "garbage in the accepted prefix"
    (send srv ~now cid (Proto.Rows { start = 0; lines = [ "garbage"; row1 ] }));
  check Alcotest.int "row 1 applied" 2 (session_view srv "s").Server.v_accepted

let test_server_seal_count_guard () =
  let lines = Trace.to_lines (Lazy.force pipe_trace) in
  let b0 = List.hd (batches 50 lines) in
  let srv = Server.create () in
  let now = 0.0 in
  let cid, _ = connect srv ~now "s" in
  expect_silent "rows" (send srv ~now cid (Proto.Rows { start = 0; lines = b0 }));
  (* The client thinks it streamed more rows than the server accepted:
     frames were lost in the tail. Seal must refuse and rewind. *)
  match only_send "seal mismatch" (send srv ~now cid (Proto.Seal { rows = 80 })) with
  | _, Proto.Nack { expected } -> check Alcotest.int "rewind to" 50 expected
  | _ -> Alcotest.fail "expected Nack on seal row-count mismatch"

let take_bytes budget lines =
  let rec go acc b = function
    | l :: tl when b + String.length l + 1 <= budget ->
        go (l :: acc) (b + String.length l + 1) tl
    | rest -> (List.rev acc, rest)
  in
  go [] 0 lines

(* Rows are applied inside the [on_bytes] call that delivers them: a
   row the engine rejects (a free of a pointer that was never
   allocated, fatal in strict mode) fails the session in that same
   call, the journal holds exactly the rows before it, and a reconnect
   resumes there. *)
let test_server_rows_apply_inline () =
  let root = temp_dir "serve_inline" in
  Fun.protect
    ~finally:(fun () -> rm_rf root)
    (fun () ->
      let lines = Trace.to_lines (Lazy.force pipe_trace) in
      let prefix, rest = take_bytes 9000 lines in
      let n = List.length prefix in
      let bad_frame =
        match rest with
        | a :: b :: c :: d :: _ -> [ a; b; "F\t1879048192"; c; d ]
        | _ -> Alcotest.fail "trace too short"
      in
      let cfg = { Server.default_config with durable_root = Some root } in
      let srv = Server.create ~config:cfg () in
      let cid, _ = connect srv ~now:0.0 "s" in
      send_rows srv ~now:0.0 cid ~start:0 prefix;
      expect_err_close "rejected row fails the session in the call"
        "session-failed"
        (send srv ~now:0.0 cid (Proto.Rows { start = n; lines = bad_frame }));
      let replayed, _ =
        Wal.replay ~dir:(Filename.concat root "session-s") ~from:0 ignore
      in
      check Alcotest.int "journal holds the rows before the rejected one"
        (n + 2) replayed;
      let _, resume = connect srv ~now:1.0 "s" in
      check Alcotest.int "reconnect resumes at the rejected row" (n + 2)
        resume)

let test_server_garbled_connection_session_survives () =
  let trace = Lazy.force pipe_trace in
  let lines = Trace.to_lines trace in
  let total = List.length lines in
  let half = batches (total / 2) lines in
  let first = List.hd half in
  let srv = Server.create () in
  let now = 0.0 in
  let c1, _ = connect srv ~now "s" in
  stream_all srv ~now c1 ~start:0 first;
  let accepted = (session_view srv "s").Server.v_accepted in
  (* Garbage on the wire kills the connection — and only it. *)
  expect_err_close "garbled" "garbled"
    (Server.on_bytes srv ~now c1 "\x04\x00\x00\x00\xde\xad\xbe\xefXXXX");
  let v = session_view srv "s" in
  check Alcotest.bool "session detached" false v.Server.v_attached;
  check Alcotest.int "accepted rows intact" accepted v.Server.v_accepted;
  check Alcotest.int "no connection left" 0 (Server.n_conns srv);
  (* Reconnect resumes exactly at the watermark and completes. *)
  let c2, resume = connect srv ~now "s" in
  check Alcotest.int "resume at watermark" accepted resume;
  let remaining = List.filteri (fun i _ -> i >= accepted) lines in
  stream_all srv ~now c2 ~start:accepted remaining;
  let sealed =
    expect_sealed "seal" (send srv ~now c2 (Proto.Seal { rows = total }))
  in
  check_oracle "post-garble resume" trace sealed

let test_server_idle_timeout_and_gc () =
  let cfg = { Server.default_config with session_timeout = 1.0 } in
  (* A mute connection is idle-closed; its session — idle exactly as
     long — is collected in the same tick. *)
  let srv = Server.create ~config:cfg () in
  let _c, _ = connect srv ~now:0.0 "idle" in
  expect_silent "quiet step" (Server.step srv ~now:0.5);
  (match Server.step srv ~now:2.5 with
  | [ Server.Send (_, Proto.Closing { reason }); Server.Close _ ] ->
      check Alcotest.string "reason" "idle-timeout" reason
  | _ -> Alcotest.fail "expected idle close");
  check Alcotest.int "conn gone" 0 (Server.n_conns srv);
  check Alcotest.int "session collected" 0 (Server.n_sessions srv);
  (* A polite Bye detaches immediately; the session stays resumable
     for a full timeout after its last activity, then is GC'd. *)
  let srv = Server.create ~config:cfg () in
  let c, _ = connect srv ~now:0.0 "bye" in
  (match send srv ~now:0.9 c Proto.Bye with
  | [ Server.Send (_, Proto.Closing _); Server.Close _ ] -> ()
  | _ -> Alcotest.fail "expected Closing bye");
  expect_silent "within grace" (Server.step srv ~now:1.5);
  check Alcotest.int "session lingers (resumable)" 1 (Server.n_sessions srv);
  expect_silent "past grace" (Server.step srv ~now:2.5);
  check Alcotest.int "session gc'd" 0 (Server.n_sessions srv)

let test_server_supersede () =
  let srv = Server.create () in
  let now = 0.0 in
  let c1, _ = connect srv ~now "s" in
  let c2, outs = Server.accept srv ~now in
  expect_silent "accept" outs;
  (match
     send srv ~now c2 (Proto.Hello { version = Proto.version; session = "s" })
   with
  | [
      Server.Send (o1, Proto.Closing { reason = "superseded" });
      Server.Close (o2, _);
      Server.Send (n, Proto.Welcome _);
    ] ->
      check Alcotest.int "old conn told" c1 o1;
      check Alcotest.int "old conn closed" c1 o2;
      check Alcotest.int "new conn welcomed" c2 n
  | _ -> Alcotest.fail "expected supersede then welcome");
  check Alcotest.int "one live conn" 1 (Server.n_conns srv)

let test_server_crash_backoff_durable_recovery () =
  let root = temp_dir "serve_recover" in
  Fun.protect
    ~finally:(fun () ->
      Crashpoint.reset ();
      rm_rf root)
    (fun () ->
      let trace = Lazy.force pipe_trace in
      let lines = Trace.to_lines trace in
      let total = List.length lines in
      let cfg =
        {
          Server.default_config with
          durable_root = Some root;
          restart_backoff = 0.5;
          max_backoff = 5.0;
        }
      in
      let srv = Server.create ~config:cfg () in
      let c1, _ = connect srv ~now:0.0 "s" in
      let first, rest =
        let b = batches (total / 2) lines in
        (List.hd b, List.concat (List.tl b))
      in
      stream_all srv ~now:0.0 c1 ~start:0 first;
      let accepted = (session_view srv "s").Server.v_accepted in
      (* The next rows frame hits an armed crash point inside the
         worker: the supervisor tombstones the session. *)
      Crashpoint.arm ~after:1;
      let crash_frame, _ = take_bytes 2000 rest in
      expect_err_close "worker crash" "session-failed"
        (send srv ~now:0.0 c1
           (Proto.Rows { start = accepted; lines = crash_frame }));
      Crashpoint.reset ();
      let v = session_view srv "s" in
      check Alcotest.int "one restart on the ledger" 1 v.Server.v_restarts;
      check Alcotest.bool "tombstoned" true
        (String.length v.Server.v_state >= 6
        && String.sub v.Server.v_state 0 6 = "failed");
      (* Reconnecting inside the backoff window is shed with retry-after. *)
      let c2, outs = Server.accept srv ~now:0.1 in
      expect_silent "accept" outs;
      (match
         send srv ~now:0.1 c2
           (Proto.Hello { version = Proto.version; session = "s" })
       with
      | [ Server.Send (_, Proto.Retry_after { ms; _ }); Server.Close _ ] ->
          check Alcotest.bool "positive backoff hint" true (ms > 0)
      | _ -> Alcotest.fail "expected Retry_after during backoff");
      (* Past the backoff the session rebuilds from its journal and
         resumes at the pre-crash watermark — the crashing frame was
         never acknowledged, so the client resends it. *)
      let c3, resume = connect srv ~now:2.0 "s" in
      check Alcotest.int "journal rebuild resumes at watermark" accepted resume;
      stream_all srv ~now:2.0 c3 ~start:accepted
        (List.filteri (fun i _ -> i >= accepted) lines);
      (* A crash inside the seal itself fails the session on the
         sealing connection. The journal already holds every row, so
         after the (doubled) backoff a reconnect resumes at the full
         watermark and the re-seal still matches the batch oracle. *)
      Crashpoint.arm ~after:1;
      expect_err_close "crash inside the seal" "session-failed"
        (send srv ~now:2.0 c3 (Proto.Seal { rows = total }));
      Crashpoint.reset ();
      check Alcotest.int "two restarts on the ledger" 2
        (session_view srv "s").Server.v_restarts;
      let c4, resume = connect srv ~now:4.0 "s" in
      check Alcotest.int "rebuild after a seal crash resumes at the end"
        total resume;
      let sealed =
        expect_sealed "seal" (send srv ~now:4.0 c4 (Proto.Seal { rows = total }))
      in
      check_oracle "crash-recovered stream" trace sealed)

let test_server_permanent_failure () =
  Fun.protect ~finally:Crashpoint.reset (fun () ->
      let cfg = { Server.default_config with max_restarts = 0 } in
      let srv = Server.create ~config:cfg () in
      let lines = Trace.to_lines (Lazy.force pipe_trace) in
      let f1, _ = take_bytes 2000 lines in
      let c1, _ = connect srv ~now:0.0 "s" in
      Crashpoint.arm ~after:1;
      expect_err_close "crash" "session-failed"
        (send srv ~now:0.0 c1 (Proto.Rows { start = 0; lines = f1 }));
      Crashpoint.reset ();
      (* max_restarts exhausted: the supervisor gives up for good. *)
      let c2, outs = Server.accept srv ~now:10.0 in
      expect_silent "accept" outs;
      expect_err_close "permanent" "permanent-failure"
        (send srv ~now:10.0 c2
           (Proto.Hello { version = Proto.version; session = "s" })))

let test_server_rejections () =
  let srv = Server.create () in
  let now = 0.0 in
  (* Version skew, newer and older (version 1 clients expected a
     resend watermark in retry-after). *)
  List.iter
    (fun version ->
      let c, outs = Server.accept srv ~now in
      expect_silent "accept" outs;
      expect_err_close
        (Printf.sprintf "version %d" version)
        "version"
        (send srv ~now c (Proto.Hello { version; session = "s" })))
    [ Proto.version + 1; 1 ];
  (* Hostile session id (a path, not a name). *)
  let c, _ = Server.accept srv ~now in
  expect_err_close "bad session id" "proto"
    (send srv ~now c
       (Proto.Hello { version = Proto.version; session = "../escape" }));
  (* Rows before hello. *)
  let c, _ = Server.accept srv ~now in
  expect_err_close "rows before hello" "proto"
    (send srv ~now c (Proto.Rows { start = 0; lines = [] }));
  (* Connection cap: shed gracefully with a retry hint, then close. *)
  let cfg = { Server.default_config with max_clients = 1 } in
  let srv = Server.create ~config:cfg () in
  let _c1, outs = Server.accept srv ~now in
  expect_silent "first accept" outs;
  (match Server.accept srv ~now with
  | _, [ Server.Send (_, Proto.Retry_after _); Server.Close (_, reason) ] ->
      check Alcotest.string "over capacity" "too-many-clients" reason
  | _ -> Alcotest.fail "expected Retry_after + Close over capacity")

let test_server_ping_query_bye_shutdown () =
  let srv = Server.create () in
  let now = 0.0 in
  let c1, _ = connect srv ~now "s" in
  (match only_send "ping" (send srv ~now c1 Proto.Ping) with
  | _, Proto.Pong -> ()
  | _ -> Alcotest.fail "expected Pong");
  (match only_send "status" (send srv ~now c1 (Proto.Query Proto.Status)) with
  | _, Proto.Info { json } ->
      check Alcotest.bool "status lists sessions" true
        (contains json "\"sessions\"")
  | _ -> Alcotest.fail "expected Info for status query");
  (match only_send "metrics" (send srv ~now c1 (Proto.Query Proto.Metrics)) with
  | _, Proto.Info _ -> ()
  | _ -> Alcotest.fail "expected Info for metrics query");
  (* Bye detaches politely; the session stays. *)
  (match send srv ~now c1 Proto.Bye with
  | [ Server.Send (_, Proto.Closing { reason = "bye" }); Server.Close _ ] -> ()
  | _ -> Alcotest.fail "expected Closing bye");
  check Alcotest.int "session survives bye" 1 (Server.n_sessions srv);
  (* Shutdown closes every connection and refuses new ones. *)
  let c2, _ = connect srv ~now "s" in
  let _c3, outs = Server.accept srv ~now in
  expect_silent "accept" outs;
  let outs = send srv ~now c2 Proto.Shutdown in
  let closings =
    List.length
      (List.filter
         (function Server.Send (_, Proto.Closing _) -> true | _ -> false)
         outs)
  in
  check Alcotest.bool "everyone told" true (closings >= 2);
  check Alcotest.bool "shutting down" true (Server.shutting_down srv);
  check Alcotest.int "no conns left" 0 (Server.n_conns srv);
  let _c, outs = Server.accept srv ~now in
  expect_err_close "accept during shutdown" "shutting-down" outs

(* ---- Stream query ------------------------------------------------- *)

(* Batch-mine the first [k] events of [trace]: the reference answer for
   a stream query — and a subscription push — at that watermark. *)
let prefix_ref trace k =
  let prefix = { trace with Trace.events = Array.sub trace.Trace.events 0 k } in
  let g = Import.engine prefix.Trace.layouts in
  Array.iter (Import.feed g) prefix.Trace.events;
  let dataset = Dataset.of_store (Import.engine_store g) in
  let mined = Derivator.derive_all dataset in
  ( Report.mined_to_json mined,
    Report.violations_to_json (Violation.find dataset mined) )

(* The live-rules oracle: after accepting k rows, a [stream] query must
   answer exactly what the batch pipeline mines from that k-event
   prefix — byte for byte — and must not seal the session: the rest of
   the trace still streams in and the final seal matches the full
   oracle. *)
let test_server_stream_query () =
  let trace = Lazy.force pipe_trace in
  let lines = Trace.to_lines trace in
  let total = List.length lines in
  let n_layouts = List.length trace.Trace.layouts in
  let srv = Server.create () in
  let now = 0.0 in
  let cid, _ = connect srv ~now "s" in
  let stream_json label =
    match
      only_send label (send srv ~now cid (Proto.Query Proto.Stream_rules))
    with
    | _, Proto.Info { json } -> json
    | _ -> Alcotest.failf "%s: expected Info" label
  in
  let expected ~state ~events ~accepted (rules, violations) =
    Printf.sprintf
      {|{"session":"s","state":"%s","events":%d,"accepted_rows":%d,"rules":%s,"violations":%s}|}
      state events accepted rules violations
  in
  (* Nothing accepted yet: live rules are empty, nothing seals. *)
  check Alcotest.string "empty session"
    (expected ~state:"streaming" ~events:0 ~accepted:0 ("[]", "[]"))
    (stream_json "empty");
  (* Half the stream in: the answer is the batch mine of exactly that
     prefix. *)
  let half = total / 2 in
  stream_all srv ~now cid ~start:0 (List.filteri (fun i _ -> i < half) lines);
  check Alcotest.string "half-stream rules match batch prefix"
    (expected ~state:"streaming" ~events:(half - n_layouts) ~accepted:half
       (prefix_ref trace (half - n_layouts)))
    (stream_json "half");
  check Alcotest.string "query does not seal" "streaming"
    (session_view srv "s").Server.v_state;
  (* The rest still streams in afterwards and the seal matches the
     full-trace oracle: the queries disturbed nothing. *)
  stream_all srv ~now cid ~start:half
    (List.filteri (fun i _ -> i >= half) lines);
  let sealed =
    expect_sealed "seal" (send srv ~now cid (Proto.Seal { rows = total }))
  in
  check_oracle "seal after stream queries" trace sealed;
  (* A sealed session answers its cached final result. *)
  let _, rules, violations = sealed in
  check Alcotest.string "sealed stream query answers the cached result"
    (expected ~state:"sealed" ~events:(Array.length trace.Trace.events)
       ~accepted:total (rules, violations))
    (stream_json "sealed")

(* The stream reply after every frame — after every row, on the first
   trace — on traces full of R->W flips and of repeat accesses to
   violating cells (the two changes a group's violation memo must see),
   against batch mining of the same prefix: derive_all and
   Violation.find. *)
let test_server_stream_every_frame () =
  List.iter
    (fun (label, trace, frame) ->
      let lines = Trace.to_lines trace in
      let n_layouts = List.length trace.Trace.layouts in
      let srv = Server.create () in
      let now = 0.0 in
      let cid, _ = connect srv ~now "s" in
      List.iteri
        (fun k rows ->
          let start = k * frame in
          send_rows srv ~now cid ~start rows;
          let accepted = start + List.length rows in
          let events = max 0 (accepted - n_layouts) in
          let json =
            match
              only_send label (send srv ~now cid (Proto.Query Proto.Stream_rules))
            with
            | _, Proto.Info { json } -> json
            | _ -> Alcotest.failf "%s: expected Info" label
          in
          let rules, violations = prefix_ref trace events in
          check Alcotest.string
            (Printf.sprintf "%s, %d rows" label accepted)
            (Printf.sprintf
               {|{"session":"s","state":"streaming","events":%d,"accepted_rows":%d,"rules":%s,"violations":%s}|}
               events accepted rules violations)
            json)
        (batches frame lines))
    [
      ("widgets seed 1", Widgets.trace ~steps:250 1, 1);
      ("widgets seed 2", Widgets.trace 2, 40);
      ("fs_bench seed 201", Run.workload_trace ~seed:201 "fs_bench", 600);
    ]

(* ---- Rule subscriptions ------------------------------------------- *)

let find_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  go 0

let field_int json key =
  let needle = "\"" ^ key ^ "\":" in
  match find_sub json needle with
  | None -> Alcotest.failf "field %s missing in %s" key json
  | Some i ->
      let start = i + String.length needle in
      let j = ref start in
      while !j < String.length json && json.[!j] >= '0' && json.[!j] <= '9' do
        incr j
      done;
      int_of_string (String.sub json start (!j - start))

(* The tail of a push — or of a stream-query reply — from the "rules"
   key on: both end with ["rules":<array>,"violations":<array>}], so
   equality of this suffix is byte-identity of the mined report. (The
   ["push":"rules"] marker never matches: the needle includes the
   colon.) *)
let rules_suffix json =
  match find_sub json {|"rules":|} with
  | Some i -> String.sub json i (String.length json - i)
  | None -> Alcotest.failf "no rules field in %s" json

(* The subscription oracle: every pushed delta must equal — byte for
   byte — what a [stream] query at the same watermark answers, and what
   the batch pipeline mines from that exact event prefix. *)
let test_server_subscription_push () =
  let trace = Lazy.force pipe_trace in
  let lines = Trace.to_lines trace in
  let total = List.length lines in
  let n_layouts = List.length trace.Trace.layouts in
  let cfg =
    {
      Server.default_config with
      sub_debounce_events = 64;
      sub_min_interval = 0.;
    }
  in
  let srv = Server.create ~config:cfg () in
  let now = 0.0 in
  let cid, _ = connect srv ~now "s" in
  (* Subscribing to a fresh session answers an empty snapshot push. *)
  (match only_send "subscribe" (send srv ~now cid Proto.Subscribe) with
  | _, Proto.Info { json } ->
      check Alcotest.bool "snapshot is a push" true
        (contains json {|"push":"rules"|});
      check Alcotest.string "empty snapshot" {|"rules":[],"violations":[]}|}
        (rules_suffix json)
  | _ -> Alcotest.fail "expected the subscription snapshot push");
  let pushes = ref 0 in
  let cursor = ref 0 in
  List.iter
    (fun b ->
      send_rows srv ~now cid ~start:!cursor b;
      cursor := !cursor + List.length b;
      List.iter
        (function
          | Server.Send (c, Proto.Info { json })
            when c = cid && contains json {|"push":"rules"|} ->
              incr pushes;
              let events = field_int json "events" in
              let accepted = field_int json "accepted_rows" in
              check Alcotest.int "push watermark is consistent"
                (accepted - n_layouts) events;
              check Alcotest.bool "a delta push is not empty" true
                (not (contains json {|"added":[],"removed":[]|}));
              (* No rows intervened, so the query freezes the very same
                 prefix the push did. *)
              (match
                 only_send "stream query at the push watermark"
                   (send srv ~now cid (Proto.Query Proto.Stream_rules))
               with
              | _, Proto.Info { json = qjson } ->
                  check Alcotest.int "query at the same watermark" events
                    (field_int qjson "events");
                  check Alcotest.string "push equals stream query"
                    (rules_suffix qjson) (rules_suffix json)
              | _ -> Alcotest.fail "expected Info for the stream query");
              let rules, violations = prefix_ref trace events in
              check Alcotest.string "push equals the batch prefix"
                ({|"rules":|} ^ rules ^ {|,"violations":|} ^ violations ^ "}")
                (rules_suffix json)
          | _ -> Alcotest.fail "unexpected non-push output during streaming")
        (Server.step srv ~now))
    (batches 100 lines);
  check Alcotest.bool "at least one delta push fired" true (!pushes >= 1);
  (* Sealing pushes the final delta to the subscriber before answering
     [Sealed] — and the two agree byte for byte. *)
  match send srv ~now cid (Proto.Seal { rows = total }) with
  | [
      Server.Send (_, Proto.Info { json });
      Server.Send (_, Proto.Sealed { events; rules; violations });
    ] ->
      check Alcotest.bool "final push is sealed" true
        (contains json {|"state":"sealed"|});
      check Alcotest.string "final push equals the sealed report"
        ({|"rules":|} ^ rules ^ {|,"violations":|} ^ violations ^ "}")
        (rules_suffix json);
      check_oracle "subscribed seal" trace (events, rules, violations)
  | _ -> Alcotest.fail "expected the final push then Sealed"

(* ---- Chaos matrix ------------------------------------------------- *)

let chaos_pairs = [| ("pipe", "device"); ("device", "pipe"); ("fs_inod", "pipe") |]

let run_chaos ?transport fault seed =
  let workloads = chaos_pairs.((seed - 1) mod Array.length chaos_pairs) in
  if fault = Chaos.Kill then begin
    let root = temp_dir "serve_chaos" in
    Fun.protect
      ~finally:(fun () -> rm_rf root)
      (fun () -> Chaos.run ~seed ~workloads ~durable_root:root ?transport fault)
  end
  else Chaos.run ~seed ~workloads ?transport fault

let assert_evidence fault (o : Chaos.outcome) =
  let nonzero label n =
    check Alcotest.bool
      (Printf.sprintf "%s: %s > 0" (Chaos.fault_name fault) label)
      true (n > 0)
  in
  nonzero "frames" o.o_frames_sent;
  match fault with
  | Chaos.Drop ->
      nonzero "faults" o.o_faults_injected;
      nonzero "nacks or resends" (o.o_nacks + o.o_rows_resent)
  | Chaos.Delay -> nonzero "faults" o.o_faults_injected
  | Chaos.Garble ->
      nonzero "garbled closes" o.o_garbled;
      nonzero "reconnects" o.o_reconnects
  | Chaos.Kill ->
      nonzero "session failures" o.o_session_failures;
      nonzero "reconnects" o.o_reconnects;
      nonzero "backoff retry-afters" o.o_retry_afters
  | Chaos.Reconnect_storm -> nonzero "supersedes" o.o_supersedes
  | Chaos.Slowloris -> nonzero "idle closes" o.o_idle_closes

let test_chaos ?transport fault () =
  for seed = 1 to n_seeds do
    let o = run_chaos ?transport fault seed in
    assert_evidence fault o
  done

let test_chaos_kill_requires_journal () =
  match Chaos.run Chaos.Kill with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Kill without a durable root must be rejected"

(* ---- Real sockets, spawned daemon --------------------------------- *)

(* The daemon runs as the real `lockdoc serve` binary: exec'ing the CLI
   makes these end-to-end, startup and shutdown included. *)
let exe =
  (* Relative to the test runner, not the cwd: `dune runtest` and a bare
     `dune exec test/test_serve.exe` run from different directories. *)
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat Filename.parent_dir_name "bin/lockdoc.exe")

let spawn_daemon ~stdout args =
  Unix.create_process exe
    (Array.of_list ((exe :: "serve" :: args)))
    Unix.stdin stdout Unix.stderr

let test_socket_integration () =
  let dir = temp_dir "serve_sock" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let socket = Filename.concat dir "lockdoc.sock" in
      let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      let pid = spawn_daemon ~stdout:devnull [ "--socket"; socket ] in
      Unix.close devnull;
      let pipe = Lazy.force pipe_trace in
      let device = Lazy.force device_trace in
      let sealed_a =
        Sockserv.feed ~socket ~session:"a" (Trace.to_lines pipe)
      in
      let e, r, v = batch_ref pipe in
      check Alcotest.int "a: events" e sealed_a.Sockserv.events;
      check Alcotest.string "a: rules" r sealed_a.Sockserv.rules;
      check Alcotest.string "a: violations" v sealed_a.Sockserv.violations;
      let sealed_b =
        Sockserv.feed ~socket ~session:"b" (Trace.to_lines device)
      in
      let e, r, v = batch_ref device in
      check Alcotest.int "b: events" e sealed_b.Sockserv.events;
      check Alcotest.string "b: rules" r sealed_b.Sockserv.rules;
      check Alcotest.string "b: violations" v sealed_b.Sockserv.violations;
      (match Sockserv.request ~socket (Proto.Query Proto.Status) with
      | Proto.Info { json } ->
          check Alcotest.bool "status mentions both sessions" true
            (contains json "\"a\"" && contains json "\"b\"")
      | _ -> Alcotest.fail "expected Info from status query");
      (match Sockserv.request ~socket Proto.Shutdown with
      | Proto.Closing _ -> ()
      | _ -> Alcotest.fail "expected Closing from shutdown");
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, _ -> Alcotest.fail "daemon did not exit cleanly");
      check Alcotest.bool "socket unlinked" false (Sys.file_exists socket))

(* The same daemon listening on TCP too: both transports feed the one
   engine, sealed results are byte-identical across them, and follow
   mode sees the pushed rule updates over the network. *)
let test_tcp_integration () =
  let dir = temp_dir "serve_tcp" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let socket = Filename.concat dir "lockdoc.sock" in
      let pr, pw = Unix.pipe () in
      let pid =
        spawn_daemon ~stdout:pw [ "--socket"; socket; "--tcp"; "127.0.0.1:0" ]
      in
      Unix.close pw;
      (* The daemon announces the ephemeral port it actually bound on
         stdout — exactly what a human scripting `--tcp host:0` reads. *)
      let ic = Unix.in_channel_of_descr pr in
      let rec read_port () =
        let line = input_line ic in
        match find_sub line "tcp port " with
        | Some i ->
            let tail = String.sub line (i + 9) (String.length line - i - 9) in
            int_of_string (String.trim tail)
        | None -> read_port ()
      in
      let port = read_port () in
      let tcp = ("127.0.0.1", port) in
      let pipe = Lazy.force pipe_trace in
      let device = Lazy.force device_trace in
      (* One session over TCP, one over the Unix socket: the sealed
         reports must not depend on the transport. *)
      let sealed_t =
        Sockserv.feed ~tcp ~socket ~session:"t" (Trace.to_lines pipe)
      in
      let sealed_u =
        Sockserv.feed ~socket ~session:"u" (Trace.to_lines pipe)
      in
      let e, r, v = batch_ref pipe in
      check Alcotest.int "tcp: events" e sealed_t.Sockserv.events;
      check Alcotest.string "tcp: rules" r sealed_t.Sockserv.rules;
      check Alcotest.string "tcp: violations" v sealed_t.Sockserv.violations;
      check Alcotest.bool "transports byte-identical" true
        (sealed_t = sealed_u);
      (* Follow mode over TCP: the snapshot push, then the final
         sealed push agreeing with the batch report. *)
      let pushes = ref [] in
      let sealed_d =
        Sockserv.feed ~tcp
          ~follow:(fun j -> pushes := j :: !pushes)
          ~socket ~session:"d" (Trace.to_lines device)
      in
      let e, r, v = batch_ref device in
      check Alcotest.int "d: events" e sealed_d.Sockserv.events;
      check Alcotest.string "d: rules" r sealed_d.Sockserv.rules;
      check Alcotest.bool "snapshot and sealed pushes arrived" true
        (List.length !pushes >= 2);
      (match !pushes with
      | last :: _ ->
          check Alcotest.bool "final push is sealed" true
            (contains last {|"state":"sealed"|});
          check Alcotest.string "final push equals the batch report"
            ({|"rules":|} ^ r ^ {|,"violations":|} ^ v ^ "}")
            (rules_suffix last)
      | [] -> Alcotest.fail "follow produced no pushes");
      (match Sockserv.request ~tcp ~socket (Proto.Query Proto.Status) with
      | Proto.Info { json } ->
          check Alcotest.bool "status over tcp lists the sessions" true
            (contains json {|"t"|} && contains json {|"u"|}
            && contains json {|"d"|})
      | _ -> Alcotest.fail "expected Info from status query");
      (match Sockserv.request ~tcp ~socket Proto.Shutdown with
      | Proto.Closing _ -> ()
      | _ -> Alcotest.fail "expected Closing from shutdown");
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, _ -> Alcotest.fail "daemon did not exit cleanly");
      close_in ic;
      check Alcotest.bool "socket unlinked" false (Sys.file_exists socket))

let () =
  Alcotest.run "serve"
    [
      ( "frame",
        [
          Alcotest.test_case "round trip" `Quick test_frame_roundtrip;
          Alcotest.test_case "chunked feeds" `Quick test_frame_chunked;
          Alcotest.test_case "corrupt latches" `Quick test_frame_corrupt_latches;
          Alcotest.test_case "length ceiling" `Quick test_frame_length_ceiling;
        ] );
      ( "frame-vs-wal",
        [
          Alcotest.test_case "same records" `Quick test_frame_wal_differential;
          Alcotest.test_case "every torn tail" `Quick test_frame_wal_torn_tail;
          Alcotest.test_case "bit flip" `Quick test_frame_wal_bitflip;
        ] );
      ( "proto",
        [
          Alcotest.test_case "round trips" `Quick test_proto_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick
            test_proto_rejects_malformed;
        ] );
      ( "server",
        [
          Alcotest.test_case "seal matches batch" `Quick test_server_seal_oracle;
          Alcotest.test_case "nack and idempotency" `Quick
            test_server_nack_and_idempotency;
          Alcotest.test_case "retransmit parses fresh rows only" `Quick
            test_server_retransmit_parses_fresh_only;
          Alcotest.test_case "seal count guard" `Quick
            test_server_seal_count_guard;
          Alcotest.test_case "rows apply inside on_bytes" `Quick
            test_server_rows_apply_inline;
          Alcotest.test_case "garble kills only the connection" `Quick
            test_server_garbled_connection_session_survives;
          Alcotest.test_case "idle timeout and gc" `Quick
            test_server_idle_timeout_and_gc;
          Alcotest.test_case "supersede" `Quick test_server_supersede;
          Alcotest.test_case "crash, backoff, durable recovery" `Quick
            test_server_crash_backoff_durable_recovery;
          Alcotest.test_case "permanent failure" `Quick
            test_server_permanent_failure;
          Alcotest.test_case "rejections" `Quick test_server_rejections;
          Alcotest.test_case "ping, query, bye, shutdown" `Quick
            test_server_ping_query_bye_shutdown;
          Alcotest.test_case "stream query answers the live prefix" `Quick
            test_server_stream_query;
          Alcotest.test_case "stream reply after every frame" `Quick
            test_server_stream_every_frame;
          Alcotest.test_case "subscription pushes match the watermark" `Quick
            test_server_subscription_push;
        ] );
      ( "chaos",
        Alcotest.test_case "kill requires journal" `Quick
          test_chaos_kill_requires_journal
        :: List.map
             (fun f ->
               Alcotest.test_case
                 (Printf.sprintf "%s (%d seed%s)" (Chaos.fault_name f) n_seeds
                    (if n_seeds = 1 then "" else "s"))
                 `Slow (test_chaos f))
             Chaos.all_faults );
      ( "chaos-tcp",
        List.map
          (fun f ->
            Alcotest.test_case
              (Printf.sprintf "%s (%d seed%s)" (Chaos.fault_name f) n_seeds
                 (if n_seeds = 1 then "" else "s"))
              `Slow
              (test_chaos ~transport:`Tcp f))
          Chaos.all_faults );
      ( "socket",
        [
          Alcotest.test_case "spawned daemon end to end" `Slow
            test_socket_integration;
          Alcotest.test_case "tcp transport end to end" `Slow
            test_tcp_integration;
        ] );
    ]
