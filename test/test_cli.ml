(* Black-box tests of the installed `lockdoc` binary.

   These drive the real executable (dune puts it next to the test
   runner's parent directory) so they cover what unit tests cannot: the
   process exit code, the metrics-on-exit contract, and cmdliner's
   checked-flag rejections.

   The anchor regression: `--metrics` snapshots used to be written by a
   [Fun.protect] finaliser, which [Stdlib.exit] skips — so exactly the
   runs whose diagnostics you most want (fsck finding fatal anomalies,
   exit 1) lost their metrics. The snapshot now rides an [at_exit]
   handler; the test below fails if anyone moves it back. *)

module Trace = Lockdoc_trace.Trace
module Run = Lockdoc_ksim.Run
module Durable = Lockdoc_db.Durable
module Store = Lockdoc_db.Store
module Wal = Lockdoc_db.Wal
module Record = Lockdoc_db.Record

let check = Alcotest.check
let exe = Filename.concat Filename.parent_dir_name "bin/lockdoc.exe"

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

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Run the binary; returns (exit code, stdout, stderr). *)
let run args =
  let out = Filename.temp_file "cli_out" ".txt" in
  let err = Filename.temp_file "cli_err" ".txt" in
  let code = Sys.command (Filename.quote_command exe ~stdout:out ~stderr:err args) in
  let o = read_file out and e = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, o, e)

(* A clean workload trace, and a copy with two fatal reader anomalies
   (unknown record tags) appended. *)
let with_fixtures f =
  let dir = temp_dir "cli_fix" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let clean = Filename.concat dir "clean.trace" in
      Trace.save clean (Run.workload_trace "pipe");
      let bad = Filename.concat dir "bad.trace" in
      let oc = open_out_bin bad in
      output_string oc (read_file clean);
      output_string oc "Z\tbogus record one\nZ\tbogus record two\n";
      close_out oc;
      f ~dir ~clean ~bad)

let test_fsck_clean () =
  with_fixtures (fun ~dir:_ ~clean ~bad:_ ->
      let code, out, _ = run [ "fsck"; clean ] in
      check Alcotest.int "exit 0" 0 code;
      check Alcotest.bool "reports clean" true
        (contains out "clean: no anomalies"))

let test_metrics_written_on_failing_exit () =
  with_fixtures (fun ~dir ~clean:_ ~bad ->
      let m = Filename.concat dir "m.json" in
      let code, _, _ = run [ "fsck"; "--metrics"; m; bad ] in
      check Alcotest.int "fatal anomalies exit 1" 1 code;
      check Alcotest.bool "metrics snapshot exists despite exit 1" true
        (Sys.file_exists m);
      let snap = read_file m in
      check Alcotest.bool "snapshot is a metrics document" true
        (contains snap "\"counters\""))

let test_fsck_json () =
  with_fixtures (fun ~dir:_ ~clean ~bad ->
      let code, out, _ = run [ "fsck"; "--json"; bad ] in
      check Alcotest.int "exit 1" 1 code;
      check Alcotest.bool "fatal flagged" true
        (contains out "\"fatal\":\"true\"");
      check Alcotest.bool "exit code surfaced" true
        (contains out "\"exit_code\":1");
      check Alcotest.bool "kinds summarised" true
        (contains out "\"unknown-tag\":2");
      let code, out, _ = run [ "fsck"; "--json"; clean ] in
      check Alcotest.int "clean exit 0" 0 code;
      check Alcotest.bool "clean not fatal" true
        (contains out "\"fatal\":\"false\"");
      check Alcotest.bool "clean exit code surfaced" true
        (contains out "\"exit_code\":0"))

let test_fsck_limit () =
  with_fixtures (fun ~dir:_ ~clean:_ ~bad ->
      let _, full, _ = run [ "fsck"; bad ] in
      check Alcotest.bool "default limit shows both" true
        (not (contains full "more"));
      let _, limited, _ = run [ "fsck"; "--limit"; "1"; bad ] in
      check Alcotest.bool "limit 1 elides the second" true
        (contains limited "... 1 more");
      let _, summary, _ = run [ "fsck"; "--limit"; "0"; bad ] in
      check Alcotest.bool "limit 0 keeps the summary" true
        (contains summary "unknown-tag");
      check Alcotest.bool "limit 0 is shorter" true
        (String.length summary < String.length limited))

let test_checked_flags_reject () =
  List.iter
    (fun args ->
      let code, _, err = run args in
      check Alcotest.bool
        (Printf.sprintf "%s rejected" (String.concat " " args))
        true
        (code <> 0 && String.length err > 0))
    [
      [ "fsck"; "--limit"; "-1"; "nonexistent.trace" ];
      [ "fsck"; "--limit"; "abc"; "nonexistent.trace" ];
      [ "serve"; "--session-timeout"; "0" ];
      [ "serve"; "--session-timeout"; "nan" ];
      [ "serve"; "--max-clients"; "-3" ];
      [ "serve"; "--max-clients"; "0" ];
      [ "serve"; "--tcp"; "nocolon" ];
      [ "serve"; "--tcp"; "127.0.0.1:notaport" ];
      [ "serve"; "--tcp"; "127.0.0.1:99999" ];
      [ "feed"; "--tcp"; ":" ];
      [ "replay"; "pipe"; "--budget"; "0" ];
      [ "replay"; "pipe"; "--budget"; "many" ];
      [ "replay"; "pipe"; "--seed"; "banana" ];
      [ "replay"; "pipe"; "--scale"; "-2" ];
      [ "sanitize"; "pipe"; "--seed"; "0x" ];
      [ "lint"; "fs_bench"; "--scale"; "0" ];
      [ "lint"; "fs_bench"; "--scale"; "huge" ];
      [ "lint"; "fs_bench"; "--seed"; "3.5" ];
    ]

(* Rejections must be one-line diagnostics naming the flag, not a
   stacktrace or a silent exit. *)
let test_checked_flags_diagnose () =
  let code, _, err = run [ "replay"; "pipe"; "--budget"; "0" ] in
  check Alcotest.bool "non-zero exit" true (code <> 0);
  check Alcotest.bool "names the flag" true (contains err "--budget");
  check Alcotest.bool "says what it expected" true
    (contains err "positive integer");
  let code, _, err = run [ "replay"; "pipe"; "--seed"; "banana" ] in
  check Alcotest.bool "seed: non-zero exit" true (code <> 0);
  check Alcotest.bool "seed: names the flag" true (contains err "--seed")

(* An unknown workload or experiment name: exit 1 and one line,
   prefixed like every other diagnostic, that lists the known names. *)
let check_unknown_name args ~unknown ~known =
  let code, out, err = run args in
  let what = String.concat " " args in
  check Alcotest.int (what ^ ": exit 1") 1 code;
  check Alcotest.string (what ^ ": nothing on stdout") "" out;
  check Alcotest.bool (what ^ ": one prefixed line") true
    (String.starts_with ~prefix:("lockdoc: " ^ unknown) err
    && String.index err '\n' = String.length err - 1);
  check Alcotest.bool (what ^ ": lists the known names") true
    (contains err known)

let test_replay_unknown_workload () =
  check_unknown_name [ "replay"; "warp_drive" ] ~unknown:"unknown workload"
    ~known:"fs_bench"

(* A --type key the trace never observed: exit 1 and one line naming
   the keys it did observe, for derive (type keys) and doc (base
   types), instead of an empty section and exit 0. *)
let test_unknown_type_key () =
  with_fixtures @@ fun ~dir:_ ~clean ~bad:_ ->
  List.iter
    (fun args ->
      check_unknown_name args ~unknown:"no observations for type key nosuch (known: "
        ~known:"pipe_inode_info")
    [ [ "derive"; clean; "--type"; "nosuch" ]; [ "doc"; clean; "--type"; "nosuch" ] ]

let test_lint_flags_diagnose () =
  let code, _, err = run [ "lint"; "fs_bench"; "--scale"; "huge" ] in
  check Alcotest.bool "scale: non-zero exit" true (code <> 0);
  check Alcotest.bool "scale: names the flag" true (contains err "--scale")

let test_lint_unknown_workload () =
  check_unknown_name [ "lint"; "warp_drive" ] ~unknown:"unknown workload"
    ~known:"fs_bench"

let test_repro_unknown_experiment () =
  check_unknown_name [ "repro"; "nosuch" ] ~unknown:"unknown experiment"
    ~known:"tab5"

let test_lint_json_smoke () =
  let code, out, _ = run [ "lint"; "pipe"; "--json" ] in
  check Alcotest.int "exit 0" 0 code;
  List.iter
    (fun key ->
      check Alcotest.bool (key ^ " present") true
        (contains out (Printf.sprintf "%S" key)))
    [ "workload"; "violations"; "unprotected_writes"; "order"; "gaps";
      "mined_rules" ]

let test_profile_json () =
  let code, out, _ = run [ "profile"; "pipe"; "--scale"; "1"; "--json" ] in
  check Alcotest.int "exit 0" 0 code;
  List.iter
    (fun key ->
      check Alcotest.bool (key ^ " present") true
        (contains out (Printf.sprintf "%S" key)))
    [ "workload"; "phases"; "wall_ms"; "cpu_ms"; "pipeline"; "counters" ];
  check Alcotest.bool "pipeline saw events" true
    (not (contains out "\"events\":0"))

let test_feed_needs_input () =
  let code, _, err = run [ "feed" ] in
  check Alcotest.int "exit 1" 1 code;
  check Alcotest.bool "explains itself" true
    (contains err "feed needs a TRACE")

(* A daemon that cannot be reached is a one-line diagnostic naming the
   address and exit 123, both for a one-shot query and for a trace feed
   (which first exhausts its reconnect attempts). *)
let test_feed_unreachable () =
  with_fixtures (fun ~dir ~clean ~bad:_ ->
      let socket = Filename.concat dir "nosock" in
      List.iter
        (fun (what, args, reason) ->
          let code, out, err = run ([ "feed"; "--socket"; socket ] @ args) in
          check Alcotest.int (what ^ ": exit 123") 123 code;
          check Alcotest.string (what ^ ": nothing on stdout") "" out;
          check Alcotest.string (what ^ ": one-line diagnostic")
            (Printf.sprintf "lockdoc: feed: %s: %s\n" socket reason)
            err)
        [
          ("query", [ "--query"; "metrics" ], "No such file or directory");
          ("trace", [ clean ], "too many reconnect attempts");
        ])

(* A listener or durable root `serve` cannot set up is one line naming
   the address and exit 123, with no socket file left behind — also
   when the Unix socket was already bound and the TCP listener after it
   fails. *)
let test_serve_startup_failure () =
  let dir = temp_dir "cli_serve" in
  let held = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close held;
      rm_rf dir)
    (fun () ->
      Unix.bind held (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen held 1;
      let in_use =
        match Unix.getsockname held with
        | Unix.ADDR_INET (_, port) -> Printf.sprintf "127.0.0.1:%d" port
        | _ -> assert false
      in
      let socket = Filename.concat dir "s.sock" in
      let absent = Filename.concat dir "absent/s.sock" in
      let afile = Filename.concat dir "afile" in
      close_out (open_out afile);
      let orphan = Filename.concat dir "absent/state" in
      List.iter
        (fun (what, args, expected) ->
          let code, out, err = run ("serve" :: args) in
          check Alcotest.int (what ^ ": exit 123") 123 code;
          check Alcotest.string (what ^ ": nothing on stdout") "" out;
          check Alcotest.string (what ^ ": one-line diagnostic")
            ("lockdoc: serve: " ^ expected ^ "\n")
            err;
          check Alcotest.bool (what ^ ": no socket file left") false
            (Sys.file_exists socket))
        [
          ( "missing directory",
            [ "--socket"; absent ],
            absent ^ ": No such file or directory" );
          ( "unresolvable host",
            [ "--socket"; socket; "--tcp"; "999.1.1.1:80" ],
            "999.1.1.1:80: cannot resolve host 999.1.1.1" );
          ( "port in use",
            [ "--socket"; socket; "--tcp"; in_use ],
            in_use ^ ": Address already in use" );
          ( "durable root is a file",
            [ "--socket"; socket; "--durable"; afile ],
            afile ^ ": Not a directory" );
          ( "durable root in a missing directory",
            [ "--socket"; socket; "--durable"; orphan ],
            orphan ^ ": No such file or directory" );
        ])

(* `serve` whose stdout reader has gone away (`lockdoc serve | true`):
   the startup line cannot be written. One line on stderr, exit 123,
   no uncaught-exception report, and no socket file left. *)
let test_serve_closed_stdout () =
  let dir = temp_dir "cli_serve_pipe" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let socket = Filename.concat dir "s.sock" in
      let errf = Filename.concat dir "err" in
      let rd, wr = Unix.pipe ~cloexec:true () in
      Unix.close rd;
      let err = Unix.openfile errf [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
      let pid =
        Unix.create_process exe
          [| exe; "serve"; "--socket"; socket |]
          Unix.stdin wr err
      in
      Unix.close wr;
      Unix.close err;
      let code =
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED c -> c
        | _ -> Alcotest.fail "serve was killed by a signal"
      in
      check Alcotest.int "exit 123" 123 code;
      check Alcotest.string "one-line diagnostic" "lockdoc: Broken pipe\n"
        (read_file errf);
      check Alcotest.bool "no socket file left" false (Sys.file_exists socket))

(* No analysis command takes a domain count: analysis runs on the
   calling domain. *)
let test_jobs_flag_removed () =
  List.iter
    (fun args ->
      let code, _, err = run args in
      let cmd = List.hd args in
      check Alcotest.int (cmd ^ ": cli error") 124 code;
      check Alcotest.bool (cmd ^ ": unknown option") true
        (contains err "unknown option '-j'"))
    [
      [ "derive"; "-j"; "2"; "x.trace" ];
      [ "doc"; "-j"; "2"; "x.trace" ];
      [ "check"; "-j"; "2"; "x.trace" ];
      [ "violations"; "-j"; "2"; "x.trace" ];
      [ "lint"; "-j"; "2"; "pipe" ];
      [ "sanitize"; "-j"; "2"; "pipe" ];
      [ "replay"; "-j"; "2"; "pipe" ];
      [ "profile"; "-j"; "2"; "pipe" ];
    ]

(* A missing input file is a one-line diagnostic naming the path and
   an exit code the man page documents, not cmdliner's exit-125
   "internal error, uncaught exception" dump. *)
let test_missing_input_file () =
  let dir = temp_dir "cli_missing" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let path = Filename.concat dir "absent.trace" in
      List.iter
        (fun cmd ->
          let code, out, err = run [ cmd; path ] in
          check Alcotest.int (cmd ^ ": exit 123") 123 code;
          check Alcotest.string (cmd ^ ": nothing on stdout") "" out;
          check Alcotest.string (cmd ^ ": one-line diagnostic")
            (Printf.sprintf "lockdoc: %s: No such file or directory\n" path)
            err)
        [ "derive"; "violations"; "import"; "fsck"; "recover" ];
      let code, _, err = run [ "derive"; dir ] in
      check Alcotest.int "directory: exit 123" 123 code;
      check Alcotest.string "directory: names the path"
        (Printf.sprintf "lockdoc: %s: Is a directory\n" dir)
        err;
      let file = Filename.concat dir "plain" in
      Out_channel.with_open_bin file (fun oc -> output_string oc "x");
      let code, out, err = run [ "recover"; file ] in
      check Alcotest.int "recover file: exit 123" 123 code;
      check Alcotest.string "recover file: nothing on stdout" "" out;
      check Alcotest.string "recover file: names the path"
        (Printf.sprintf "lockdoc: %s: Not a directory\n" file)
        err;
      let _, man, _ = run [ "derive"; "--help=plain" ] in
      check Alcotest.bool "EXIT STATUS lists 123" true
        (contains man "123 on indiscriminate errors"))

(* A simulator fault is a one-line diagnostic and exit 3, listed in
   every command's EXIT STATUS, not cmdliner's exit-125 dump. These
   fs_bench seeds hit a use-after-free in the simulated dput. *)
let test_simulator_fault () =
  List.iter
    (fun seed ->
      let code, out, err = run [ "replay"; "fs_bench"; "--seed"; seed ] in
      check Alcotest.int ("seed " ^ seed ^ ": exit 3") 3 code;
      check Alcotest.string ("seed " ^ seed ^ ": nothing on stdout") "" out;
      check Alcotest.string ("seed " ^ seed ^ ": one-line diagnostic")
        "lockdoc: simulator fault: use-after-free of dentry.d_subdirs (in dput)\n"
        err)
    [ "9"; "16" ];
  List.iter
    (fun cmd ->
      let _, man, _ = run [ cmd; "--help=plain" ] in
      check Alcotest.bool (cmd ^ ": EXIT STATUS lists 3") true
        (contains man "on a simulator fault");
      check Alcotest.bool (cmd ^ ": EXIT STATUS lists 1") true
        (contains man "1   on an unknown workload or experiment"))
    [
      "trace"; "import"; "pack"; "unpack"; "recover"; "fsck"; "derive"; "doc";
      "check"; "violations"; "lockdep"; "lint"; "lockmeter"; "sanitize";
      "replay"; "export"; "relations"; "profile"; "repro"; "serve"; "feed";
    ]

(* A second free of one simulated instance is a simulator fault too: at
   this scale and seed a lock scope's finaliser frees a dentry twice,
   which once ended in cmdliner's exit-125 dump of an assertion. *)
let test_simulator_double_free () =
  let dir = temp_dir "cli_double_free" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let code, out, err =
        run
          [ "trace"; "--scale"; "318"; "--seed"; "1"; "-o";
            Filename.concat dir "t.trace" ]
      in
      check Alcotest.int "exit 3" 3 code;
      check Alcotest.string "nothing on stdout" "" out;
      check Alcotest.string "one-line diagnostic"
        "lockdoc: simulator fault: double free of dentry at 0x19b22d (in \
         dentry_free <- dcache_readdir)\n"
        err)

(* ---- import --durable / recover ----------------------------------- *)

let ends_with s suffix =
  let ls = String.length s and lx = String.length suffix in
  ls >= lx && String.sub s (ls - lx) lx = suffix

(* A durable directory belongs to the trace it was started with; using
   it for another one is input the command cannot take: one line, exit
   1, and the directory untouched. *)
let test_durable_foreign_dir () =
  with_fixtures (fun ~dir ~clean ~bad:_ ->
      let state = Filename.concat dir "state" in
      let code, _, _ = run [ "import"; clean; "--durable"; state ] in
      check Alcotest.int "first import exits 0" 0 code;
      let manifest = Filename.concat state "MANIFEST" in
      let before = read_file manifest in
      let other = Filename.concat dir "other.trace" in
      Trace.save other (Run.workload_trace ~seed:3 "pipe");
      let code, out, err = run [ "import"; other; "--durable"; state ] in
      check Alcotest.int "exit 1" 1 code;
      check Alcotest.string "nothing on stdout" "" out;
      check Alcotest.string "one-line diagnostic"
        (Printf.sprintf
           "lockdoc: import: %s belongs to a different trace (%s, %d events; \
            given %s, %d events)\n"
           state clean
           (Array.length (fst (Trace.read clean)).Trace.events)
           other
           (Array.length (fst (Trace.read other)).Trace.events))
        err;
      check Alcotest.string "MANIFEST untouched" before (read_file manifest))

(* Directories of the earlier durable formats cannot be read any more:
   version 1 ("lockdoc-durable 1", "LOCKDOCSNAP1") journaled row ops,
   versions 2 and 3 ("lockdoc-durable 2"/"3", "LOCKDOCSNAP2"/"3")
   marshalled older engines and stores. Such a directory recovers to an
   empty store with a reason naming the format, never unmarshals its
   snapshot, and import --durable over it starts afresh. The version-2
   and version-3 snapshots below are well-formed marshalled blobs with
   a valid CRC, so only the format check keeps them from being read as
   a payload. *)
let v1_op_line = "AC\t26\t0\ts_flags\tr\t0\tfs/super.c:427\t0\t1"

let test_recover_old_format () =
  List.iter
    (fun (version, snap_magic, blob, wal_line) ->
      with_fixtures (fun ~dir ~clean ~bad:_ ->
          let n = Array.length (fst (Trace.read clean)).Trace.events in
          let state = Filename.concat dir "state" in
          Sys.mkdir state 0o755;
          let write name s =
            Out_channel.with_open_bin (Filename.concat state name) (fun oc ->
                output_string oc s)
          in
          write "MANIFEST"
            (Printf.sprintf
               "%s\nsnapshot=snap-000000.snap\nwal_lsn=0\n\
                trace_offset=0\ntrace_file=%s\ntrace_events=%d\ncomplete=false\n"
               version clean n);
          let hdr = Bytes.create 8 in
          Bytes.set_int32_le hdr 0 (Int32.of_int (String.length blob));
          Bytes.set_int32_le hdr 4 (Int32.of_int (Record.crc32 blob));
          write "snap-000000.snap" (snap_magic ^ Bytes.to_string hdr ^ blob);
          let w = Wal.create ~dir:state () in
          Wal.append w (wal_line clean);
          Wal.close w;
          let reason =
            Printf.sprintf
              "old-format directory (%s); rerun import --durable to rebuild it"
              version
          in
          let r = Durable.recover ~dir:state in
          check Alcotest.(option string) (version ^ ": reason names the old format")
            (Some reason) r.Durable.r_stop;
          check Alcotest.(option string) (version ^ ": no snapshot") None
            r.Durable.r_snapshot;
          check Alcotest.int (version ^ ": empty store: accesses") 0
            (Store.n_accesses r.Durable.r_store);
          check Alcotest.int (version ^ ": empty store: types") 0
            (Store.n_data_types r.Durable.r_store);
          let code, out, err = run [ "recover"; state ] in
          check Alcotest.int (version ^ ": recover exits 0") 0 code;
          check Alcotest.string (version ^ ": recover: nothing on stderr") "" err;
          check Alcotest.string (version ^ ": recover prints the reason")
            (Printf.sprintf
               "snapshot: none (%s)\nstore: 0 access(es), 0 txn(s), 0 lock(s), 0 \
                allocation(s), 0 type(s)\n"
               reason)
            out;
          let code, out, _ = run [ "import"; clean; "--durable"; state ] in
          check Alcotest.int (version ^ ": import --durable exits 0") 0 code;
          check Alcotest.bool (version ^ ": started afresh") false
            (contains out "resumed");
          let _, plain, _ = run [ "import"; clean ] in
          check Alcotest.bool (version ^ ": stats match a plain import") true
            (ends_with out plain);
          check Alcotest.bool (version ^ ": manifest rewritten in the current format")
            true
            (String.starts_with ~prefix:"lockdoc-durable 5\n"
               (read_file (Filename.concat state "MANIFEST")));
          let code, out, _ = run [ "recover"; "--derive"; state ] in
          check Alcotest.int (version ^ ": recover --derive exits 0") 0 code;
          check Alcotest.bool (version ^ ": complete") true
            (contains out "state: complete import");
          let _, derived, _ = run [ "derive"; clean ] in
          check Alcotest.bool (version ^ ": recovered rules match derive") true
            (derived <> "" && ends_with out derived)))
    [
      ( "lockdoc-durable 1",
        "LOCKDOCSNAP1\n",
        "an old marshalled payload",
        fun _ -> v1_op_line );
      ( "lockdoc-durable 2",
        "LOCKDOCSNAP2\n",
        Marshal.to_string ([ 1; 2; 3 ], "not this version's payload") [],
        fun clean ->
          Lockdoc_trace.Event.to_line (fst (Trace.read clean)).Trace.events.(0) );
      ( "lockdoc-durable 3",
        "LOCKDOCSNAP3\n",
        Marshal.to_string ([ 4; 5; 6 ], "a version-3 payload") [],
        fun clean ->
          Lockdoc_trace.Event.to_line (fst (Trace.read clean)).Trace.events.(0) );
      ( "lockdoc-durable 4",
        "LOCKDOCSNAP4\n",
        Marshal.to_string ([ 7; 8; 9 ], "a version-4 payload") [],
        fun clean ->
          Lockdoc_trace.Event.to_line (fst (Trace.read clean)).Trace.events.(0) );
    ]

(* A directory with no MANIFEST, snapshot or WAL segment is not
   durable state: recovering it is one line on stderr and exit 1, not
   an empty store that reads like a successful recovery. A crash before
   the first checkpoint leaves only a WAL segment, and that still
   recovers, to an empty store. *)
let test_recover_non_durable_dir () =
  with_fixtures (fun ~dir ~clean ~bad:_ ->
      let empty = Filename.concat dir "empty" in
      Sys.mkdir empty 0o755;
      Out_channel.with_open_bin (Filename.concat empty "notes.txt") (fun oc ->
          output_string oc "not durable state\n");
      let code, out, err = run [ "recover"; empty ] in
      check Alcotest.int "no durable state: exit 1" 1 code;
      check Alcotest.string "no durable state: nothing on stdout" "" out;
      check Alcotest.string "no durable state: one-line diagnostic"
        (Printf.sprintf
           "lockdoc: recover: %s holds no durable state (no MANIFEST, \
            snapshot or WAL segment)\n"
           empty)
        err;
      let _, man, _ = run [ "recover"; "--help=plain" ] in
      check Alcotest.bool "EXIT STATUS documents it" true
        (contains man "a directory without durable state for recover");
      let crashed = Filename.concat dir "crashed" in
      Sys.mkdir crashed 0o755;
      let w = Wal.create ~dir:crashed () in
      Wal.append w
        (Lockdoc_trace.Event.to_line (fst (Trace.read clean)).Trace.events.(0));
      Wal.close w;
      let code, out, err = run [ "recover"; crashed ] in
      check Alcotest.int "WAL segment only: exit 0" 0 code;
      check Alcotest.string "WAL segment only: nothing on stderr" "" err;
      check Alcotest.bool "WAL segment only: empty store" true
        (contains out
           "store: 0 access(es), 0 txn(s), 0 lock(s), 0 allocation(s), 0 \
            type(s)\n"))

(* ---- pack / unpack / binary fsck ---------------------------------- *)

let test_pack_unpack_roundtrip () =
  with_fixtures (fun ~dir ~clean ~bad:_ ->
      let packed = Filename.concat dir "clean.bin" in
      let code, out, _ = run [ "pack"; clean; "-o"; packed ] in
      check Alcotest.int "pack exits 0" 0 code;
      check Alcotest.bool "pack reports sizes" true (contains out "bytes");
      check Alcotest.bool "packed is smaller than half the text" true
        (2 * String.length (read_file packed)
        <= String.length (read_file clean));
      let unpacked = Filename.concat dir "clean2.trace" in
      let code, _, _ = run [ "unpack"; packed; "-o"; unpacked ] in
      check Alcotest.int "unpack exits 0" 0 code;
      check Alcotest.string "unpack reproduces the text bytes"
        (read_file clean) (read_file unpacked);
      (* The importer reads both forms identically (auto-detect). *)
      let _, from_text, _ = run [ "import"; clean ] in
      let _, from_bin, _ = run [ "import"; packed ] in
      check Alcotest.string "import stats agree across formats" from_text
        from_bin;
      let code, _, _ = run [ "import"; "--binary"; packed ] in
      check Alcotest.int "import --binary exits 0" 0 code)

let test_unpack_rejects_text () =
  with_fixtures (fun ~dir:_ ~clean ~bad:_ ->
      let code, _, err = run [ "unpack"; clean ] in
      check Alcotest.int "exit 1" 1 code;
      check Alcotest.bool "names the format" true (contains err "LDOCBIN1"))

(* The regression this pins: fsck used to misparse packed traces as
   text rows (every byte run an "unknown tag"); it must detect the
   format instead and fsck the decoded events. *)
let test_fsck_detects_binary () =
  with_fixtures (fun ~dir ~clean ~bad:_ ->
      let packed = Filename.concat dir "clean.bin" in
      let code, _, _ = run [ "pack"; clean; "-o"; packed ] in
      check Alcotest.int "pack exits 0" 0 code;
      let code, out, _ = run [ "fsck"; packed ] in
      check Alcotest.int "binary fsck exits 0" 0 code;
      check Alcotest.bool "names the binary format" true
        (contains out "binary (LDOCBIN1)");
      check Alcotest.bool "clean" true (contains out "clean: no anomalies");
      check Alcotest.bool "not misparsed as text" true
        (not (contains out "unknown-tag"));
      let code, out, _ = run [ "fsck"; "--json"; packed ] in
      check Alcotest.int "json exit 0" 0 code;
      check Alcotest.bool "json carries the format" true
        (contains out "\"format\":\"binary (LDOCBIN1)\"");
      (* A torn tail must surface as a diagnosed anomaly, not a crash. *)
      let torn = Filename.concat dir "torn.bin" in
      let bytes = read_file packed in
      let oc = open_out_bin torn in
      output_string oc (String.sub bytes 0 (String.length bytes - 5));
      close_out oc;
      let code, out, _ = run [ "fsck"; torn ] in
      check Alcotest.int "torn fsck exits 1" 1 code;
      check Alcotest.bool "torn tail diagnosed" true
        (contains out "reader anomalies"))

(* lockmeter, lockdep and export read through the same loader as
   derive: a packed trace gives the output of its text twin, and a
   damaged text trace gives exit 1 and one diagnostic line instead of an
   uncaught exception. *)
let baselines dir =
  let csv = Filename.concat dir "csv" in
  let export trace =
    let code, out, err = run [ "export"; trace; "-d"; csv ] in
    let tables =
      List.map
        (fun f -> read_file (Filename.concat csv f))
        (if code = 0 then Lockdoc_db.Csv.files else [])
    in
    (code, String.concat "\n" (out :: tables), err)
  in
  [
    ("lockmeter", fun trace -> run [ "lockmeter"; trace; "--json" ]);
    ("lockdep", fun trace -> run [ "lockdep"; trace; "--json" ]);
    ("export", export);
  ]

let test_baselines_read_packed () =
  with_fixtures (fun ~dir ~clean ~bad:_ ->
      let packed = Filename.concat dir "clean.bin" in
      let code, _, _ = run [ "pack"; clean; "-o"; packed ] in
      check Alcotest.int "pack exits 0" 0 code;
      List.iter
        (fun (name, cmd) ->
          let code, from_text, _ = cmd clean in
          check Alcotest.int (name ^ " on text exits 0") 0 code;
          let code, from_bin, err = cmd packed in
          check Alcotest.int (name ^ " on packed exits 0") 0 code;
          check Alcotest.string (name ^ " on packed: empty stderr") "" err;
          check Alcotest.string (name ^ ": packed output = text output")
            from_text from_bin)
        (baselines dir))

let test_baselines_damaged_trace () =
  with_fixtures (fun ~dir ~clean ~bad:_ ->
      let damaged = Filename.concat dir "damaged.trace" in
      let lines = String.split_on_char '\n' (read_file clean) in
      Out_channel.with_open_bin damaged (fun oc ->
          List.iteri
            (fun i l ->
              if i = 1 then output_string oc "T\tbroken layout\n";
              if l <> "" then output_string oc (l ^ "\n"))
            lines);
      List.iter
        (fun (name, cmd) ->
          let code, out, err = cmd damaged in
          check Alcotest.int (name ^ " exit 1") 1 code;
          check Alcotest.string (name ^ ": nothing on stdout") "" out;
          check Alcotest.bool (name ^ ": no uncaught exception") false
            (contains err "uncaught");
          match String.split_on_char '\n' err with
          | [ line; "" ] ->
              check Alcotest.bool (name ^ ": names the anomaly: " ^ line) true
                (contains line "lockdoc: fatal trace anomaly: "
                && contains line (damaged ^ ":2:"))
          | _ -> Alcotest.failf "%s: expected one stderr line, got %S" name err)
        (baselines dir))

(* Tab. 3 as `repro tab3` prints it (benchmark mix, seed 42, scale 8).
   A fresh process, so the registry holds exactly what the mix
   declares; any change to coverage accounting that moves a count shows
   here. *)
let test_repro_tab3_pinned () =
  let code, out, _ = run [ "repro"; "tab3" ] in
  check Alcotest.int "exit 0" 0 code;
  List.iter
    (fun row -> check Alcotest.bool row true (contains out row))
    [
      "| fs        | 32.09 % (1654/5154) | 37.88 % (111/293) |";
      "| fs/ext4   | 22.74 % (236/1038)  | 32.26 % (10/31)   |";
      "| fs/jbd2   | 40.35 % (372/922)   | 48.57 % (17/35)   |";
    ]

let () =
  Alcotest.run "cli"
    [
      ( "fsck",
        [
          Alcotest.test_case "clean trace" `Quick test_fsck_clean;
          Alcotest.test_case "metrics written on failing exit" `Quick
            test_metrics_written_on_failing_exit;
          Alcotest.test_case "json report" `Quick test_fsck_json;
          Alcotest.test_case "limit flag" `Quick test_fsck_limit;
        ] );
      ( "flags",
        [
          Alcotest.test_case "checked flags reject" `Quick
            test_checked_flags_reject;
          Alcotest.test_case "checked flags diagnose" `Quick
            test_checked_flags_diagnose;
          Alcotest.test_case "replay rejects unknown workload" `Quick
            test_replay_unknown_workload;
          Alcotest.test_case "unknown type key" `Quick test_unknown_type_key;
          Alcotest.test_case "lint flags diagnose" `Quick
            test_lint_flags_diagnose;
          Alcotest.test_case "lint rejects unknown workload" `Quick
            test_lint_unknown_workload;
          Alcotest.test_case "repro rejects unknown experiment" `Quick
            test_repro_unknown_experiment;
          Alcotest.test_case "repro tab3 pinned" `Quick test_repro_tab3_pinned;
          Alcotest.test_case "lint json smoke" `Quick test_lint_json_smoke;
          Alcotest.test_case "profile json smoke" `Quick test_profile_json;
          Alcotest.test_case "feed needs input" `Quick test_feed_needs_input;
          Alcotest.test_case "feed unreachable daemon" `Quick
            test_feed_unreachable;
          Alcotest.test_case "serve startup failures" `Quick
            test_serve_startup_failure;
          Alcotest.test_case "serve into a closed stdout" `Quick
            test_serve_closed_stdout;
          Alcotest.test_case "jobs flag removed" `Quick test_jobs_flag_removed;
          Alcotest.test_case "missing input file" `Quick
            test_missing_input_file;
          Alcotest.test_case "simulator fault" `Quick test_simulator_fault;
          Alcotest.test_case "simulator double free" `Quick
            test_simulator_double_free;
        ] );
      ( "durable",
        [
          Alcotest.test_case "import over another trace's dir" `Quick
            test_durable_foreign_dir;
          Alcotest.test_case "recover old-format dir" `Quick
            test_recover_old_format;
          Alcotest.test_case "recover non-durable dir" `Quick
            test_recover_non_durable_dir;
        ] );
      ( "binary",
        [
          Alcotest.test_case "pack/unpack round-trip" `Quick
            test_pack_unpack_roundtrip;
          Alcotest.test_case "unpack rejects text input" `Quick
            test_unpack_rejects_text;
          Alcotest.test_case "fsck detects binary traces" `Quick
            test_fsck_detects_binary;
          Alcotest.test_case "baselines read packed traces" `Quick
            test_baselines_read_packed;
          Alcotest.test_case "baselines reject damaged traces" `Quick
            test_baselines_damaged_trace;
        ] );
    ]
