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
      [ "serve"; "--queue-bytes"; "0" ];
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

let test_replay_unknown_workload () =
  let code, _, err = run [ "replay"; "warp_drive" ] in
  check Alcotest.int "exit 1" 1 code;
  check Alcotest.bool "lists the known families" true
    (contains err "fs_bench")

let test_lint_flags_diagnose () =
  let code, _, err = run [ "lint"; "fs_bench"; "--scale"; "huge" ] in
  check Alcotest.bool "scale: non-zero exit" true (code <> 0);
  check Alcotest.bool "scale: names the flag" true (contains err "--scale")

let test_lint_unknown_workload () =
  let code, _, err = run [ "lint"; "warp_drive" ] in
  check Alcotest.int "exit 1" 1 code;
  check Alcotest.bool "says unknown workload" true
    (contains err "unknown workload");
  check Alcotest.bool "lists the known families" true
    (contains err "fs_bench")

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
        (contains man "on a simulator fault"))
    [
      "trace"; "import"; "pack"; "unpack"; "recover"; "fsck"; "derive"; "doc";
      "check"; "violations"; "lockdep"; "lint"; "lockmeter"; "sanitize";
      "replay"; "export"; "relations"; "profile"; "repro"; "serve"; "feed";
    ]

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
          Alcotest.test_case "lint flags diagnose" `Quick
            test_lint_flags_diagnose;
          Alcotest.test_case "lint rejects unknown workload" `Quick
            test_lint_unknown_workload;
          Alcotest.test_case "lint json smoke" `Quick test_lint_json_smoke;
          Alcotest.test_case "profile json smoke" `Quick test_profile_json;
          Alcotest.test_case "feed needs input" `Quick test_feed_needs_input;
          Alcotest.test_case "feed unreachable daemon" `Quick
            test_feed_unreachable;
          Alcotest.test_case "jobs flag removed" `Quick test_jobs_flag_removed;
          Alcotest.test_case "missing input file" `Quick
            test_missing_input_file;
          Alcotest.test_case "simulator fault" `Quick test_simulator_fault;
        ] );
      ( "binary",
        [
          Alcotest.test_case "pack/unpack round-trip" `Quick
            test_pack_unpack_roundtrip;
          Alcotest.test_case "unpack rejects text input" `Quick
            test_unpack_rejects_text;
          Alcotest.test_case "fsck detects binary traces" `Quick
            test_fsck_detects_binary;
        ] );
    ]
