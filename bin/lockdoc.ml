(** lockdoc — command-line front end.

    Subcommands follow the paper's pipeline (Fig. 5): [trace] records an
    execution of the simulated kernel, [import] post-processes a trace,
    [derive]/[doc]/[check]/[violations] are the phase-❷/❸ tools, and
    [repro] regenerates the evaluation tables and figures. *)

open Cmdliner

module Run = Lockdoc_ksim.Run
module Kernel = Lockdoc_ksim.Kernel
module Trace = Lockdoc_trace.Trace
module Import = Lockdoc_db.Import
module Dataset = Lockdoc_core.Dataset
module Derivator = Lockdoc_core.Derivator
module Docgen = Lockdoc_core.Docgen
module Violation = Lockdoc_core.Violation
module Registry = Lockdoc_experiments.Registry
module Context = Lockdoc_experiments.Context
module Obs = Lockdoc_obs.Obs
module Numarg = Lockdoc_util.Numarg
module Codec = Lockdoc_stream.Codec
module Memory = Lockdoc_ksim.Memory

(* A simulator fault — a simulated kernel path touched freed memory —
   is a defect of the simulator, not of the input or of the analysis:
   one line on stderr and its own exit code, listed in every command's
   EXIT STATUS. *)
let sim_fault_exit = 3

let exits =
  Cmd.Exit.info 1
    ~doc:
      "on an unknown workload or experiment, a fatal trace anomaly, or \
       input the command cannot take (a text trace for $(b,unpack), no \
       TRACE for $(b,feed), a directory without durable state for \
       $(b,recover))."
  :: Cmd.Exit.info sim_fault_exit
       ~doc:"on a simulator fault (the simulated kernel accessed freed memory)."
  :: Cmd.Exit.defaults

(* {2 Checked numeric converters}

   Bare [int]/[float] converters accept junk like "0x" leniently or
   produce terse messages; these reject with a one-line diagnostic
   (cmdliner turns [`Msg] into a usage error and a non-zero exit). *)

let conv_checked ~docv pp parse =
  Arg.conv ~docv
    ((fun s -> Result.map_error (fun e -> `Msg e) (parse s)), pp)

let checked_int = conv_checked ~docv:"N" Format.pp_print_int Numarg.int_arg
let positive_int = conv_checked ~docv:"N" Format.pp_print_int Numarg.positive

let non_negative_int =
  conv_checked ~docv:"N" Format.pp_print_int Numarg.non_negative

let fraction_float =
  conv_checked ~docv:"T" Format.pp_print_float Numarg.fraction

let positive_float =
  conv_checked ~docv:"SECONDS" Format.pp_print_float Numarg.positive_float

(* HOST:PORT for the TCP transport. The split is on the last colon so
   a future bracketed-IPv6 host still parses a numeric port. *)
let hostport =
  conv_checked ~docv:"HOST:PORT"
    (fun ppf (h, p) -> Format.fprintf ppf "%s:%d" h p)
    (fun s ->
      match String.rindex_opt s ':' with
      | None | Some 0 -> Error (Printf.sprintf "expected HOST:PORT, got %S" s)
      | Some i -> (
          let host = String.sub s 0 i in
          let port = String.sub s (i + 1) (String.length s - i - 1) in
          match int_of_string_opt port with
          | Some p when p >= 0 && p <= 65535 -> Ok (host, p)
          | Some p -> Error (Printf.sprintf "port %d out of range 0-65535" p)
          | None -> Error (Printf.sprintf "bad port %S in %S" port s)))

(* {2 Common options} *)

let scale_arg =
  Arg.(value & opt positive_int 8 & info [ "scale" ] ~docv:"N"
         ~doc:"Workload iteration multiplier (trace volume).")

let seed_arg =
  Arg.(value & opt checked_int 42 & info [ "seed" ] ~docv:"SEED"
         ~doc:"PRNG seed; runs are deterministic per seed.")

let tac_arg =
  Arg.(value & opt fraction_float 0.9 & info [ "tac" ] ~docv:"T"
         ~doc:"Acceptance threshold for hypothesis selection, in [0,1].")

let metrics_arg =
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
         ~doc:"Record internal metrics (counters, histograms, spans) during \
               the run and write a JSON snapshot to $(docv) on exit. Never \
               changes analysis output bytes.")

(* Commands exit through [Stdlib.exit] on both success and failure
   paths, which would skip a [Fun.protect] finaliser — so the snapshot
   write is registered as an [at_exit] handler instead and runs on
   every termination path. *)
let with_metrics path f =
  match path with
  | None -> f ()
  | Some path ->
      Obs.set_enabled true;
      Obs.write_on_exit path;
      f ()

let trace_file_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE"
         ~doc:"Trace file produced by $(b,lockdoc trace).")

let type_arg =
  Arg.(value & opt (some string) None & info [ "type" ] ~docv:"KEY"
         ~doc:"Restrict to one type key (e.g. inode:ext4, dentry).")

let mode_arg =
  let strict =
    (Import.Strict, Arg.info [ "strict" ]
       ~doc:"Abort on the first fatal trace anomaly (default).")
  in
  let lenient =
    (Import.Lenient, Arg.info [ "lenient" ]
       ~doc:"Recover from trace anomalies, count them, and keep going.")
  in
  Arg.(value & vflag Import.Strict [ strict; lenient ])

let run_config scale seed =
  { Run.kernel = { Kernel.default_config with Kernel.seed };
    Run.scale = scale; Run.faults = true }

(* Reading a directory fails mid-read with an errno that does not name
   the path; fail up front instead, the way opening a missing file
   does (both end in the [Sys_error] report at the bottom). *)
let check_not_dir path =
  if Sys.file_exists path && Sys.is_directory path then
    raise (Sys_error (path ^ ": Is a directory"))

(* Read a trace without printing anything: the trace, the reader's
   diagnostics, and whether it was read as a packed trace. Packed
   (LDOCBIN1) traces are auto-detected by magic; [--binary] forces the
   binary decoder (a garbled magic then fails loudly instead of
   silently misparsing the file as text rows). *)
let read_trace ?(binary = false) mode path =
  check_not_dir path;
  let binary = binary || Codec.file_is_binary path in
  let trace, diags =
    if binary then
      Codec.decode_string ~mode ~file:path
        (In_channel.with_open_bin path In_channel.input_all)
    else Trace.read ~mode path
  in
  (trace, diags, binary)

let load_trace ?binary mode path =
  let trace, diags, _ = read_trace ?binary mode path in
  List.iter
    (fun d -> Printf.eprintf "lockdoc: %s\n" (Lockdoc_trace.Diag.to_string d))
    diags;
  trace

(* Strict-mode readers/importers raise on the first fatal anomaly; turn
   that into a proper error message instead of an uncaught exception.
   Commands without [--lenient] pass [~lenient:false] and get no hint. *)
let or_fail ?(lenient = true) f =
  try f ()
  with Trace.Invalid d ->
    Printf.eprintf "lockdoc: fatal trace anomaly: %s\n"
      (Lockdoc_trace.Diag.to_string d);
    if lenient then
      Printf.eprintf "lockdoc: rerun with --lenient (or `lockdoc fsck`) to \
                      recover and survey the damage\n";
    exit 1

let load_dataset ?(mode = Import.Strict) ?binary path =
  or_fail @@ fun () ->
  let trace = load_trace ?binary mode path in
  let store, stats = Import.run ~mode trace in
  (Dataset.of_store store, stats)

(* A [--type] key the trace never observed would print an empty
   section and exit 0; name the keys it did observe instead. *)
let require_type_key ~known key =
  if not (List.mem key known) then begin
    Printf.eprintf "lockdoc: no observations for type key %s (known: %s)\n"
      key (String.concat ", " known);
    exit 1
  end

(* {2 trace} *)

let trace_cmd =
  let output =
    Arg.(value & opt string "lockdoc.trace" & info [ "o"; "output" ]
           ~docv:"FILE" ~doc:"Output trace file.")
  in
  let run scale seed output metrics =
    with_metrics metrics @@ fun () ->
    let trace, _cov = Run.benchmark_mix ~config:(run_config scale seed) () in
    Trace.save output trace;
    Printf.printf "wrote %d events to %s\n"
      (Array.length trace.Trace.events) output
  in
  Cmd.v (Cmd.info ~exits "trace" ~doc:"Run the benchmark mix and record a trace")
    Term.(const run $ scale_arg $ seed_arg $ output $ metrics_arg)

(* {2 import} *)

let import_cmd =
  let durable_arg =
    Arg.(value & opt (some string) None & info [ "durable" ] ~docv:"DIR"
           ~doc:"Import durably: journal every trace event and checkpoint \
                 into $(docv). A crashed import resumes from the last \
                 checkpoint when rerun with the same $(docv); a $(docv) \
                 written by an older version is started afresh.")
  in
  let checkpoint_arg =
    Arg.(value & opt positive_int 50_000 & info [ "checkpoint-every" ]
           ~docv:"N" ~doc:"Events between checkpoints (with --durable).")
  in
  let binary_arg =
    Arg.(value & flag & info [ "binary" ]
           ~doc:"Force the packed (LDOCBIN1) decoder. Packed traces are \
                 auto-detected by magic anyway; the flag turns a damaged \
                 magic into a loud decode failure instead of a text \
                 misparse.")
  in
  let run mode binary durable checkpoint_every path metrics =
    with_metrics metrics @@ fun () ->
    match durable with
    | None ->
        let _, stats = load_dataset ~mode ~binary path in
        Format.printf "%a@." Import.pp_stats stats
    | Some dir ->
        or_fail @@ fun () ->
        let trace = load_trace ~binary mode path in
        let _, stats, progress =
          try
            Lockdoc_db.Durable.import ~dir ~checkpoint_every ~mode
              ~trace_file:path trace
          with Lockdoc_db.Durable.Foreign_dir msg ->
            Printf.eprintf "lockdoc: import: %s\n" msg;
            exit 1
        in
        if progress.Lockdoc_db.Durable.pr_resumed_from > 0 then
          Printf.printf "resumed from event %d\n"
            progress.Lockdoc_db.Durable.pr_resumed_from;
        Printf.printf "%d checkpoint(s), %d WAL record(s) -> %s\n"
          progress.Lockdoc_db.Durable.pr_checkpoints
          progress.Lockdoc_db.Durable.pr_wal_records dir;
        Format.printf "%a@." Import.pp_stats stats
  in
  Cmd.v (Cmd.info ~exits "import" ~doc:"Post-process a trace and print statistics")
    Term.(
      const run $ mode_arg $ binary_arg $ durable_arg $ checkpoint_arg
      $ trace_file_arg $ metrics_arg)

(* {2 pack / unpack} *)

let pack_cmd =
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Output file (default: TRACE.bin).")
  in
  let segment_arg =
    Arg.(value & opt positive_int (64 * 1024) & info [ "segment-bytes" ]
           ~docv:"N"
           ~doc:"Target CRC segment size; smaller segments lose less to a \
                 corrupt frame, larger ones amortize framing better.")
  in
  let run mode segment_bytes path output metrics =
    with_metrics metrics @@ fun () ->
    or_fail @@ fun () ->
    let trace = load_trace mode path in
    let packed = Codec.encode_trace ~segment_bytes trace in
    let out = match output with Some o -> o | None -> path ^ ".bin" in
    let oc = open_out_bin out in
    output_string oc packed;
    close_out oc;
    let n = Array.length trace.Trace.events in
    let text_bytes =
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> in_channel_length ic)
    in
    Printf.printf "packed %d event(s): %d -> %d bytes (%.2fx, %.1f \
                   bytes/event) -> %s\n"
      n text_bytes (String.length packed)
      (if packed = "" then 0.
       else float_of_int text_bytes /. float_of_int (String.length packed))
      (if n = 0 then 0. else float_of_int (String.length packed) /. float_of_int n)
      out
  in
  Cmd.v
    (Cmd.info ~exits "pack"
       ~doc:
         "Encode a trace into the compact LDOCBIN1 binary format: \
          varint/delta-coded events with interned strings in CRC-protected \
          segments.")
    Term.(
      const run $ mode_arg $ segment_arg $ trace_file_arg $ output
      $ metrics_arg)

let unpack_cmd =
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Output file (default: TRACE.trace).")
  in
  let run mode path output metrics =
    with_metrics metrics @@ fun () ->
    or_fail @@ fun () ->
    if not (Codec.file_is_binary path) then begin
      Printf.eprintf "lockdoc: %s is not a packed (LDOCBIN1) trace\n" path;
      exit 1
    end;
    let trace = load_trace ~binary:true mode path in
    let out = match output with Some o -> o | None -> path ^ ".trace" in
    Trace.save out trace;
    Printf.printf "unpacked %d layout(s), %d event(s) -> %s\n"
      (List.length trace.Trace.layouts)
      (Array.length trace.Trace.events)
      out
  in
  Cmd.v
    (Cmd.info ~exits "unpack"
       ~doc:"Decode a packed (LDOCBIN1) trace back into the text format.")
    Term.(const run $ mode_arg $ trace_file_arg $ output $ metrics_arg)

(* {2 recover} *)

let recover_cmd =
  let dir_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR"
           ~doc:"Durable directory written by $(b,lockdoc import --durable).")
  in
  let derive_arg =
    Arg.(value & flag & info [ "derive" ]
           ~doc:"Also mine and print locking rules from the recovered store.")
  in
  let run dir derive tac metrics =
    with_metrics metrics @@ fun () ->
    let module Durable = Lockdoc_db.Durable in
    let module Store = Lockdoc_db.Store in
    (* [Durable.recover] treats a missing directory as an empty one
       ([import --durable] starts from it); here it is a missing input. *)
    if not (Sys.file_exists dir) then
      raise (Sys_error (dir ^ ": No such file or directory"));
    if not (Sys.is_directory dir) then
      raise (Sys_error (dir ^ ": Not a directory"));
    (* Recovering nothing would print an empty store, which reads like
       a successful recovery of a mistyped path. *)
    if not (Durable.is_durable ~dir) then begin
      Printf.eprintf
        "lockdoc: recover: %s holds no durable state (no MANIFEST, snapshot \
         or WAL segment)\n"
        dir;
      exit 1
    end;
    let r = Durable.recover ~dir in
    (match r.Durable.r_snapshot with
    | None ->
        Printf.printf "snapshot: none (%s)\n"
          (Option.value r.Durable.r_stop ~default:"empty directory")
    | Some s ->
        Printf.printf "snapshot: %s\n" s;
        Printf.printf "wal: %d event(s) replayed up to lsn %d\n"
          r.Durable.r_replayed r.Durable.r_wal_lsn;
        (match r.Durable.r_stop with
        | Some reason ->
            Printf.printf "wal tail: %s (truncated there)\n" reason
        | None -> Printf.printf "wal tail: clean\n");
        Printf.printf "state: %s"
          (if r.Durable.r_complete then "complete import"
           else
             Printf.sprintf "interrupted import at event %d"
               r.Durable.r_trace_offset);
        if not r.Durable.r_complete && r.Durable.r_trace_file <> "" then
          Printf.printf " (resume with: lockdoc import --durable %s %s)" dir
            r.Durable.r_trace_file;
        print_newline ());
    let s = r.Durable.r_store in
    Printf.printf
      "store: %d access(es), %d txn(s), %d lock(s), %d allocation(s), %d \
       type(s)\n"
      (Store.n_accesses s) (Store.n_txns s) (Store.n_locks s)
      (Store.n_allocations s) (Store.n_data_types s);
    if derive then begin
      let dataset = Dataset.of_store s in
      List.iter
        (fun key ->
          Printf.printf "== %s ==\n" key;
          List.iter
            (fun m -> print_endline ("  " ^ Docgen.member_line m))
            (Derivator.derive_type ~tac dataset key))
        (Dataset.type_keys dataset)
    end
  in
  Cmd.v
    (Cmd.info ~exits "recover"
       ~doc:
         "Rebuild a store from a durable directory without the source \
          trace: load the last snapshot and re-import the events journaled \
          after it. Tolerates torn and corrupt journal tails: replay stops \
          at the first bad record instead of failing. A directory without \
          a loadable snapshot (or in an older format) yields an empty \
          store and the reason; one with no MANIFEST, snapshot or WAL \
          segment at all is not durable state, and exits 1.")
    Term.(const run $ dir_arg $ derive_arg $ tac_arg $ metrics_arg)

(* {2 derive} *)

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON.")

let derive_cmd =
  let run mode path ty tac json metrics =
    with_metrics metrics @@ fun () ->
    let dataset, _ = load_dataset ~mode path in
    let keys =
      match ty with
      | Some key ->
          require_type_key ~known:(Dataset.type_keys dataset) key;
          [ key ]
      | None -> Dataset.type_keys dataset
    in
    if json then
      print_endline
        (Lockdoc_core.Report.mined_to_json
           (List.concat_map (Derivator.derive_type ~tac dataset) keys))
    else
      List.iter
        (fun key ->
          Printf.printf "== %s ==\n" key;
          List.iter
            (fun m -> print_endline ("  " ^ Docgen.member_line m))
            (Derivator.derive_type ~tac dataset key))
        keys
  in
  Cmd.v (Cmd.info ~exits "derive" ~doc:"Mine locking rules from a trace")
    Term.(
      const run $ mode_arg $ trace_file_arg $ type_arg $ tac_arg $ json_arg
      $ metrics_arg)

(* {2 doc} *)

let doc_cmd =
  let base_arg =
    Arg.(value & opt string "inode" & info [ "type" ] ~docv:"TYPE"
           ~doc:"Base data type to document (subclasses merged).")
  in
  let run path base tac metrics =
    with_metrics metrics @@ fun () ->
    let dataset, _ = load_dataset path in
    (* [derive_merged] documents a base type with its subclasses. *)
    let bases =
      List.sort_uniq String.compare
        (List.map
           (fun key ->
             match String.index_opt key ':' with
             | Some i -> String.sub key 0 i
             | None -> key)
           (Dataset.type_keys dataset))
    in
    require_type_key ~known:bases base;
    let mined = Derivator.derive_merged ~tac dataset base in
    print_endline
      (Docgen.generate ~kind:Lockdoc_core.Rule.W ~title:base mined);
    print_endline
      (Docgen.generate ~kind:Lockdoc_core.Rule.R ~title:(base ^ " (reads)") mined)
  in
  Cmd.v (Cmd.info ~exits "doc" ~doc:"Generate locking documentation from a trace")
    Term.(const run $ trace_file_arg $ base_arg $ tac_arg $ metrics_arg)

(* {2 check} *)

(* The documented-rule specs checked by [check] and [profile]. *)
let doc_specs () =
  let module Doc = Lockdoc_ksim.Documentation in
  let module Checker = Lockdoc_core.Checker in
  let module Rule = Lockdoc_core.Rule in
  List.map
    (fun (dr : Doc.doc_rule) ->
      let kind =
        match dr.Doc.d_access with Doc.R -> Rule.R | Doc.W -> Rule.W
      in
      {
        Checker.sp_type = dr.Doc.d_type;
        Checker.sp_member = dr.Doc.d_member;
        Checker.sp_kind = kind;
        Checker.sp_rule = Rule.parse dr.Doc.d_rule;
      })
    Doc.rules

let check_cmd =
  let run mode path metrics =
    with_metrics metrics @@ fun () ->
    let dataset, _ = load_dataset ~mode path in
    let module Checker = Lockdoc_core.Checker in
    let module Rule = Lockdoc_core.Rule in
    let checked = Checker.check_many dataset (doc_specs ()) in
    List.iter
      (fun (c : Checker.checked) ->
        Printf.printf "%-14s %-24s %s  %-40s sr=%6.2f%%  %s\n" c.Checker.c_type
          c.Checker.c_member
          (Rule.access_to_string c.Checker.c_kind)
          (Rule.to_string c.Checker.c_rule)
          (100. *. c.Checker.c_support.Lockdoc_core.Hypothesis.sr)
          (Checker.verdict_to_string c.Checker.c_verdict))
      checked
  in
  Cmd.v
    (Cmd.info ~exits "check" ~doc:"Check the documented locking rules against a trace")
    Term.(const run $ mode_arg $ trace_file_arg $ metrics_arg)

(* {2 fsck} *)

let fsck_cmd =
  let module Diag = Lockdoc_trace.Diag in
  let module Check = Lockdoc_trace.Check in
  let limit_arg =
    Arg.(value & opt non_negative_int 10 & info [ "limit" ] ~docv:"N"
           ~doc:"Maximum diagnostics to print per anomaly group (0 prints \
                 only the per-kind summary).")
  in
  let print_group ~limit title diags =
    if diags <> [] then begin
      Printf.printf "%s (%d):\n" title (List.length diags);
      List.iter
        (fun (kind, n) -> Printf.printf "  %-24s %d\n" kind n)
        (Diag.summarize diags);
      let shown = ref 0 in
      List.iter
        (fun d ->
          if !shown < limit then begin
            incr shown;
            Printf.printf "    %s\n" (Diag.to_string d)
          end)
        diags;
      if List.length diags > limit then
        Printf.printf "    ... %d more\n" (List.length diags - limit)
    end
  in
  let group_json diags =
    let open Lockdoc_core.Report in
    O
      [
        ("total", I (List.length diags));
        ( "fatal",
          I (List.length (List.filter Diag.is_fatal diags)) );
        ( "kinds",
          O (List.map (fun (kind, n) -> (kind, I n)) (Diag.summarize diags))
        );
      ]
  in
  let run path limit json metrics =
    with_metrics metrics @@ fun () ->
    (* Always lenient: the whole point is to survey the damage. *)
    let trace, reader_diags, binary = read_trace Trace.Lenient path in
    let format = if binary then "binary (LDOCBIN1)" else "text" in
    let stream_diags = Check.run trace in
    let _store, stats = Import.run ~mode:Import.Lenient trace in
    let an = Import.anomaly_total stats in
    let all = reader_diags @ stream_diags in
    let fatal = List.exists Diag.is_fatal all || an > 0 in
    let exit_code = if fatal then 1 else 0 in
    if json then begin
      let open Lockdoc_core.Report in
      print_endline
        (to_string
           (O
              [
                ("file", S path);
                ("format", S format);
                ("layouts", I (List.length trace.Trace.layouts));
                ("events", I (Array.length trace.Trace.events));
                ("reader_anomalies", group_json reader_diags);
                ("stream_anomalies", group_json stream_diags);
                ("import_anomalies", I an);
                ("fatal", S (string_of_bool fatal));
                ("exit_code", I exit_code);
              ]));
      exit exit_code
    end;
    Printf.printf "%s: %s format, %d layout(s), %d event(s)\n" path format
      (List.length trace.Trace.layouts)
      (Array.length trace.Trace.events);
    print_group ~limit "reader anomalies" reader_diags;
    print_group ~limit "stream anomalies" stream_diags;
    if an > 0 then begin
      Printf.printf "import anomalies (%d):\n" an;
      Format.printf "  @[<v>%a@]@." Import.pp_stats stats
    end;
    if all = [] && an = 0 then Printf.printf "clean: no anomalies\n";
    exit exit_code
  in
  Cmd.v
    (Cmd.info ~exits "fsck"
       ~doc:
         "Validate a trace file: parse leniently, check stream invariants, \
          replay the importer, and report every anomaly. Exits non-zero if \
          any fatal anomaly was found.")
    Term.(const run $ trace_file_arg $ limit_arg $ json_arg $ metrics_arg)

(* {2 violations} *)

let violations_cmd =
  let limit_arg =
    Arg.(value & opt non_negative_int 20 & info [ "limit" ] ~docv:"N"
           ~doc:"Maximum violations to print.")
  in
  let run mode path ty tac limit json metrics =
    with_metrics metrics @@ fun () ->
    let dataset, _ = load_dataset ~mode path in
    let mined = Derivator.derive_all ~tac dataset in
    let violations = Violation.find dataset mined in
    let violations =
      match ty with
      | None -> violations
      | Some key -> List.filter (fun v -> v.Violation.v_type = key) violations
    in
    if json then begin
      print_endline (Lockdoc_core.Report.violations_to_json violations);
      exit 0
    end;
    Printf.printf "%d rule-violating observations\n" (List.length violations);
    List.iteri
      (fun i v ->
        if i < limit then
          Printf.printf "%s.%s %s: expected [%s], held [%s] at %s (in %s)\n"
            v.Violation.v_type v.Violation.v_member
            (Lockdoc_core.Rule.access_to_string v.Violation.v_kind)
            (Lockdoc_core.Rule.to_string v.Violation.v_rule)
            (String.concat " -> "
               (List.map Lockdoc_core.Lockdesc.to_string v.Violation.v_held))
            (Lockdoc_trace.Srcloc.to_string v.Violation.v_loc)
            (match v.Violation.v_stack with f :: _ -> f | [] -> "?"))
      violations
  in
  Cmd.v (Cmd.info ~exits "violations" ~doc:"Locate locking-rule violations in a trace")
    Term.(
      const run $ mode_arg $ trace_file_arg $ type_arg $ tac_arg $ limit_arg
      $ json_arg $ metrics_arg)

(* {2 lockmeter} *)

let lockmeter_cmd =
  let top_arg =
    Arg.(value & opt positive_int 15 & info [ "top" ] ~docv:"N"
           ~doc:"Number of classes to show.")
  in
  let run path top json metrics =
    with_metrics metrics @@ fun () ->
    or_fail ~lenient:false @@ fun () ->
    let trace = load_trace Import.Strict path in
    let store, _ = Import.run trace in
    let stats = Lockdoc_core.Lockmeter.analyse trace store in
    if json then
      print_endline (Lockdoc_core.Report.lockmeter_to_json stats)
    else print_string (Lockdoc_core.Lockmeter.render ~top stats)
  in
  Cmd.v
    (Cmd.info ~exits "lockmeter"
       ~doc:"Per-lock-class usage statistics over a trace (the Lockmeter \
             baseline of the paper's Sec. 3.2)")
    Term.(const run $ trace_file_arg $ top_arg $ json_arg $ metrics_arg)

(* {2 export} *)

let export_cmd =
  let dir_arg =
    Arg.(value & opt string "lockdoc-csv" & info [ "d"; "dir" ] ~docv:"DIR"
           ~doc:"Output directory for the CSV relations.")
  in
  let run path dir metrics =
    with_metrics metrics @@ fun () ->
    or_fail ~lenient:false @@ fun () ->
    let trace = load_trace Import.Strict path in
    let store, _ = Import.run trace in
    Lockdoc_db.Csv.export ~dir store;
    Printf.printf "exported %d accesses / %d txns / %d locks to %s/{%s}\n"
      (Lockdoc_db.Store.n_accesses store)
      (Lockdoc_db.Store.n_txns store)
      (Lockdoc_db.Store.n_locks store)
      dir
      (String.concat "," Lockdoc_db.Csv.files)
  in
  Cmd.v
    (Cmd.info ~exits "export"
       ~doc:"Post-process a trace and export the relational store as CSV \
             (the MariaDB bulk-load interface of the paper's Sec. 6)")
    Term.(const run $ trace_file_arg $ dir_arg $ metrics_arg)

(* {2 relations} *)

let relations_cmd =
  let run path tac metrics =
    with_metrics metrics @@ fun () ->
    let dataset, _ = load_dataset path in
    let mined = Derivator.derive_all ~tac dataset in
    print_string (Lockdoc_core.Relations.render (Lockdoc_core.Relations.analyse mined))
  in
  Cmd.v
    (Cmd.info ~exits "relations"
       ~doc:"Report cross-object protection relations mined from EO rules \
             (the paper's future-work extension)")
    Term.(const run $ trace_file_arg $ tac_arg $ metrics_arg)

(* {2 lockdep} *)

let lockdep_cmd =
  let run path json metrics =
    with_metrics metrics @@ fun () ->
    or_fail ~lenient:false @@ fun () ->
    let trace = load_trace Import.Strict path in
    let store, _ = Import.run trace in
    let report = Lockdoc_core.Lockdep.analyse store in
    if json then print_endline (Lockdoc_core.Report.lockdep_to_json report)
    else print_string (Lockdoc_core.Lockdep.render report)
  in
  Cmd.v
    (Cmd.info ~exits "lockdep"
       ~doc:
         "Run the lockdep-style lock-order analysis over a trace (the \
          in-situ baseline the paper contrasts LockDoc with)")
    Term.(const run $ trace_file_arg $ json_arg $ metrics_arg)

(* {2 lint} *)

let lint_cmd =
  let module Lint = Lockdoc_static.Lint in
  let workload_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD"
           ~doc:"Benchmark family to lint against (fs_bench, fsstress, \
                 fs_inod, pipe, symlink, device).")
  in
  let lint_seed_arg =
    Arg.(value & opt checked_int 7 & info [ "seed" ] ~docv:"SEED"
           ~doc:"PRNG seed for the cross-validation trace.")
  in
  let lint_scale_arg =
    Arg.(value & opt positive_int 1 & info [ "scale" ] ~docv:"N"
           ~doc:"Workload iteration multiplier (trace volume).")
  in
  let run workload seed scale json metrics =
    if not (List.mem workload Run.workload_names) then begin
      Printf.eprintf "lockdoc: unknown workload %S (known: %s)\n" workload
        (String.concat ", " Run.workload_names);
      exit 1
    end;
    with_metrics metrics @@ fun () ->
    let trace = Run.workload_trace ~seed ~scale workload in
    let report = Lint.run ~workload trace in
    if json then
      print_endline (Lockdoc_core.Report.to_string (Lint.to_json report))
    else print_string (Lint.render report)
  in
  Cmd.v
    (Cmd.info ~exits "lint"
       ~doc:
         "Run the whole-program static lock-discipline analysis over the \
          declarative kernel IR and cross-validate it against a dynamic \
          trace of one benchmark family: static access sites are checked \
          against the rules mined from the trace, the static \
          acquisition-order graph is diffed against the dynamic lockdep \
          report, and statically reachable but dynamically unobserved \
          (member, lock-context) pairs are reported as coverage gaps.")
    Term.(
      const run $ workload_arg $ lint_seed_arg $ lint_scale_arg $ json_arg
      $ metrics_arg)

(* {2 sanitize} *)

let sanitize_cmd =
  let module Sanitize = Lockdoc_sanitizer.Sanitize in
  let workload_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD"
           ~doc:"Benchmark family to sanitize (fs_bench, fsstress, fs_inod, \
                 pipe, symlink, device).")
  in
  let clean_arg =
    Arg.(value & flag & info [ "clean" ]
           ~doc:"Silence the seeded ground-truth bugs (the zero-finding \
                 baseline). Default: seed them.")
  in
  let sanitize_seed_arg =
    Arg.(value & opt checked_int 7 & info [ "seed" ] ~docv:"SEED"
           ~doc:"PRNG seed; runs are deterministic per seed.")
  in
  let sanitize_scale_arg =
    Arg.(value & opt positive_int 1 & info [ "scale" ] ~docv:"N"
           ~doc:"Workload iteration multiplier (trace volume).")
  in
  let run workload clean seed scale json metrics =
    if not (List.mem workload Run.workload_names) then begin
      Printf.eprintf "lockdoc: unknown workload %S (known: %s)\n" workload
        (String.concat ", " Run.workload_names);
      exit 1
    end;
    with_metrics metrics @@ fun () ->
    let report = Sanitize.run ~seed ~scale ~bugs:(not clean) workload in
    if json then print_endline (Sanitize.to_json report)
    else print_string (Sanitize.render report)
  in
  Cmd.v
    (Cmd.info ~exits "sanitize"
       ~doc:
         "Trace one benchmark family and run the sanitizer layer over it: \
          Eraser-style lockset race detection plus lockdep-style \
          irq-safety analysis, cross-validated against the seeded \
          ground-truth bugs and the mined-rule violation scanner.")
    Term.(
      const run $ workload_arg $ clean_arg $ sanitize_seed_arg
      $ sanitize_scale_arg $ json_arg $ metrics_arg)

(* {2 replay} *)

let replay_cmd =
  let module Replay = Lockdoc_sanitizer.Replay in
  let workload_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD"
           ~doc:"Benchmark family to replay (fs_bench, fsstress, fs_inod, \
                 pipe, symlink, device).")
  in
  let clean_arg =
    Arg.(value & flag & info [ "clean" ]
           ~doc:"Silence the seeded ground-truth bugs (every finding must \
                 come back refuted). Default: seed them.")
  in
  let replay_seed_arg =
    Arg.(value & opt checked_int 7 & info [ "seed" ] ~docv:"SEED"
           ~doc:"PRNG seed; directed schedules are deterministic per seed.")
  in
  let replay_scale_arg =
    Arg.(value & opt positive_int 1 & info [ "scale" ] ~docv:"N"
           ~doc:"Workload iteration multiplier (trace volume).")
  in
  let budget_arg =
    Arg.(value & opt positive_int 8 & info [ "budget" ] ~docv:"N"
           ~doc:"Directed schedules per finding per search round (a \
                 positive integer).")
  in
  let run workload clean seed scale budget json metrics =
    if not (List.mem workload Run.workload_names) then begin
      Printf.eprintf "lockdoc: unknown workload %S (known: %s)\n" workload
        (String.concat ", " Run.workload_names);
      exit 1
    end;
    with_metrics metrics @@ fun () ->
    let report =
      Replay.run ~seed ~scale ~budget ~bugs:(not clean) workload
    in
    if json then print_endline (Replay.to_json report)
    else print_string (Replay.render report)
  in
  Cmd.v
    (Cmd.info ~exits "replay"
       ~doc:
         "Re-execute one benchmark family's sanitizer findings under \
          directed schedules: confirm each lockset race, rule violation \
          and irq-unsafe class with a serialized interleaving witness, or \
          refute it with a machine-checked reason (caller-held lock, RCU \
          read section, init/teardown quiescence, budget exhausted).")
    Term.(
      const run $ workload_arg $ clean_arg $ replay_seed_arg
      $ replay_scale_arg $ budget_arg $ json_arg $ metrics_arg)

(* {2 profile} *)

let profile_cmd =
  let workload_arg =
    Arg.(value & pos 0 string "mix" & info [] ~docv:"WORKLOAD"
           ~doc:"Workload to profile: $(b,mix) (the full benchmark mix, the \
                 default) or one benchmark family.")
  in
  let run scale seed tac workload json metrics =
    if workload <> "mix" && not (List.mem workload Run.workload_names) then
      begin
        Printf.eprintf "lockdoc: unknown workload %S (known: mix, %s)\n"
          workload
          (String.concat ", " Run.workload_names);
        exit 1
      end;
    Obs.set_enabled true;
    let phase name f = Obs.Span.timed ("profile/" ^ name) f in
    let trace, t_trace =
      phase "tracing" (fun () ->
          if workload = "mix" then
            fst (Run.benchmark_mix ~config:(run_config scale seed) ())
          else Run.workload_trace ~seed ~scale workload)
    in
    let (store, _), t_import = phase "import" (fun () -> Import.run trace) in
    let dataset, t_observations =
      phase "observations" (fun () -> Dataset.of_store store)
    in
    let mined, t_derive =
      phase "derive" (fun () -> Derivator.derive_all ~tac dataset)
    in
    let checked, t_check =
      phase "check" (fun () ->
          Lockdoc_core.Checker.check_many dataset (doc_specs ()))
    in
    let violations, t_violations =
      phase "violations" (fun () -> Violation.find dataset mined)
    in
    let phases =
      [
        ("tracing", t_trace); ("import", t_import);
        ("observations", t_observations); ("derive", t_derive);
        ("check", t_check); ("violations", t_violations);
      ]
    in
    let total =
      List.fold_left
        (fun acc (_, c) ->
          { Obs.Clock.wall = acc.Obs.Clock.wall +. c.Obs.Clock.wall;
            Obs.Clock.cpu = acc.Obs.Clock.cpu +. c.Obs.Clock.cpu })
        { Obs.Clock.wall = 0.; Obs.Clock.cpu = 0. }
        phases
    in
    let snap = Obs.snapshot () in
    let top =
      List.sort
        (fun (na, a) (nb, b) ->
          match compare b a with 0 -> compare na nb | c -> c)
        snap.Obs.sn_counters
    in
    let top = List.filteri (fun i (_, v) -> i < 12 && v > 0) top in
    if json then begin
      let module R = Lockdoc_core.Report in
      let clock_j (c : Obs.Clock.t) =
        R.O
          [
            ("wall_ms", R.F (1000. *. c.Obs.Clock.wall));
            ("cpu_ms", R.F (1000. *. c.Obs.Clock.cpu));
          ]
      in
      print_endline
        (R.to_string
           (R.O
              [
                ("workload", R.S workload);
                ("scale", R.I scale);
                ("seed", R.I seed);
                ( "phases",
                  R.O (List.map (fun (n, c) -> (n, clock_j c)) phases) );
                ("total", clock_j total);
                ( "pipeline",
                  R.O
                    [
                      ("events", R.I (Array.length trace.Trace.events));
                      ("groups", R.I (List.length mined));
                      ("rules_checked", R.I (List.length checked));
                      ("violations", R.I (List.length violations));
                    ] );
                ("counters", R.O (List.map (fun (n, v) -> (n, R.I v)) top));
              ]))
    end
    else begin
      Printf.printf "profile: %s (scale %d, seed %d)\n" workload scale seed;
      Printf.printf "%-14s %12s %12s\n" "phase" "wall" "cpu";
      let row name (c : Obs.Clock.t) =
        Printf.printf "%-14s %9.1f ms %9.1f ms\n" name
          (1000. *. c.Obs.Clock.wall)
          (1000. *. c.Obs.Clock.cpu)
      in
      List.iter (fun (n, c) -> row n c) phases;
      row "total" total;
      Printf.printf
        "pipeline: %d event(s), %d group(s), %d rule(s) checked, %d \
         violation(s)\n"
        (Array.length trace.Trace.events)
        (List.length mined) (List.length checked) (List.length violations);
      print_endline "top counters:";
      List.iter (fun (name, v) -> Printf.printf "  %-28s %d\n" name v) top
    end;
    match metrics with Some path -> Obs.write path | None -> ()
  in
  Cmd.v
    (Cmd.info ~exits "profile"
       ~doc:
         "Run the pipeline end to end on one workload with metrics enabled \
          and print per-phase wall/cpu timings plus the busiest internal \
          counters. Wall and CPU time are reported separately.")
    Term.(
      const run $ scale_arg $ seed_arg $ tac_arg $ workload_arg
      $ json_arg $ metrics_arg)

(* {2 repro} *)

let repro_cmd =
  let ids_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"ID"
           ~doc:"Experiment ids (fig1, tab1..tab8, fig7, fig8, sec72, \
                 sanitize, lint); default: all.")
  in
  let run scale seed ids metrics =
    with_metrics metrics @@ fun () ->
    let ids = if ids = [] then Registry.ids else ids in
    let ctx = lazy (Context.create ~scale ~seed ()) in
    List.iter
      (fun id ->
        match Registry.find id with
        | None ->
            Printf.eprintf "lockdoc: unknown experiment %s (known: %s)\n" id
              (String.concat ", " Registry.ids);
            exit 1
        | Some e ->
            print_endline (e.Registry.render ctx);
            print_newline ())
      ids
  in
  Cmd.v
    (Cmd.info ~exits "repro" ~doc:"Regenerate the paper's evaluation tables/figures")
    Term.(const run $ scale_arg $ seed_arg $ ids_arg $ metrics_arg)

(* {2 serve / feed} *)

let socket_arg =
  Arg.(value & opt string "lockdoc.sock" & info [ "socket" ] ~docv:"PATH"
         ~doc:"Unix-domain socket the daemon listens on.")

let serve_cmd =
  let module Server = Lockdoc_serve.Server in
  let max_clients_arg =
    Arg.(value & opt positive_int Server.default_config.Server.max_clients
         & info [ "max-clients" ] ~docv:"N"
             ~doc:"Concurrent client connections; extras are rejected with a \
                   structured retry-after.")
  in
  let session_timeout_arg =
    Arg.(value
         & opt positive_float Server.default_config.Server.session_timeout
         & info [ "session-timeout" ] ~docv:"SECONDS"
             ~doc:"Idle seconds before a silent connection is closed and a \
                   detached session is garbage collected.")
  in
  let durable_arg =
    Arg.(value & opt (some string) None & info [ "durable" ] ~docv:"DIR"
           ~doc:"Journal each session's accepted rows under $(docv); a \
                 reconnecting client resumes from the journal even after a \
                 session crash.")
  in
  let tcp_arg =
    Arg.(value & opt (some hostport) None & info [ "tcp" ] ~docv:"HOST:PORT"
           ~doc:"Additionally listen on this TCP endpoint (port 0 binds an \
                 ephemeral port, printed at startup). Both transports serve \
                 the identical protocol and sessions.")
  in
  let run socket tcp max_clients session_timeout durable tac metrics =
    with_metrics metrics @@ fun () ->
    let config =
      {
        Server.default_config with
        Server.max_clients;
        session_timeout;
        durable_root = durable;
        tac;
      }
    in
    let on_ready tcp_port =
      Printf.printf "lockdoc serve: listening on %s\n%!" socket;
      Option.iter
        (Printf.printf "lockdoc serve: listening on tcp port %d\n%!")
        tcp_port
    in
    (* A listener or durable root that cannot be set up is reported
       like a missing file: one line naming the address, exit 123. *)
    (try Lockdoc_serve.Sockserv.serve ~config ?tcp ~on_ready ~socket ()
     with Lockdoc_serve.Sockserv.Error reason ->
       Printf.eprintf "lockdoc: serve: %s\n" reason;
       exit Cmd.Exit.some_error);
    Printf.printf "lockdoc serve: shut down\n"
  in
  Cmd.v
    (Cmd.info ~exits "serve"
       ~doc:
         "Run the supervised analysis daemon: clients stream trace rows \
          over a Unix socket (and optionally TCP, $(b,--tcp)) into isolated \
          per-session imports and seal them into mined rules. \
          Session crashes are restarted with capped backoff; with \
          $(b,--durable), sessions survive them with their accepted rows \
          intact.")
    Term.(
      const run $ socket_arg $ tcp_arg $ max_clients_arg $ session_timeout_arg
      $ durable_arg $ tac_arg $ metrics_arg)

let feed_cmd =
  let module Proto = Lockdoc_serve.Proto in
  let module Sockserv = Lockdoc_serve.Sockserv in
  let session_arg =
    Arg.(value & opt string "default" & info [ "session" ] ~docv:"NAME"
           ~doc:"Session to stream into (resumes if it already exists).")
  in
  let trace_opt_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"TRACE"
           ~doc:"Trace file to stream (omit for --query/--shutdown).")
  in
  let query_arg =
    let q =
      Arg.enum
        [
          ("status", Proto.Status); ("metrics", Proto.Metrics);
          ("stream", Proto.Stream_rules);
        ]
    in
    Arg.(value & opt (some q) None & info [ "query" ] ~docv:"WHAT"
           ~doc:"Ask the daemon for $(docv) (status, metrics, or stream) as \
                 JSON instead of streaming a trace. $(b,stream) attaches to \
                 $(b,--session) and answers its current rules from the \
                 online derivator without sealing it.")
  in
  let shutdown_arg =
    Arg.(value & flag & info [ "shutdown" ]
           ~doc:"Ask the daemon to shut down instead of streaming a trace.")
  in
  let tcp_arg =
    Arg.(value & opt (some hostport) None & info [ "tcp" ] ~docv:"HOST:PORT"
           ~doc:"Connect to the daemon over TCP instead of the Unix \
                 socket.")
  in
  let follow_arg =
    Arg.(value & flag & info [ "follow" ]
           ~doc:"While streaming, subscribe to pushed rule updates: the \
                 daemon sends a snapshot and then a delta whenever the \
                 online derivation changes past its debounce, each printed \
                 as one JSON line — no polling.")
  in
  (* An unreachable or failing daemon is reported like a missing file:
     one line naming the address, exit 123. *)
  let reach_daemon ?tcp ~socket f =
    let address =
      match tcp with
      | Some (host, port) -> Printf.sprintf "%s:%d" host port
      | None -> socket
    in
    let fail reason =
      Printf.eprintf "lockdoc: feed: %s: %s\n" address reason;
      exit Cmd.Exit.some_error
    in
    try f () with
    | Unix.Unix_error (e, _, _) -> fail (Unix.error_message e)
    | Sockserv.Error reason -> fail reason
  in
  let run socket tcp session trace query shutdown follow json metrics =
    with_metrics metrics @@ fun () ->
    reach_daemon ?tcp ~socket @@ fun () ->
    if shutdown then begin
      match Sockserv.request ?tcp ~socket Proto.Shutdown with
      | Proto.Closing { reason } -> Printf.printf "daemon closing: %s\n" reason
      | m -> Printf.printf "%s\n" (Proto.server_to_payload m)
    end
    else
      match query with
      | Some Proto.Stream_rules ->
          print_endline (Sockserv.stream_query ?tcp ~socket ~session ())
      | Some q -> (
          match Sockserv.request ?tcp ~socket (Proto.Query q) with
          | Proto.Info { json } -> print_endline json
          | m ->
              Printf.eprintf "lockdoc: unexpected reply: %s\n"
                (Proto.server_to_payload m);
              exit 1)
      | None -> (
          match trace with
          | None ->
              Printf.eprintf
                "lockdoc: feed needs a TRACE file (or --query/--shutdown)\n";
              exit 1
          | Some path ->
              (* load_trace auto-detects packed traces, so a .bin feeds
                 the same rows the text file would. *)
              let lines =
                Trace.to_lines (or_fail @@ fun () ->
                                load_trace Import.Strict path)
              in
              let follow_cb =
                if follow then Some (fun json -> Printf.printf "%s\n%!" json)
                else None
              in
              let sealed =
                Sockserv.feed ?tcp ?follow:follow_cb ~socket ~session lines
              in
              if json then
                (* Session ids are [A-Za-z0-9._-] (server-enforced before
                   anything can seal), so splicing is JSON-safe. *)
                Printf.printf
                  "{\"session\":\"%s\",\"events\":%d,\"rules\":%s,\"violations\":%s}\n"
                  session sealed.Sockserv.events sealed.Sockserv.rules
                  sealed.Sockserv.violations
              else
                Printf.printf "sealed session %s: %d event(s) analysed\n"
                  session sealed.Sockserv.events)
  in
  Cmd.v
    (Cmd.info ~exits "feed"
       ~doc:
         "Stream a trace into a running $(b,lockdoc serve) daemon and seal \
          the session; or query the daemon ($(b,--query)), or stop it \
          ($(b,--shutdown)). With $(b,--follow), pushed rule updates are \
          printed live while streaming. The streaming client survives \
          connection loss and session restarts by resuming from the \
          server's watermark.")
    Term.(
      const run $ socket_arg $ tcp_arg $ session_arg $ trace_opt_arg
      $ query_arg $ shutdown_arg $ follow_arg $ json_arg $ metrics_arg)

let main =
  Cmd.group
    (Cmd.info ~exits "lockdoc" ~version:"1.0.0"
       ~doc:"Trace-based analysis of locking in a simulated Linux kernel")
    [
      trace_cmd; import_cmd; pack_cmd; unpack_cmd; recover_cmd; fsck_cmd;
      derive_cmd; doc_cmd;
      check_cmd;
      violations_cmd; lockdep_cmd; lint_cmd; lockmeter_cmd; sanitize_cmd;
      replay_cmd;
      export_cmd;
      relations_cmd; profile_cmd; repro_cmd; serve_cmd; feed_cmd;
    ]

(* A missing or unreadable file is an input error, not a bug: report
   the system's one-line reason (it names the path) and exit 123, which
   every command's EXIT STATUS lists, instead of cmdliner's exit-125
   "internal error" dump. A simulator fault likewise gets one line and
   [sim_fault_exit]. Any other escaping exception keeps that
   internal-error report and code. *)
let () =
  exit
    (match Cmd.eval ~catch:false main with
    | code -> code
    | exception Sys_error reason ->
        (* A reader that closed stdout early (EPIPE: serve and feed
           ignore SIGPIPE) leaves the unwritten bytes buffered, and the
           flush at exit would raise again: write what still can be,
           then close it. *)
        close_out_noerr stdout;
        Printf.eprintf "lockdoc: %s\n" reason;
        Cmd.Exit.some_error
    | exception Memory.Use_after_free what ->
        Printf.eprintf "lockdoc: simulator fault: use-after-free of %s\n" what;
        sim_fault_exit
    | exception exn ->
        let bt = Printexc.get_raw_backtrace () in
        Printf.eprintf "lockdoc: internal error, uncaught exception:\n%s\n"
          (Printexc.to_string exn);
        Printexc.print_raw_backtrace stderr bt;
        Cmd.Exit.internal_error)
