(* The four benchmark workloads: how each one sets up its inputs and what
   one timed pass does.

   Both halves run in child processes of the benchmark executable (see
   lockdoc_bench.ml): [setup] writes the inputs of one workload into a
   directory, [pass] loads them, runs one timed pass and checks its
   outputs after the timed region. Every timed call is a public library
   call, the same one the matching `lockdoc` subcommand makes, wrapped in
   a {!Tracer.span}. *)

module Trace = Lockdoc_trace.Trace
module Run = Lockdoc_ksim.Run
module Kernel = Lockdoc_ksim.Kernel
module Seeded = Lockdoc_ksim.Seeded
module Import = Lockdoc_db.Import
module Dataset = Lockdoc_core.Dataset
module Derivator = Lockdoc_core.Derivator
module Violation = Lockdoc_core.Violation
module Report = Lockdoc_core.Report
module Codec = Lockdoc_stream.Codec
module Frame = Lockdoc_serve.Frame
module Proto = Lockdoc_serve.Proto
module Server = Lockdoc_serve.Server
module Sanitize = Lockdoc_sanitizer.Sanitize
module Replay = Lockdoc_sanitizer.Replay
module Crossval = Lockdoc_sanitizer.Crossval
module Lint = Lockdoc_static.Lint
module Pool = Lockdoc_util.Pool
module Obs = Lockdoc_obs.Obs

let span = Tracer.span
let now = Tracer.now
let names = [ "mine-text"; "mine-packed"; "serve-live"; "triage" ]

(* Mix scale per workload. The packed trace is twice the text trace so
   heap and working-set growth show. The scales keep one pass near a
   second, so a run takes tens of passes and its median holds on a
   noisy shared machine, and keep a pass under 150 MB of heap. Smoke
   runs use scale 1 everywhere, so mine-text, mine-packed and
   serve-live client 0 share one trace. *)
let scale ~smoke w =
  if smoke then 1
  else match w with "mine-text" -> 2 | "mine-packed" -> 4 | _ -> 1

(* Families triage replays: every one but fs_bench, where `lockdoc
   replay` dies with a use-after-free of dentry.d_subdirs in dput on
   about one seed in five (9, 16, 20, 24, 42, ...). Put fs_bench back
   when that crash is fixed. *)
let replay_families = List.filter (fun f -> f <> "fs_bench") Run.workload_names

(* Triage runs each family at three seeds derived from the run's seed
   (disjoint for distinct run seeds). At scale 1 one family's cost and
   heap depend on its seed (replay retries, lint's trace), and three
   seeds per family keep one draw from setting a whole run's numbers. *)
let family_seeds seed = List.init 3 (fun i -> (3 * seed) + i)

let mix ~seed ~scale =
  let config =
    { Run.kernel = { Kernel.default_config with Kernel.seed }; Run.scale; Run.faults = true }
  in
  fst (Run.benchmark_mix ~config ())

let ( // ) = Filename.concat

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let marshal_to path v = Out_channel.with_open_bin path (fun oc -> Marshal.to_channel oc v [])

let unmarshal_from path = In_channel.with_open_bin path Marshal.from_channel

(* Runs [f] and returns its result and wall time. The garbage of the
   child's start-up and input loading is collected first, so it is not
   charged to [f]. *)
let time_region f =
  Gc.full_major ();
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* {1 Set-up} *)

type setup_result = {
  s_wall_s : float;  (** simulation plus encoding and writing of the inputs *)
  s_events : int;  (** trace events simulated *)
  s_simulate_s : float;  (** time inside the ksim calls *)
  s_input_hash : string;  (** MD5 over every input file written *)
}

let setup w ~seed ~smoke ~dir =
  let sim_s = ref 0. in
  let simulate f =
    let t0 = now () in
    let r = f () in
    sim_s := !sim_s +. (now () -. t0);
    r
  in
  let scale = scale ~smoke w in
  let (events, files), wall =
    time_region @@ fun () ->
    match w with
    | "mine-text" ->
        let t = simulate (fun () -> mix ~seed ~scale) in
        Trace.save (dir // "trace.txt") t;
        (Array.length t.Trace.events, [ "trace.txt" ])
    | "mine-packed" ->
        let t = simulate (fun () -> mix ~seed ~scale) in
        write_file (dir // "trace.bin") (Codec.encode_trace t);
        (Array.length t.Trace.events, [ "trace.bin" ])
    | "serve-live" ->
        (* In this order: ksim numbers source lines by first use, so
           client 0 is the trace mine-* would simulate for [seed]. *)
        let t0 = simulate (fun () -> mix ~seed ~scale) in
        let ts = [ t0; simulate (fun () -> mix ~seed:(seed + 1) ~scale) ] in
        List.iteri (fun i t -> Trace.save (dir // Printf.sprintf "client%d.txt" i) t) ts;
        let counts = List.map (fun t -> Array.length t.Trace.events) ts in
        marshal_to (dir // "clients.meta") counts;
        (List.fold_left ( + ) 0 counts, [ "client0.txt"; "client1.txt"; "clients.meta" ])
    | "triage" ->
        let cases =
          simulate (fun () ->
              List.concat_map
                (fun f ->
                  List.map
                    (fun k ->
                      let st, truth = Run.sanitize_trace ~seed:k ~scale ~bugs:true f in
                      (f, k, st, truth, Run.workload_trace ~seed:k ~scale f))
                    (family_seeds seed))
                Run.workload_names)
        in
        marshal_to (dir // "triage.bin") cases;
        ( List.fold_left
            (fun a (_, _, st, _, wt) ->
              a + Array.length st.Trace.events + Array.length wt.Trace.events)
            0 cases,
          [ "triage.bin" ] )
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  {
    s_wall_s = wall;
    s_events = events;
    s_simulate_s = !sim_s;
    s_input_hash =
      Digest.to_hex (Digest.string (String.concat "" (List.map (fun f -> Digest.file (dir // f)) files)));
  }

(* {1 One pass} *)

type pass_result = {
  wall_s : float;
  cpu_s : float;  (** process CPU time over the timed region, all domains *)
  heap_words : int;  (** [Gc.quick_stat ()].top_heap_words at the end *)
  events : int;  (** trace events the pass analysed *)
  hash : string;  (** MD5 of every output of the pass *)
  shared_hash : string;
      (** MD5 of the rules and violations mined from the mix trace of
          [seed]: the whole output on mine-*, client 0's sealed output on
          serve-live, empty on triage *)
  attempted : int;
  problems : string list;  (** one per failed op *)
  samples : (string * float list) list;  (** latency samples, ms *)
  values : (string * float) list;  (** per-layer values of this pass *)
  spans : Tracer.span array;
}

type outcome = {
  o_events : int;
  o_outputs : string list;
  o_shared : string;
  o_attempted : int;
  o_problems : string list;  (** one entry per failed op *)
  o_samples : (string * float list) list;
}

(* Counts and sizes a workload reports alongside its spans. *)
let values : (string, float) Hashtbl.t = Hashtbl.create 16

let add name v =
  Hashtbl.replace values name (v +. Option.value ~default:0. (Hashtbl.find_opt values name))

let addi name n = add name (float_of_int n)

let jobs = Pool.default_jobs ()

(* `lockdoc derive --json` plus `lockdoc violations --json` after the
   trace is loaded: import, fold, derive, find violations, encode. *)
let mine trace =
  let store, stats = span ~alloc:true "import.run" (fun () -> Import.run trace) in
  let dataset = span ~alloc:true "dataset.fold" (fun () -> Dataset.of_store store) in
  let mined = span "derive.run" (fun () -> Derivator.derive_all ~jobs dataset) in
  let violations = span "violation.find" (fun () -> Violation.find ~jobs dataset mined) in
  let out =
    span "report.json" (fun () ->
        Report.mined_to_json mined ^ "\n" ^ Report.violations_to_json violations)
  in
  (stats, dataset, mined, violations, out)

(* Per-layer values of one [mine] call, taken after the timed region. *)
let record_mine (stats, dataset, mined, violations, out) =
  addi "import.events" stats.Import.total_events;
  addi "import.mem_accesses" stats.Import.mem_accesses;
  addi "import.kept" stats.Import.accesses_kept;
  addi "import.txns" stats.Import.txns;
  List.iter
    (fun k -> addi "dataset.observations" (List.length (Dataset.observations dataset k)))
    (Dataset.type_keys dataset);
  addi "derive.groups" (List.length mined);
  List.iter (fun m -> addi "derive.hypotheses" (List.length m.Derivator.m_hypotheses)) mined;
  addi "violation.count" (List.length violations);
  addi "report.bytes" (String.length out)

let mine_problems (stats, _, _, _, _) diags =
  (if Import.anomaly_total stats > 0 then
     [ Printf.sprintf "%d import anomalies" (Import.anomaly_total stats) ]
   else [])
  @ if diags <> [] then [ Printf.sprintf "%d reader diagnostics" (List.length diags) ] else []

(* mine-text and mine-packed: [load] reads the trace file inside the
   timed region, then the mine pass runs on it. *)
let pass_mine timed load =
  let trace, diags, r =
    timed (fun () ->
        let trace, diags = load () in
        (trace, diags, mine trace))
  in
  record_mine r;
  let (_, _, _, _, out) = r in
  {
    o_events = Array.length trace.Trace.events;
    o_outputs = [ out ];
    o_shared = out;
    o_attempted = 1;
    o_problems = mine_problems r diags;
    o_samples = [];
  }

(* {2 serve-live} *)

let rows_per_frame = 256

(* Each client sends this many queries, evenly spaced over its frames.
   A query costs in proportion to the session state, so a fixed count
   keeps a pass's cost close to linear in its events, and
   [events_per_s] comparable across seeds whose traces differ in
   length. *)
let queries_per_client = 16

(* Whether a query is due after frame [i] (1-based) of [n]: [i] crosses
   the next multiple of [n / queries_per_client]; the last is after
   frame [n]. *)
let query_due i n = i * queries_per_client / n > (i - 1) * queries_per_client / n

let lines_of path =
  match List.rev (String.split_on_char '\n' (read_file path)) with
  | "" :: rest -> List.rev rest
  | l -> List.rev l

let enc m = Frame.encode (Proto.client_to_payload m)

type client = {
  lines : string list;
  frames : string array;  (** pre-encoded [Rows] frames *)
  rows : int;
  expected_events : int;
}

let load_client path expected_events =
  let lines = lines_of path in
  let frames = ref [] and batch = ref [] and n = ref 0 and start = ref 0 in
  let flush () =
    if !batch <> [] then begin
      frames := enc (Proto.Rows { start = !start; lines = List.rev !batch }) :: !frames;
      start := !start + !n;
      batch := [];
      n := 0
    end
  in
  List.iter
    (fun l ->
      batch := l :: !batch;
      incr n;
      if !n = rows_per_frame then flush ())
    lines;
  flush ();
  { lines; frames = Array.of_list (List.rev !frames); rows = !start; expected_events }

(* Batch mining of one client's trace: the oracle its sealed output must
   equal (checked on the first pass only; every later pass must then
   reproduce the first pass's hash). *)
let batch_output c =
  let trace = Trace.of_lines c.lines in
  let store, _ = Import.run trace in
  let dataset = Dataset.of_store store in
  let mined = Derivator.derive_all ~tac:Server.default_config.Server.tac ~jobs dataset in
  Report.mined_to_json mined ^ "\n" ^ Report.violations_to_json (Violation.find ~jobs dataset mined)

(* Two clients take turns on one sans-IO server (closed loop, one [step]
   per round). Each sends its trace as 256-row frames with
   [queries_per_client] [Stream_rules] queries among them, then [Seal]. *)
let pass_serve ~dir ~verify timed =
  let counts : int list = unmarshal_from (dir // "clients.meta") in
  let clients =
    Array.of_list
      (List.mapi (fun i n -> load_client (dir // Printf.sprintf "client%d.txt" i) n) counts)
  in
  let problems = ref [] and attempted = ref 0 in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let rows_ms = ref [] and query_ms = ref [] and seal_ms = ref [] in
  let sealed = Array.make (Array.length clients) None in
  timed (fun () ->
      let srv = Server.create () in
      let step () = ignore (span "serve.step" (fun () -> Server.step srv ~now:(now ()))) in
      (* One request: send, and on [Retry_after] step and resend. The
         latency runs from the first send to the accepted reply. *)
      let request name cid frame =
        incr attempted;
        let t0 = now () in
        let rec go () =
          match span name (fun () -> Server.on_bytes srv ~now:(now ()) cid frame) with
          | [ Server.Send (_, Proto.Retry_after _) ] ->
              add "serve.retry_after" 1.;
              step ();
              go ()
          | outs -> outs
        in
        let outs = go () in
        ((now () -. t0) *. 1000., outs)
      in
      let conns =
        Array.mapi
          (fun i _ ->
            let cid, _ = Server.accept srv ~now:(now ()) in
            (match
               snd
                 (request "serve.hello" cid
                    (enc (Proto.Hello { version = Proto.version; session = Printf.sprintf "client%d" i })))
             with
            | [ Server.Send (_, Proto.Welcome _) ] -> ()
            | _ -> fail "client %d: hello refused" i);
            cid)
          clients
      in
      let next = Array.make (Array.length clients) 0 in
      let live = ref true in
      while !live do
        live := false;
        Array.iteri
          (fun i c ->
            if next.(i) < Array.length c.frames then begin
              live := true;
              let ms, outs = request "serve.rows" conns.(i) c.frames.(next.(i)) in
              rows_ms := ms :: !rows_ms;
              if outs <> [] then fail "client %d: rows frame %d not accepted" i next.(i);
              next.(i) <- next.(i) + 1;
              if query_due next.(i) (Array.length c.frames) then begin
                let ms, outs = request "serve.query" conns.(i) (enc (Proto.Query Proto.Stream_rules)) in
                query_ms := ms :: !query_ms;
                match outs with
                | [ Server.Send (_, Proto.Info _) ] -> ()
                | _ -> fail "client %d: stream query failed" i
              end
            end)
          clients;
        step ()
      done;
      Array.iteri
        (fun i c ->
          let ms, outs =
            request "serve.seal" conns.(i) (enc (Proto.Seal { rows = c.rows }))
          in
          seal_ms := ms :: !seal_ms;
          match outs with
          | [ Server.Send (_, Proto.Sealed { events; rules; violations }) ] ->
              if events <> c.expected_events then
                fail "client %d: sealed %d events, expected %d" i events c.expected_events;
              sealed.(i) <- Some (rules ^ "\n" ^ violations)
          | _ -> fail "client %d: seal failed" i)
        clients);
  let outputs = Array.to_list (Array.map (Option.value ~default:"") sealed) in
  if verify then
    Array.iteri
      (fun i c ->
        match sealed.(i) with
        | Some out when out <> batch_output c -> fail "client %d: sealed output differs from batch mining" i
        | _ -> ())
      clients;
  add "serve.errors" (float_of_int (List.length !problems));
  {
    o_events = Array.fold_left (fun a c -> a + c.expected_events) 0 clients;
    o_outputs = outputs;
    o_shared = List.hd outputs;
    o_attempted = !attempted;
    o_problems = !problems;
    o_samples = [ ("rows_ms", !rows_ms); ("query_ms", !query_ms); ("seal_ms", !seal_ms) ];
  }

(* {2 triage} *)

(* Per family and family seed: `lockdoc sanitize`, `lockdoc replay` (on
   [replay_families]), `lockdoc lint` and the mine pass, on traces
   simulated at set-up. A call that raises, or whose result fails its
   check, is one failed op. True positives that replay refutes are not
   a failed op: on some seeds replay refutes one ("budget exhausted"),
   a fixed property of the input that [replay.recall_post] reports. *)
let pass_triage ~dir timed =
  let cases = (unmarshal_from (dir // "triage.bin") : (string * int * Trace.t * Seeded.truth * Trace.t) list) in
  let problems = ref [] and attempted = ref 0 in
  let label op f k = Printf.sprintf "%s %s --seed %d" op f k in
  let call label f =
    incr attempted;
    match f () with
    | r -> Some r
    | exception e ->
        problems := (label ^ ": " ^ Printexc.to_string e) :: !problems;
        None
  in
  let results =
    timed (fun () ->
        List.map
          (fun (f, k, st, truth, wt) ->
            let s =
              call (label "sanitize" f k) (fun () ->
                  span "sanitize.analyse" (fun () ->
                      Sanitize.analyse ~jobs ~workload:f ~seed:k ~scale:1 ~bugs:true ~truth st))
            in
            let r =
              if not (List.mem f replay_families) then None
              else
                call (label "replay" f k) (fun () ->
                    span "replay.run" (fun () -> Replay.run ~jobs ~seed:k ~scale:1 ~bugs:true f))
            in
            let l =
              call (label "lint" f k) (fun () ->
                  span "lint.run" (fun () -> Lint.run ~jobs ~workload:f wt))
            in
            let m = call (label "mine" f k) (fun () -> mine wt) in
            (f, k, st, wt, s, r, l, m))
          cases)
  in
  let events = ref 0 and outputs = ref [] in
  let recall = ref 1. and pre_tp = ref 0 and post_tp = ref 0 and post_fp = ref 0 in
  List.iter
    (fun (f, k, st, wt, s, r, l, m) ->
      events := !events + Array.length st.Trace.events + (2 * Array.length wt.Trace.events);
      Option.iter
        (fun s ->
          let cv = s.Sanitize.s_crossval in
          let rc = Float.min cv.Crossval.races.Crossval.cv_recall cv.Crossval.irq.Crossval.cv_recall in
          recall := Float.min !recall rc;
          if rc < 1. then problems := Printf.sprintf "%s: recall %.2f" (label "sanitize" f k) rc :: !problems;
          outputs := Sanitize.to_json s :: !outputs)
        s;
      Option.iter
        (fun r ->
          events := !events + r.Replay.r_events;
          addi "replay.schedules" r.Replay.r_schedules;
          let pre = r.Replay.r_races_pre.Crossval.cv_tp + r.Replay.r_irq_pre.Crossval.cv_tp in
          let tp = r.Replay.r_races_post.Crossval.cv_tp + r.Replay.r_irq_post.Crossval.cv_tp in
          let fp = r.Replay.r_races_post.Crossval.cv_fp + r.Replay.r_irq_post.Crossval.cv_fp in
          pre_tp := !pre_tp + pre;
          post_tp := !post_tp + tp;
          post_fp := !post_fp + fp;
          if fp > 0 then
            problems := Printf.sprintf "%s: %d false positive(s) after triage" (label "replay" f k) fp :: !problems;
          outputs := Replay.to_json r :: !outputs)
        r;
      Option.iter (fun l -> outputs := Report.to_string (Lint.to_json l) :: !outputs) l;
      Option.iter
        (fun m ->
          record_mine m;
          let (_, _, _, _, out) = m in
          outputs := out :: !outputs)
        m)
    results;
  add "sanitize.recall" !recall;
  add "replay.precision_post"
    (if !post_tp + !post_fp = 0 then 1. else float_of_int !post_tp /. float_of_int (!post_tp + !post_fp));
  add "replay.recall_post" (if !pre_tp = 0 then 1. else float_of_int !post_tp /. float_of_int !pre_tp);
  {
    o_events = !events;
    o_outputs = List.rev !outputs;
    o_shared = "";
    o_attempted = !attempted;
    o_problems = !problems;
    o_samples = [];
  }

(* {2 The timed region and per-layer values} *)

(* Library accumulators read after a traced pass (recording is on only
   then): existing spans, counters, the pool worker histogram. *)
let library_values () =
  let snap = Obs.snapshot () in
  let span_s name = Option.fold ~none:0. ~some:(fun s -> s.Obs.sp_wall) (Obs.find_span snap name) in
  let counter name = float_of_int (Option.value ~default:0 (Obs.find_counter snap name)) in
  let hist_sum name =
    Option.fold ~none:0. ~some:(fun h -> h.Obs.hs_sum) (List.assoc_opt name snap.Obs.sn_histograms)
  in
  [
    ("sanitize.lockset_s", span_s "sanitize/lockset");
    ("sanitize.irq_s", span_s "sanitize/irq");
    ("replay.trace_s", span_s "replay/trace");
    ("replay.search_s", span_s "replay/search");
    ("online.freezes", counter "stream.online.freezes");
    ("online.accesses", counter "stream.online.accesses");
    ("online.flips", counter "stream.online.flips");
    ("pool.runs", counter "pool.runs");
    ("pool.tasks", counter "pool.tasks");
    ("pool.worker_s", hist_sum "pool.worker_ms" /. 1000.);
    ("pool.imbalance", Option.value ~default:0. (List.assoc_opt "pool.imbalance" snap.Obs.sn_gauges));
  ]

(* Per-layer values from the spans of a pass: self time per call as
   "<call>_s", allocation per layer as "<layer>.alloc_mb". *)
let span_values spans =
  let vs = ref [] in
  Hashtbl.iter
    (fun name s -> if name <> "pass" then vs := (name ^ "_s", s) :: !vs)
    (Tracer.self_times spans);
  Hashtbl.iter
    (fun name b -> vs := (Tracer.layer name ^ ".alloc_mb", b /. 1e6) :: !vs)
    (Tracer.allocs spans);
  !vs

let pass w ~dir ~verify ~traced =
  let wall = ref 0. and cpu = ref 0. and heap = ref 0 in
  let timed f =
    let r, w =
      time_region (fun () ->
          if traced then begin
            Obs.set_enabled true;
            Tracer.enabled := true
          end;
          let c0 = Sys.time () in
          let r = span "pass" f in
          cpu := Sys.time () -. c0;
          heap := (Gc.quick_stat ()).Gc.top_heap_words;
          Tracer.enabled := false;
          Obs.set_enabled false;
          r)
    in
    wall := w;
    r
  in
  let o =
    match w with
    | "mine-text" ->
        pass_mine timed (fun () -> span ~alloc:true "trace.read" (fun () -> Trace.read (dir // "trace.txt")))
    | "mine-packed" ->
        let path = dir // "trace.bin" in
        let o =
          pass_mine timed (fun () ->
              span ~alloc:true "codec.decode" (fun () -> Codec.decode_string (read_file path)))
        in
        add "codec.bytes_per_event" (float_of_int (Unix.stat path).Unix.st_size /. float_of_int (max 1 o.o_events));
        o
    | "serve-live" -> pass_serve ~dir ~verify timed
    | "triage" -> pass_triage ~dir timed
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  let spans = Tracer.spans () in
  let own = List.of_seq (Hashtbl.to_seq values) @ span_values spans in
  let get name = Option.value ~default:0. (List.assoc_opt name own) in
  let derived =
    [
      ( "import.events_per_s",
        if get "import.run_s" > 0. then get "import.events" /. get "import.run_s" else 0. );
      ("import.kept_ratio", get "import.kept" /. Float.max 1. (get "import.mem_accesses"));
    ]
  in
  let digest s = Digest.to_hex (Digest.string s) in
  {
    wall_s = !wall;
    cpu_s = !cpu;
    heap_words = !heap;
    events = o.o_events;
    hash = digest (String.concat "\x00" o.o_outputs);
    shared_hash = (if o.o_shared = "" then "" else digest o.o_shared);
    attempted = o.o_attempted;
    problems = List.rev o.o_problems;
    samples = o.o_samples;
    values = own @ derived @ (if traced then library_values () else []);
    spans;
  }
