(* lockdoc_bench: one benchmark for the LockDoc pipeline.

     lockdoc_bench run [--workload W]... [--seed N] [--seconds S]
                       [--trace 0|1] [--smoke]
                       [--out FILE] [--trace-out FILE] [--benchmark FILE]
     lockdoc_bench compare PARENT.json... -- CHANGE.json... [--benchmark FILE]

   [run] times set-up (the parent spawns one child per set-up and waits
   for it), then runs timed passes, each in a fresh child process of
   this executable, round-robin across the chosen workloads until
   [--seconds] per workload have passed. It prints a table, writes the
   run JSON with [--out], and prints as its last line one JSON object:
   correct/attempted/failed plus the end-to-end metrics (untraced) or the
   per-layer metrics (traced) — with a "<workload>/" prefix on the names
   when more than one workload ran. See README.md. *)

module Json = Lockdoc_obs.Json
module Tablefmt = Lockdoc_util.Tablefmt
module W = Workloads

let now = Tracer.now

(* {1 Metrics} *)

let end_to_end =
  [ ("setup_s", "s"); ("pass_s", "s"); ("events_per_s", "events/s"); ("peak_heap_mb", "MB") ]

let per_layer =
  [
    ("ksim.simulate_s", "s"); ("ksim.events", "count");
    ("trace.read_s", "s"); ("trace.alloc_mb", "MB");
    ("codec.decode_s", "s"); ("codec.alloc_mb", "MB"); ("codec.bytes_per_event", "bytes");
    ("import.run_s", "s"); ("import.alloc_mb", "MB"); ("import.events_per_s", "events/s");
    ("import.kept_ratio", "ratio"); ("import.txns", "count");
    ("dataset.fold_s", "s"); ("dataset.alloc_mb", "MB"); ("dataset.observations", "count");
    ("derive.run_s", "s"); ("derive.groups", "count"); ("derive.hypotheses", "count");
    ("violation.find_s", "s"); ("violation.count", "count");
    ("report.json_s", "s"); ("report.bytes", "bytes");
    ("serve.rows_p50_ms", "ms"); ("serve.rows_p95_ms", "ms"); ("serve.step_s", "s");
    ("serve.query_p50_ms", "ms"); ("serve.query_p95_ms", "ms"); ("serve.seal_ms", "ms");
    ("serve.retry_after", "count"); ("serve.errors", "count");
    ("online.freezes", "count"); ("online.accesses", "count"); ("online.flips", "count");
    ("sanitize.analyse_s", "s"); ("sanitize.lockset_s", "s"); ("sanitize.irq_s", "s");
    ("sanitize.recall", "ratio");
    ("replay.run_s", "s"); ("replay.trace_s", "s"); ("replay.search_s", "s");
    ("replay.schedules", "count"); ("replay.precision_post", "ratio"); ("replay.recall_post", "ratio");
    ("lint.run_s", "s");
    ("pool.runs", "count"); ("pool.tasks", "count"); ("pool.worker_s", "s");
    ("pool.imbalance", "ratio");
    ("process.cpu_s", "s"); ("process.wall_s", "s"); ("obs.overhead_pct", "%");
  ]

(* Every percentile the benchmark reports: the [p] quantile by Python's
   statistics.quantiles exclusive method (rank p(n + 1), interpolated),
   so quartiles match what statistics.quantiles(xs, n=4) gives. *)
let quantile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "quantile: no samples"
  else if n = 1 then a.(0)
  else
    let rank = p *. float_of_int (n + 1) in
    let j = max 1 (min (n - 1) (int_of_float rank)) in
    a.(j - 1) +. ((a.(j) -. a.(j - 1)) *. (rank -. float_of_int j))

let quartiles xs = (quantile 0.25 xs, quantile 0.5 xs, quantile 0.75 xs)
let median xs = quantile 0.5 xs

(* {1 Child processes} *)

(* A pass that runs longer than this is killed and counted as a failed
   op; it keeps a whole run inside three minutes. *)
let watchdog_s = 120.

let rec waitpid flags pid =
  try Unix.waitpid flags pid with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid flags pid

(* Run this executable with [args]; its stdout goes to our stderr so our
   stdout stays the table and the result line. *)
let spawn args =
  let exe = Sys.executable_name in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin Unix.stderr Unix.stderr in
  let killed = ref false in
  let previous =
    Sys.signal Sys.sigalrm
      (Sys.Signal_handle
         (fun _ ->
           killed := true;
           Unix.kill pid Sys.sigkill))
  in
  ignore (Unix.alarm (int_of_float watchdog_s));
  let _, status = waitpid [] pid in
  ignore (Unix.alarm 0);
  Sys.set_signal Sys.sigalrm previous;
  match status with
  | _ when !killed -> Error "killed by the watchdog"
  | Unix.WEXITED 0 -> Ok ()
  | Unix.WEXITED n -> Error (Printf.sprintf "exited with code %d" n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> Error (Printf.sprintf "stopped by signal %d" n)

let child = function
  | [ kind; w; seed; dir; smoke; verify; traced; out ] -> (
      let smoke = smoke = "1" and seed = int_of_string seed in
      match kind with
      | "setup" -> W.marshal_to out (W.setup w ~seed ~smoke ~dir)
      | "pass" -> W.marshal_to out (W.pass w ~dir ~verify:(verify = "1") ~traced:(traced = "1"))
      | k -> failwith ("unknown child kind " ^ k))
  | _ -> failwith "bad child arguments"

(* {1 Machine speed} *)

(* The benchmark runs on shared machines whose speed drifts by 10–30%
   over minutes: neighbours contend for caches and memory bandwidth, so
   allocation- and memory-bound code such as this pipeline slows down
   with them, and raw wall times of runs taken minutes apart spread
   wider than any useful bound. Right after each child exits, the
   parent therefore times [reference_task], and the benchmark reports
   the child's timed region at reference speed: the speed at which the
   task takes [ref_s] seconds. The task hashes, allocates and sorts as
   the pipeline does, but calls the standard library only and runs in
   the parent, whose heap the program never touches, so no change to
   the program moves it. Raw wall times stay in [process.wall_s]. *)
let ref_s = 0.035

let reference_task () =
  let t0 = now () in
  let h = Hashtbl.create 16 in
  for i = 0 to 30_000 do
    Hashtbl.replace h ((i * 7919) land 0xFFFFF) (i, string_of_int i)
  done;
  let l = Hashtbl.fold (fun k (i, s) acc -> (k + i + String.length s) :: acc) h [] in
  let a = Array.init 30_000 (fun i -> float_of_int ((i * 104729) mod 100_003)) in
  Array.sort compare a;
  ignore (Sys.opaque_identity (List.sort compare l, a));
  now () -. t0

(* [wall] seconds measured right before [reference_task] took [task]
   seconds, at reference speed. *)
let at_ref_speed wall task = wall *. ref_s /. task

(* {1 run} *)

type workload = {
  name : string;
  dir : string;
  mutable setups : (W.setup_result * float) list;  (** result, reference task seconds *)
  mutable passes : (bool * W.pass_result * float) list;
      (** traced?, result, reference task seconds; newest first *)
  mutable crashes : string list;
}

let flag b = if b then "1" else "0"

(* Set-up repeats at least [min_setups] times and for at least
   [setup_share] of the workload's seconds, so short set-ups get more
   repeats behind their median. *)
let min_setups = 5
let setup_share = 0.1

let run_setups ~seed ~smoke ~seconds wl =
  let t0 = now () in
  let i = ref 0 in
  while
    if smoke then !i < 1 else !i < min_setups || now () -. t0 < setup_share *. float_of_int seconds
  do
    incr i;
    let out = Filename.concat wl.dir (Printf.sprintf "setup%d.result" !i) in
    match spawn [ "_child"; "setup"; wl.name; string_of_int seed; wl.dir; flag smoke; "0"; "0"; out ] with
    | Ok () ->
        let task = reference_task () in
        wl.setups <- (W.unmarshal_from out, task) :: wl.setups
    | Error e ->
        Printf.eprintf "lockdoc_bench: %s set-up %s\n%!" wl.name e;
        exit 2
  done

let run_pass ~seed ~smoke ~round ~traced wl =
  let out = Filename.concat wl.dir (Printf.sprintf "pass%d.result" round) in
  let args =
    [ "_child"; "pass"; wl.name; string_of_int seed; wl.dir; flag smoke; flag (round = 0); flag traced; out ]
  in
  match spawn args with
  | Ok () ->
      let task = reference_task () in
      wl.passes <- (traced, W.unmarshal_from out, task) :: wl.passes
  | Error e -> wl.crashes <- Printf.sprintf "pass %d %s" round e :: wl.crashes

type summary = {
  s_name : string;
  s_attempted : int;
  s_failed : int;
  s_problems : string list;
  s_hash : string;
  s_shared_hash : string;
  s_metrics : (string * string * (float * float * float) * int) list;
      (** name, unit, (q1, median, q3), samples *)
  s_layers : (string * string * float) list;  (** empty for untraced runs *)
  s_coverage : float;  (** median share of a traced pass its layer spans cover *)
  s_spans : Tracer.span array list;
}

let summarize ~traced wl =
  let with_task traced =
    List.rev (List.filter_map (fun (t, p, task) -> if t = traced then Some (p, task) else None) wl.passes)
  in
  let untraced_t = with_task false and traced_t = with_task true in
  let untraced = List.map fst untraced_t and traced_ps = List.map fst traced_t in
  let passes = List.rev_map (fun (_, p, _) -> p) wl.passes in
  if untraced = [] then begin
    Printf.eprintf "lockdoc_bench: %s: no pass completed (%s)\n%!" wl.name
      (String.concat "; " (List.rev wl.crashes));
    exit 2
  end;
  let first = List.hd untraced in
  let setups_t = List.rev wl.setups in
  let setups = List.map fst setups_t in
  let input_hash = (List.hd setups).W.s_input_hash in
  let problems =
    List.rev wl.crashes
    @ List.concat_map (fun p -> p.W.problems) passes
    @ List.filter_map
        (fun p -> if p.W.hash <> first.W.hash then Some "output differs from the first pass" else None)
        passes
    @ List.filter_map
        (fun s -> if s.W.s_input_hash <> input_hash then Some "set-up inputs differ between repeats" else None)
        setups
  in
  (* One problem per failed op. *)
  let failed = List.length problems in
  let attempted =
    List.length wl.crashes + List.fold_left (fun a p -> a + p.W.attempted) 0 passes + List.length setups
  in
  let pass_s (p, task) = at_ref_speed p.W.wall_s task in
  let e2e_samples = function
    | "setup_s" -> List.map (fun (s, task) -> at_ref_speed s.W.s_wall_s task) setups_t
    | "pass_s" -> List.map pass_s untraced_t
    | "events_per_s" -> List.map (fun pt -> float_of_int (fst pt).W.events /. pass_s pt) untraced_t
    | "peak_heap_mb" -> List.map (fun p -> float_of_int (p.W.heap_words * 8) /. 1e6) untraced
    | n -> invalid_arg n
  in
  let metrics =
    List.map (fun (n, u) -> let xs = e2e_samples n in (n, u, quartiles xs, List.length xs)) end_to_end
  in
  let samples key =
    List.concat_map (fun p -> Option.value ~default:[] (List.assoc_opt key p.W.samples)) untraced
  in
  let pct p key = match samples key with [] -> 0. | xs -> quantile p xs in
  let traced_median name =
    match traced_ps with
    | [] -> 0.
    | ps -> median (List.map (fun p -> Option.value ~default:0. (List.assoc_opt name p.W.values)) ps)
  in
  let pass_median = function [] -> Float.nan | ps -> median (List.map pass_s ps) in
  let layer_value = function
    | "ksim.simulate_s" -> median (List.map (fun s -> s.W.s_simulate_s) setups)
    | "ksim.events" -> float_of_int (List.hd setups).W.s_events
    | "serve.rows_p50_ms" -> pct 0.50 "rows_ms"
    | "serve.rows_p95_ms" -> pct 0.95 "rows_ms"
    | "serve.query_p50_ms" -> pct 0.50 "query_ms"
    | "serve.query_p95_ms" -> pct 0.95 "query_ms"
    | "serve.seal_ms" -> (match samples "seal_ms" with [] -> 0. | xs -> median xs)
    | "process.cpu_s" -> median (List.map (fun p -> p.W.cpu_s) untraced)
    | "process.wall_s" -> median (List.map (fun p -> p.W.wall_s) untraced)
    | "obs.overhead_pct" -> 100. *. ((pass_median traced_t /. pass_median untraced_t) -. 1.)
    | name -> traced_median name
  in
  let coverage spans =
    let self = Tracer.self_times spans in
    let root = spans.(0).Tracer.stop -. spans.(0).Tracer.start in
    Hashtbl.fold (fun n s a -> if n = "pass" then a else a +. s) self 0. /. root
  in
  {
    s_name = wl.name;
    s_attempted = attempted;
    s_failed = failed;
    s_problems = problems;
    s_hash = first.W.hash;
    s_shared_hash = first.W.shared_hash;
    s_metrics = metrics;
    s_layers =
      (if traced then List.map (fun (n, u) -> (n, u, layer_value n)) per_layer else []);
    s_coverage = (match traced_ps with [] -> 0. | ps -> median (List.map (fun p -> coverage p.W.spans) ps));
    s_spans = List.map (fun p -> p.W.spans) traced_ps;
  }

let fmt v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.4g" v

let print_summary s =
  Printf.printf "== %s: %d op(s), %d failed (failed_ratio %g)\n" s.s_name s.s_attempted s.s_failed
    (float_of_int s.s_failed /. float_of_int s.s_attempted);
  List.iter (fun p -> Printf.printf "   FAILED: %s\n" p) s.s_problems;
  let t = Tablefmt.create ~header:[ "metric"; "unit"; "median"; "q1"; "q3"; "n" ] in
  Tablefmt.set_align t Tablefmt.[ Left; Left; Right; Right; Right; Right ];
  List.iter
    (fun (n, u, (q1, m, q3), k) -> Tablefmt.add_row t [ n; u; fmt m; fmt q1; fmt q3; string_of_int k ])
    s.s_metrics;
  Tablefmt.print t;
  if s.s_layers <> [] then begin
    let t = Tablefmt.create ~header:[ "layer metric"; "unit"; "value" ] in
    Tablefmt.set_align t Tablefmt.[ Left; Left; Right ];
    List.iter (fun (n, u, v) -> Tablefmt.add_row t [ n; u; fmt v ]) s.s_layers;
    Tablefmt.print t;
    Printf.printf "   layer spans cover %.1f%% of a traced pass\n" (100. *. s.s_coverage)
  end

let finite v = if Float.is_finite v then v else 0.

let summary_json s =
  Json.O
    [
      ("correct", Json.B (s.s_failed = 0));
      ("attempted", Json.I s.s_attempted);
      ("failed", Json.I s.s_failed);
      ("failed_ratio", Json.F (float_of_int s.s_failed /. float_of_int s.s_attempted));
      ("problems", Json.L (List.map (fun p -> Json.S p) s.s_problems));
      ("hash", Json.S s.s_hash);
      ("shared_hash", Json.S s.s_shared_hash);
      ( "metrics",
        Json.O
          (List.map
             (fun (n, u, (q1, m, q3), k) ->
               ( n,
                 Json.O
                   [
                     ("value", Json.F (finite m)); ("unit", Json.S u);
                     ("q1", Json.F (finite q1)); ("q3", Json.F (finite q3)); ("n", Json.I k);
                   ] ))
             s.s_metrics) );
      ( "layers",
        Json.O (List.map (fun (n, u, v) -> (n, Json.O [ ("value", Json.F (finite v)); ("unit", Json.S u) ])) s.s_layers) );
      ("layer_coverage", Json.F (finite s.s_coverage));
      ("spans", Json.L (List.map Tracer.to_json s.s_spans));
    ]

let git_rev () =
  try
    let r, w = Unix.pipe ~cloexec:true () in
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
    let pid = Unix.create_process "git" [| "git"; "rev-parse"; "--short"; "HEAD" |] Unix.stdin w null in
    Unix.close w;
    Unix.close null;
    let ic = Unix.in_channel_of_descr r in
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    match waitpid [] pid with _, Unix.WEXITED 0 when line <> "" -> line | _ -> "unknown"
  with Unix.Unix_error _ -> "unknown"

let read_json path =
  match Json.of_string (W.read_file path) with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let field k j = match Json.member k j with Some v -> v | None -> Json.Null

let names_in key bm =
  match field key bm with
  | Json.L l -> List.filter_map (fun m -> match field "name" m with Json.S s -> Some s | _ -> None) l
  | _ -> []

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* Smoke-only checks: every metric BENCHMARK.json names is in the
   output, and the text, packed and serve paths agree on the shared
   trace. Returns the problems found. *)
let smoke_checks ~benchmark summaries =
  let bm = read_json benchmark in
  let missing =
    List.concat_map
      (fun s ->
        let have = List.map (fun (n, _, _, _) -> n) s.s_metrics @ List.map (fun (n, _, _) -> n) s.s_layers in
        List.filter_map
          (fun n -> if List.mem n have then None else Some (Printf.sprintf "%s: metric %s missing" s.s_name n))
          (names_in "end_to_end" bm @ names_in "per_layer" bm))
      summaries
  in
  let shared =
    List.filter_map
      (fun w -> List.find_opt (fun s -> s.s_name = w) summaries |> Option.map (fun s -> (w, s.s_shared_hash)))
      [ "mine-text"; "mine-packed"; "serve-live" ]
  in
  let disagree =
    match shared with
    | (w0, h0) :: rest ->
        List.filter_map
          (fun (w, h) ->
            if h = h0 then None else Some (Printf.sprintf "%s output differs from %s on the shared trace" w w0))
          rest
    | [] -> []
  in
  missing @ disagree

(* A fresh directory for this run's inputs and child results, in the
   working directory; a name left by a killed run is skipped. *)
let make_root () =
  let rec go i =
    let dir = Printf.sprintf ".lockbench-%d-%d" (Unix.getpid ()) i in
    match Sys.mkdir dir 0o755 with
    | () -> dir
    | exception Sys_error _ when Sys.file_exists dir -> go (i + 1)
  in
  go 0

let run ~workloads ~seed ~seconds ~traced ~smoke ~out ~trace_out ~benchmark =
  let t_start = now () in
  let root = make_root () in
  at_exit (fun () -> if Sys.file_exists root then rm_rf root);
  let traced = traced || smoke in
  let wls =
    List.map
      (fun name ->
        let dir = Filename.concat root name in
        Sys.mkdir dir 0o755;
        { name; dir; setups = []; passes = []; crashes = [] })
      workloads
  in
  List.iter (run_setups ~seed ~smoke ~seconds) wls;
  (* Passes interleave round-robin so drift on a shared machine hits
     every workload alike; odd rounds are traced in a traced run, so
     traced and untraced passes alternate too. A new round starts only
     if a round of median length still ends inside the run's seconds,
     set-up included, so a run lasts [seconds] per workload. *)
  let deadline = t_start +. float_of_int (seconds * List.length wls) in
  let round = ref 0 and lengths = ref [] in
  while
    if smoke then !round < 2 else !round < 2 || now () +. median !lengths < deadline
  do
    let t0 = now () in
    List.iter (run_pass ~seed ~smoke ~round:!round ~traced:(traced && !round mod 2 = 1)) wls;
    lengths := (now () -. t0) :: !lengths;
    incr round
  done;
  let summaries = List.map (summarize ~traced) wls in
  List.iter print_summary summaries;
  let smoke_problems = if smoke then smoke_checks ~benchmark summaries else [] in
  List.iter (fun p -> Printf.printf "SMOKE FAILED: %s\n" p) smoke_problems;
  Option.iter
    (fun path ->
      W.write_file path
        (Json.to_string
           (Json.O
              [
                ("rev", Json.S (git_rev ()));
                ("seed", Json.I seed);
                ("seconds", Json.I seconds);
                ("traced", Json.B traced);
                ("smoke", Json.B smoke);
                ("nproc", Json.I (Domain.recommended_domain_count ()));
                ("workloads", Json.O (List.map (fun s -> (s.s_name, summary_json s)) summaries));
              ])
        ^ "\n"))
    out;
  Option.iter
    (fun path ->
      W.write_file path
        (Json.to_string
           (Tracer.to_chrome
              (List.concat_map
                 (fun s -> List.mapi (fun i sp -> (Printf.sprintf "%s pass %d" s.s_name i, sp)) s.s_spans)
                 summaries))))
    trace_out;
  let prefix s = if List.length summaries = 1 then "" else s.s_name ^ "/" in
  let metrics =
    List.concat_map
      (fun s ->
        if traced then
          List.map (fun (n, u, v) -> (prefix s ^ n, Json.O [ ("value", Json.F (finite v)); ("unit", Json.S u) ])) s.s_layers
        else
          List.map
            (fun (n, u, (_, m, _), _) -> (prefix s ^ n, Json.O [ ("value", Json.F (finite m)); ("unit", Json.S u) ]))
            s.s_metrics)
      summaries
  in
  let failed = List.fold_left (fun a s -> a + s.s_failed) 0 summaries in
  print_endline
    (Json.to_string
       (Json.O
          [
            ("correct", Json.B (failed = 0 && smoke_problems = []));
            ("attempted", Json.I (List.fold_left (fun a s -> a + s.s_attempted) 0 summaries));
            ("failed", Json.I failed);
            ("metrics", Json.O metrics);
          ]));
  if smoke && (failed > 0 || smoke_problems <> []) then exit 1

(* {1 compare} *)

let compare_runs ~benchmark parents changes =
  let bm = read_json benchmark in
  let metrics =
    match field "end_to_end" bm with
    | Json.L l ->
        List.map
          (fun m ->
            let num k = match field k m with Json.F f -> f | Json.I i -> float_of_int i | _ -> 0. in
            let str k = match field k m with Json.S s -> s | _ -> "" in
            (str "name", str "better" = "higher", num "bound"))
          l
    | _ -> failwith (benchmark ^ ": no end_to_end metrics")
  in
  (* A file holds one run (the --out JSON) or a list of them under "runs"
     (results/baseline.json). *)
  let load =
    List.concat_map (fun f ->
        let j = read_json f in
        match field "runs" j with Json.L runs -> runs | _ -> [ j ])
  in
  let ps = load parents and cs = load changes in
  let workloads =
    List.fold_left
      (fun acc r ->
        match field "workloads" r with
        | Json.O l -> acc @ List.filter (fun w -> not (List.mem w acc)) (List.map fst l)
        | _ -> acc)
      [] ps
  in
  let at w k r = field k (field w (field "workloads" r)) in
  let seed r = match field "seed" r with Json.I s -> s | _ -> min_int in
  (* (seed, value) of every run that measured [m] on [w]. *)
  let values w m runs =
    List.filter_map
      (fun r ->
        match field "value" (field m (at w "metrics" r)) with
        | Json.F f -> Some (seed r, f)
        | Json.I i -> Some (seed r, float_of_int i)
        | _ -> None)
      runs
  in
  (* Inputs depend on the seed, so runs pair only within a seed: the
     i-th parent run at seed s with the i-th change run at seed s. *)
  let pairs p c =
    List.concat_map
      (fun s ->
        let at_seed xs = List.filter_map (fun (s', v) -> if s' = s then Some v else None) xs in
        let ps = at_seed p and cs = at_seed c in
        let n = min (List.length ps) (List.length cs) in
        List.combine (List.filteri (fun i _ -> i < n) cs) (List.filteri (fun i _ -> i < n) ps))
      (List.sort_uniq compare (List.map fst p))
  in
  let t =
    Tablefmt.create
      ~header:[ "workload"; "metric"; "parent median [q1, q3]"; "change median [q1, q3]"; "wins"; "verdict" ]
  in
  let regressed = ref false in
  let hash_notes = ref [] in
  List.iter
    (fun w ->
      List.iter
        (fun (m, higher, bound) ->
          match (values w m ps, values w m cs) with
          | [], _ | _, [] -> ()
          | p, c ->
              let paired = pairs p c in
              let p = List.map snd p and c = List.map snd c in
              let pq1, pm, pq3 = quartiles p and cq1, cm, cq3 = quartiles c in
              let better a b = if higher then a > b else a < b in
              let wins = List.length (List.filter (fun (cv, pv) -> better cv pv) paired) in
              let npairs = List.length paired in
              let win_frac = float_of_int wins /. float_of_int (max 1 npairs) in
              let worse = (if higher then pm -. cm else cm -. pm) /. pm in
              let all_better = List.for_all (fun cv -> List.for_all (fun pv -> better cv pv) p) c in
              let verdict =
                if win_frac >= 0.9 && worse < 0. && Float.abs (cm -. pm) > pq3 -. pq1 then "improved"
                else if (pq3 -. pq1) /. pm > bound && not all_better then "unresolved"
                else if worse > bound then (regressed := true; "REGRESSED")
                else "no worse"
              in
              let cell m q1 q3 = Printf.sprintf "%s [%s, %s]" (fmt m) (fmt q1) (fmt q3) in
              Tablefmt.add_row t
                [ w; m; cell pm pq1 pq3; cell cm cq1 cq3; Printf.sprintf "%d/%d" wins npairs; verdict ])
        metrics;
      let hashes runs =
        List.filter_map (fun r -> match at w "hash" r with Json.S h -> Some (seed r, h) | _ -> None) runs
      in
      let hc = hashes cs in
      List.iter
        (fun (s, h) ->
          match List.assoc_opt s hc with
          | Some h' when h' <> h ->
              hash_notes := Printf.sprintf "%s seed %d: output hash changed" w s :: !hash_notes
          | _ -> ())
        (List.sort_uniq compare (hashes ps)))
    workloads;
  Tablefmt.print t;
  List.iter print_endline (List.rev !hash_notes);
  if !regressed then exit 1

(* {1 Command line} *)

(* BENCHMARK.json's run_seconds. *)
let default_seconds = 30

let usage =
  "usage: lockdoc_bench run [--workload W]... [--seed N] [--seconds S] [--trace 0|1]\n\
  \                         [--smoke] [--out FILE] [--trace-out FILE] [--benchmark FILE]\n\
  \       lockdoc_bench compare PARENT.json... -- CHANGE.json... [--benchmark FILE]\n\
   workloads: mine-text, mine-packed, serve-live, triage (default: all)"

let die msg =
  prerr_endline ("lockdoc_bench: " ^ msg);
  prerr_endline usage;
  exit 2

let int_arg k v = match int_of_string_opt v with Some n -> n | None -> die (k ^ " needs an integer")

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "_child" :: args -> child args
  | "run" :: args ->
      let workloads = ref [] and seed = ref 7 and seconds = ref default_seconds and traced = ref false in
      let smoke = ref false and out = ref None and trace_out = ref None in
      let benchmark = ref "BENCHMARK.json" in
      let rec parse = function
        | "--workload" :: w :: rest ->
            if not (List.mem w W.names) then die ("unknown workload " ^ w);
            workloads := !workloads @ [ w ];
            parse rest
        | "--seed" :: n :: rest -> seed := int_arg "--seed" n; parse rest
        | "--seconds" :: n :: rest ->
            seconds := int_arg "--seconds" n;
            if !seconds < 1 then die "--seconds must be positive";
            parse rest
        | "--trace" :: v :: rest -> traced := int_arg "--trace" v <> 0; parse rest
        | "--smoke" :: rest -> smoke := true; parse rest
        | "--out" :: f :: rest -> out := Some f; parse rest
        | "--trace-out" :: f :: rest -> trace_out := Some f; parse rest
        | "--benchmark" :: f :: rest -> benchmark := f; parse rest
        | [] -> ()
        | a :: _ -> die ("unexpected argument " ^ a)
      in
      parse args;
      run
        ~workloads:(if !workloads = [] then W.names else !workloads)
        ~seed:!seed ~seconds:!seconds ~traced:!traced ~smoke:!smoke ~out:!out ~trace_out:!trace_out
        ~benchmark:!benchmark
  | "compare" :: args ->
      let benchmark = ref "BENCHMARK.json" in
      let rec split acc = function
        | "--benchmark" :: f :: rest -> benchmark := f; split acc rest
        | "--" :: rest -> (List.rev acc, rest)
        | f :: rest -> split (f :: acc) rest
        | [] -> die "compare needs PARENT.json... -- CHANGE.json..."
      in
      let parents, rest = split [] args in
      let changes =
        let rec strip = function
          | "--benchmark" :: f :: rest -> benchmark := f; strip rest
          | f :: rest -> f :: strip rest
          | [] -> []
        in
        strip rest
      in
      if parents = [] || changes = [] then die "compare needs runs on both sides";
      compare_runs ~benchmark:!benchmark parents changes
  | _ -> die "expected run or compare"
