(* Bench-side span recorder for traced passes.

   Every public library call a pass makes is wrapped in [span]. With
   tracing off (the default, and every untraced pass) [span] runs the
   call and records nothing, so untraced timings carry no recorder cost.
   With tracing on, each span keeps its name, start and end on the
   monotonic clock, the span that encloses it, and — for calls that run
   on one domain — the bytes allocated on the calling domain. Spans stay
   in memory until the pass ends. *)

module Json = Lockdoc_obs.Json

let now = Lockdoc_serve.Mono.now

type span = {
  name : string;  (** "<layer>.<call>", e.g. "import.run" *)
  start : float;
  stop : float;
  parent : int;  (** index of the enclosing span, -1 at top level *)
  alloc : float option;  (** bytes allocated on the calling domain *)
}

let enabled = ref false
let recorded : (int * span) list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []

let span ?(alloc = false) name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let a0 = Gc.allocated_bytes () in
    let start = now () in
    let finish () =
      let stop = now () in
      let alloc = if alloc then Some (Gc.allocated_bytes () -. a0) else None in
      stack := List.tl !stack;
      recorded := (id, { name; start; stop; parent; alloc }) :: !recorded
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

(* Spans in opening order, so [parent] indexes the array. *)
let spans () =
  let a = Array.make !next_id { name = ""; start = 0.; stop = 0.; parent = -1; alloc = None } in
  List.iter (fun (id, s) -> a.(id) <- s) !recorded;
  a

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Self time per span name: a span's length minus the part of it its
   direct children cover (children never overlap: calls are nested). *)
let self_times spans =
  let self = Array.map (fun s -> s.stop -. s.start) spans in
  Array.iter
    (fun s -> if s.parent >= 0 then self.(s.parent) <- self.(s.parent) -. (s.stop -. s.start))
    spans;
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      let prev = Option.value ~default:0. (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (prev +. self.(i)))
    spans;
  tbl

(* Summed allocation per span name, over the spans that measured it. *)
let allocs spans =
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun s ->
      match s.alloc with
      | Some b ->
          let prev = Option.value ~default:0. (Hashtbl.find_opt tbl s.name) in
          Hashtbl.replace tbl s.name (prev +. b)
      | None -> ())
    spans;
  tbl

(* Seconds from the pass start. *)
let to_json spans =
  let t0 = if Array.length spans = 0 then 0. else spans.(0).start in
  Json.L
    (Array.to_list
       (Array.map
          (fun s ->
            Json.O
              [
                ("name", Json.S s.name);
                ("start", Json.F (s.start -. t0));
                ("end", Json.F (s.stop -. t0));
                ("parent", Json.I s.parent);
              ])
          spans))

(* Chrome Trace Event JSON: one process per (workload, pass), one track
   (thread) per layer, timestamps in microseconds from the pass start.
   Opens in Perfetto or chrome://tracing. *)
let to_chrome passes =
  let tracks = Hashtbl.create 16 in
  let tid name =
    let l = layer name in
    match Hashtbl.find_opt tracks l with
    | Some t -> t
    | None ->
        let t = Hashtbl.length tracks + 1 in
        Hashtbl.add tracks l t;
        t
  in
  let events =
    List.concat
      (List.mapi
         (fun pid (label, spans) ->
           let t0 = if Array.length spans = 0 then 0. else spans.(0).start in
           let meta =
             Json.O
               [
                 ("name", Json.S "process_name");
                 ("ph", Json.S "M");
                 ("pid", Json.I pid);
                 ("args", Json.O [ ("name", Json.S label) ]);
               ]
           in
           meta
           :: Array.to_list
                (Array.map
                   (fun s ->
                     Json.O
                       [
                         ("name", Json.S s.name);
                         ("cat", Json.S (layer s.name));
                         ("ph", Json.S "X");
                         ("pid", Json.I pid);
                         ("tid", Json.I (tid s.name));
                         ("ts", Json.F ((s.start -. t0) *. 1e6));
                         ("dur", Json.F ((s.stop -. s.start) *. 1e6));
                       ])
                   spans))
         passes)
  in
  let names =
    Hashtbl.fold
      (fun l t acc ->
        List.init (List.length passes) (fun pid ->
            Json.O
              [
                ("name", Json.S "thread_name");
                ("ph", Json.S "M");
                ("pid", Json.I pid);
                ("tid", Json.I t);
                ("args", Json.O [ ("name", Json.S l) ]);
              ])
        @ acc)
      tracks []
  in
  Json.O [ ("traceEvents", Json.L (events @ names)) ]
