module Clock = struct
  type t = { wall : float; cpu : float }

  (* CLOCK_MONOTONIC through bechamel's one-stub library, in
     nanoseconds; as a float it keeps ~microsecond precision over
     centuries of uptime. *)
  let wall () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
  let cpu () = Sys.time ()

  let now () = { wall = wall (); cpu = cpu () }

  let elapsed t0 =
    let t1 = now () in
    { wall = t1.wall -. t0.wall; cpu = t1.cpu -. t0.cpu }

  let timed f =
    let t0 = now () in
    let result = f () in
    (result, elapsed t0)
end

(* ---- Enabling ----------------------------------------------------- *)

let enabled_flag = Atomic.make false

let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

(* ---- Registry ----------------------------------------------------- *)

(* One mutex guards handle creation, span aggregation and snapshots —
   all cold paths. The hot paths (incr/add/observe) touch only atomics
   owned by the handle. *)
let mu = Mutex.create ()

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

type counter = { c_v : int Atomic.t }
type gauge = { g_v : float Atomic.t }

type histogram = {
  h_buckets : float array;  (* upper bounds, strictly increasing *)
  h_counts : int Atomic.t array;  (* length = buckets + 1 (overflow) *)
  h_sum : float Atomic.t;
}

type span_cell = {
  mutable sc_count : int;
  mutable sc_wall : float;
  mutable sc_cpu : float;
}

let counters : (string, counter) Hashtbl.t = Hashtbl.create 64
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16
let spans : (string, span_cell) Hashtbl.t = Hashtbl.create 32

let counter name =
  locked (fun () ->
      match Hashtbl.find_opt counters name with
      | Some c -> c
      | None ->
          let c = { c_v = Atomic.make 0 } in
          Hashtbl.replace counters name c;
          c)

let incr c = if Atomic.get enabled_flag then Atomic.incr c.c_v

let add c n = if Atomic.get enabled_flag && n <> 0 then ignore (Atomic.fetch_and_add c.c_v n)

let counter_value c = Atomic.get c.c_v

let gauge name =
  locked (fun () ->
      match Hashtbl.find_opt gauges name with
      | Some g -> g
      | None ->
          let g = { g_v = Atomic.make 0. } in
          Hashtbl.replace gauges name g;
          g)

let set_gauge g v = if Atomic.get enabled_flag then Atomic.set g.g_v v

let gauge_value g = Atomic.get g.g_v

let default_buckets =
  [| 0.05; 0.1; 0.25; 0.5; 1.; 2.5; 5.; 10.; 25.; 50.; 100.; 250.; 500.;
     1000.; 2500.; 5000.; 10000. |]

let histogram ?(buckets = default_buckets) name =
  locked (fun () ->
      match Hashtbl.find_opt histograms name with
      | Some h -> h
      | None ->
          Array.iteri
            (fun i b ->
              if i > 0 && buckets.(i - 1) >= b then
                invalid_arg
                  (Printf.sprintf
                     "Obs.histogram %s: buckets must be strictly increasing"
                     name))
            buckets;
          let h =
            {
              h_buckets = Array.copy buckets;
              h_counts =
                Array.init (Array.length buckets + 1) (fun _ -> Atomic.make 0);
              h_sum = Atomic.make 0.;
            }
          in
          Hashtbl.replace histograms name h;
          h)

(* Lock-free float accumulation: CAS on the boxed value. *)
let rec atomic_fadd a x =
  let cur = Atomic.get a in
  if not (Atomic.compare_and_set a cur (cur +. x)) then atomic_fadd a x

let bucket_index buckets v =
  let n = Array.length buckets in
  let rec go lo hi =
    (* First bucket whose bound is >= v, else the overflow slot. *)
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if buckets.(mid) >= v then go lo mid else go (mid + 1) hi
  in
  go 0 n

let observe h v =
  if Atomic.get enabled_flag then begin
    Atomic.incr h.h_counts.(bucket_index h.h_buckets v);
    atomic_fadd h.h_sum v
  end

let histogram_count h =
  Array.fold_left (fun acc c -> acc + Atomic.get c) 0 h.h_counts

let histogram_sum h = Atomic.get h.h_sum

(* ---- Spans -------------------------------------------------------- *)

let span_stack : string list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

module Span = struct
  let current_path () = !(Domain.DLS.get span_stack)

  let record name (d : Clock.t) =
    if Atomic.get enabled_flag then
      locked (fun () ->
          let cell =
            match Hashtbl.find_opt spans name with
            | Some c -> c
            | None ->
                let c = { sc_count = 0; sc_wall = 0.; sc_cpu = 0. } in
                Hashtbl.replace spans name c;
                c
          in
          cell.sc_count <- cell.sc_count + 1;
          cell.sc_wall <- cell.sc_wall +. d.Clock.wall;
          cell.sc_cpu <- cell.sc_cpu +. d.Clock.cpu)

  let push name =
    let stack = Domain.DLS.get span_stack in
    let path =
      match !stack with [] -> name | parent :: _ -> parent ^ "/" ^ name
    in
    stack := path :: !stack;
    path

  let pop () =
    let stack = Domain.DLS.get span_stack in
    match !stack with [] -> () | _ :: rest -> stack := rest

  let timed name f =
    let path = push name in
    let finally () = pop () in
    let result, d =
      Fun.protect ~finally (fun () -> Clock.timed f)
    in
    record path d;
    (result, d)

  let time name f =
    if not (Atomic.get enabled_flag) then f ()
    else fst (timed name f)
end

(* ---- Reset -------------------------------------------------------- *)

let reset () =
  locked (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c.c_v 0) counters;
      Hashtbl.iter (fun _ g -> Atomic.set g.g_v 0.) gauges;
      Hashtbl.iter
        (fun _ h ->
          Array.iter (fun c -> Atomic.set c 0) h.h_counts;
          Atomic.set h.h_sum 0.)
        histograms;
      Hashtbl.reset spans)

(* ---- Snapshots ---------------------------------------------------- *)

type hist_snapshot = {
  hs_buckets : float array;
  hs_counts : int array;
  hs_count : int;
  hs_sum : float;
}

type span_stat = { sp_count : int; sp_wall : float; sp_cpu : float }

type snapshot = {
  sn_counters : (string * int) list;
  sn_gauges : (string * float) list;
  sn_histograms : (string * hist_snapshot) list;
  sn_spans : (string * span_stat) list;
}

let sorted_bindings tbl f =
  Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let snapshot () =
  locked (fun () ->
      {
        sn_counters = sorted_bindings counters (fun c -> Atomic.get c.c_v);
        sn_gauges = sorted_bindings gauges (fun g -> Atomic.get g.g_v);
        sn_histograms =
          sorted_bindings histograms (fun h ->
              let counts = Array.map Atomic.get h.h_counts in
              {
                hs_buckets = Array.copy h.h_buckets;
                hs_counts = counts;
                hs_count = Array.fold_left ( + ) 0 counts;
                hs_sum = Atomic.get h.h_sum;
              });
        sn_spans =
          sorted_bindings spans (fun c ->
              { sp_count = c.sc_count; sp_wall = c.sc_wall; sp_cpu = c.sc_cpu });
      })

let snapshot_to_json s =
  Json.O
    [
      ("counters", Json.O (List.map (fun (k, v) -> (k, Json.I v)) s.sn_counters));
      ("gauges", Json.O (List.map (fun (k, v) -> (k, Json.F v)) s.sn_gauges));
      ( "histograms",
        Json.O
          (List.map
             (fun (k, h) ->
               ( k,
                 Json.O
                   [
                     ( "buckets",
                       Json.L
                         (Array.to_list (Array.map (fun b -> Json.F b) h.hs_buckets))
                     );
                     ( "counts",
                       Json.L
                         (Array.to_list (Array.map (fun c -> Json.I c) h.hs_counts))
                     );
                     ("count", Json.I h.hs_count);
                     ("sum", Json.F h.hs_sum);
                   ] ))
             s.sn_histograms) );
      ( "spans",
        Json.O
          (List.map
             (fun (k, sp) ->
               ( k,
                 Json.O
                   [
                     ("count", Json.I sp.sp_count);
                     ("wall_s", Json.F sp.sp_wall);
                     ("cpu_s", Json.F sp.sp_cpu);
                   ] ))
             s.sn_spans) );
    ]

let to_json_string () = Json.to_string (snapshot_to_json (snapshot ()))

let write path =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc ->
      Out_channel.output_string oc (to_json_string ());
      Out_channel.output_char oc '\n');
  Sys.rename tmp path

let write_on_exit path =
  let written = ref false in
  at_exit (fun () ->
      if not !written then begin
        written := true;
        try write path with Sys_error _ -> ()
      end)

let find_counter s name = List.assoc_opt name s.sn_counters
let find_span s name = List.assoc_opt name s.sn_spans
