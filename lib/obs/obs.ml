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

(* Everything below assumes one domain (obs.mli): plain refs and
   mutable fields, no atomics, no lock. *)
let enabled_flag = ref false

let set_enabled b = enabled_flag := b
let enabled () = !enabled_flag

(* ---- Registry ----------------------------------------------------- *)

type counter = { mutable c_v : int }
type gauge = { mutable g_v : float }

type histogram = {
  h_buckets : float array;  (* upper bounds, strictly increasing *)
  h_counts : int array;  (* length = buckets + 1 (overflow) *)
  mutable h_sum : float;
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

let find_or_add tbl name make =
  match Hashtbl.find_opt tbl name with
  | Some v -> v
  | None ->
      let v = make () in
      Hashtbl.replace tbl name v;
      v

let counter name = find_or_add counters name (fun () -> { c_v = 0 })

let incr c = if !enabled_flag then c.c_v <- c.c_v + 1

let add c n = if !enabled_flag then c.c_v <- c.c_v + n

let counter_value c = c.c_v

let gauge name = find_or_add gauges name (fun () -> { g_v = 0. })

let set_gauge g v = if !enabled_flag then g.g_v <- v

let gauge_value g = g.g_v

let default_buckets =
  [| 0.05; 0.1; 0.25; 0.5; 1.; 2.5; 5.; 10.; 25.; 50.; 100.; 250.; 500.;
     1000.; 2500.; 5000.; 10000. |]

let histogram ?(buckets = default_buckets) name =
  find_or_add histograms name (fun () ->
      Array.iteri
        (fun i b ->
          if i > 0 && buckets.(i - 1) >= b then
            invalid_arg
              (Printf.sprintf
                 "Obs.histogram %s: buckets must be strictly increasing" name))
        buckets;
      {
        h_buckets = Array.copy buckets;
        h_counts = Array.make (Array.length buckets + 1) 0;
        h_sum = 0.;
      })

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
  if !enabled_flag then begin
    let i = bucket_index h.h_buckets v in
    h.h_counts.(i) <- h.h_counts.(i) + 1;
    h.h_sum <- h.h_sum +. v
  end

let histogram_count h = Array.fold_left ( + ) 0 h.h_counts

let histogram_sum h = h.h_sum

(* ---- Spans -------------------------------------------------------- *)

let span_stack : string list ref = ref []

module Span = struct
  let current_path () = !span_stack

  let record name (d : Clock.t) =
    if !enabled_flag then begin
      let cell =
        find_or_add spans name (fun () ->
            { sc_count = 0; sc_wall = 0.; sc_cpu = 0. })
      in
      cell.sc_count <- cell.sc_count + 1;
      cell.sc_wall <- cell.sc_wall +. d.Clock.wall;
      cell.sc_cpu <- cell.sc_cpu +. d.Clock.cpu
    end

  let push name =
    let path =
      match !span_stack with [] -> name | parent :: _ -> parent ^ "/" ^ name
    in
    span_stack := path :: !span_stack;
    path

  let pop () =
    match !span_stack with [] -> () | _ :: rest -> span_stack := rest

  let timed name f =
    let path = push name in
    let finally () = pop () in
    let result, d =
      Fun.protect ~finally (fun () -> Clock.timed f)
    in
    record path d;
    (result, d)

  let time name f =
    if not !enabled_flag then f ()
    else fst (timed name f)
end

(* ---- Reset -------------------------------------------------------- *)

let reset () =
  Hashtbl.iter (fun _ c -> c.c_v <- 0) counters;
  Hashtbl.iter (fun _ g -> g.g_v <- 0.) gauges;
  Hashtbl.iter
    (fun _ h ->
      Array.fill h.h_counts 0 (Array.length h.h_counts) 0;
      h.h_sum <- 0.)
    histograms;
  Hashtbl.reset spans

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
  {
    sn_counters = sorted_bindings counters (fun c -> c.c_v);
    sn_gauges = sorted_bindings gauges (fun g -> g.g_v);
    sn_histograms =
      sorted_bindings histograms (fun h ->
          {
            hs_buckets = Array.copy h.h_buckets;
            hs_counts = Array.copy h.h_counts;
            hs_count = histogram_count h;
            hs_sum = h.h_sum;
          });
    sn_spans =
      sorted_bindings spans (fun c ->
          { sp_count = c.sc_count; sp_wall = c.sc_wall; sp_cpu = c.sc_cpu });
  }

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
