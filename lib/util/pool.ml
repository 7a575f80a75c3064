module Obs = Lockdoc_obs.Obs

let default_jobs () = min 64 (max 1 (Domain.recommended_domain_count ()))

(* Observability: all recording is no-op unless metrics are enabled,
   and none of it influences scheduling or results — the differential
   harness (test_parallel) runs with metrics on to prove it. *)
let c_runs = Obs.counter "pool.runs"
let c_tasks = Obs.counter "pool.tasks"
let c_chunks = Obs.counter "pool.chunks"

let h_worker_tasks =
  Obs.histogram
    ~buckets:[| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512.; 1024.;
                4096.; 16384. |]
    "pool.worker_tasks"

let h_worker_ms = Obs.histogram "pool.worker_ms"
let g_imbalance = Obs.gauge "pool.imbalance"

(* One failure slot shared by all domains; the lowest failing index wins
   so the surfaced exception is the one the sequential map would have
   raised first. *)
type failure = { f_index : int; f_exn : exn; f_bt : Printexc.raw_backtrace }

let rec record failures idx exn bt =
  let cur = Atomic.get failures in
  let better = match cur with None -> true | Some f -> idx < f.f_index in
  if better then
    let next = Some { f_index = idx; f_exn = exn; f_bt = bt } in
    if not (Atomic.compare_and_set failures cur next) then
      record failures idx exn bt

let init ?jobs n f =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  if jobs <= 1 || n <= 1 then Array.init n f
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let failures = Atomic.make None in
    (* Small chunks keep the domains balanced when item costs are
       skewed (one family's pipeline can dwarf another's). *)
    let chunk = max 1 (n / (jobs * 8)) in
    let workers = min jobs n in
    (* Per-worker task tallies, each slot private to one worker until
       the joins below publish them. *)
    let done_by = Array.make workers 0 in
    let worker w =
      let t0 = if Obs.enabled () then Obs.Clock.wall () else 0. in
      let continue = ref true in
      while !continue do
        let start = Atomic.fetch_and_add next chunk in
        if start >= n then continue := false
        else begin
          Obs.incr c_chunks;
          for i = start to min (start + chunk) n - 1 do
            (match f i with
            | v -> results.(i) <- Some v
            | exception exn ->
                record failures i exn (Printexc.get_raw_backtrace ()));
            done_by.(w) <- done_by.(w) + 1
          done
        end
      done;
      if Obs.enabled () then begin
        Obs.observe h_worker_tasks (float_of_int done_by.(w));
        Obs.observe h_worker_ms ((Obs.Clock.wall () -. t0) *. 1000.)
      end
    in
    Obs.incr c_runs;
    Obs.add c_tasks n;
    let domains =
      Array.init (workers - 1) (fun i -> Domain.spawn (fun () -> worker (i + 1)))
    in
    worker 0;
    Array.iter Domain.join domains;
    if Obs.enabled () then begin
      (* Spread between the busiest and laziest worker, as a fraction
         of a perfectly even share: 0 = balanced, 1 = one worker did a
         full share more than another. *)
      let mx = Array.fold_left max 0 done_by
      and mn = Array.fold_left min max_int done_by in
      let share = float_of_int n /. float_of_int workers in
      if share > 0. then
        Obs.set_gauge g_imbalance (float_of_int (mx - mn) /. share)
    end;
    match Atomic.get failures with
    | Some f -> Printexc.raise_with_backtrace f.f_exn f.f_bt
    | None ->
        Array.map
          (function Some v -> v | None -> assert false (* all chunks ran *))
          results
  end

let map ?jobs f items =
  let arr = Array.of_list items in
  Array.to_list (init ?jobs (Array.length arr) (fun i -> f arr.(i)))

(* ---- Detached jobs ------------------------------------------------- *)

let c_jobs = Obs.counter "pool.jobs"

(* The result crosses domains through the atomic cell (set before the
   domain terminates), so [poll] never touches the domain handle; the
   handle is only consumed by the one permitted [await]. *)
type 'a job = {
  j_cell : ('a, exn) result option Atomic.t;
  j_domain : unit Domain.t;
  j_reaped : bool Atomic.t;
}

let spawn f =
  Obs.incr c_jobs;
  let cell = Atomic.make None in
  let domain =
    Domain.spawn (fun () ->
        let r = match f () with v -> Ok v | exception exn -> Error exn in
        Atomic.set cell (Some r))
  in
  { j_cell = cell; j_domain = domain; j_reaped = Atomic.make false }

let poll j = Atomic.get j.j_cell

let await j =
  if not (Atomic.compare_and_set j.j_reaped false true) then
    invalid_arg "Pool.await: job already awaited";
  Domain.join j.j_domain;
  match Atomic.get j.j_cell with
  | Some r -> r
  | None -> assert false (* the domain sets the cell before exiting *)
