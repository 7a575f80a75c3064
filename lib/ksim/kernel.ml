module Event = Lockdoc_trace.Event
module Srcloc = Lockdoc_trace.Srcloc
module Trace = Lockdoc_trace.Trace
module Prng = Lockdoc_util.Prng

(* {2 Structured scheduler halts}

   A run that cannot finish halts with a machine-readable snapshot of
   every control flow instead of a pre-rendered string: deadlock (no
   flow runnable, at least one blocked) and budget exhaustion (the
   livelock guard) are distinct conditions, and budget diagnostics must
   say which flows were still runnable when the axe fell. *)

type flow_state = Fl_runnable | Fl_blocked of string | Fl_finished

type flow = { fl_pid : int; fl_name : string; fl_state : flow_state }

type halt = {
  h_deadlock : bool;  (** [true]: every live flow blocked; [false]: budget *)
  h_steps : int;  (** scheduler iterations consumed *)
  h_budget : int;  (** the configured [max_steps] *)
  h_flows : flow list;  (** every spawned flow, in pid order *)
}

exception Deadlock of halt
exception Stuck of halt
exception Sleep_in_atomic of string

let describe_flow f =
  Printf.sprintf "%s(%d): %s" f.fl_name f.fl_pid
    (match f.fl_state with
    | Fl_runnable -> "runnable"
    | Fl_blocked reason -> "blocked on " ^ reason
    | Fl_finished -> "finished")

let describe_halt h =
  let live = List.filter (fun f -> f.fl_state <> Fl_finished) h.h_flows in
  Printf.sprintf "%s after %d step(s) (budget %d): %s"
    (if h.h_deadlock then "deadlock — no flow runnable"
     else "scheduler step budget exhausted")
    h.h_steps h.h_budget
    (if live = [] then "no live flows"
     else String.concat "; " (List.map describe_flow live))

let () =
  Printexc.register_printer (function
    | Deadlock h -> Some ("Kernel.Deadlock: " ^ describe_halt h)
    | Stuck h -> Some ("Kernel.Stuck: " ^ describe_halt h)
    | _ -> None)

type config = {
  seed : int;
  hardirq_rate : float;
  softirq_rate : float;
  max_steps : int;
}

let default_config =
  { seed = 42; hardirq_rate = 0.002; softirq_rate = 0.004; max_steps = 50_000_000 }

type _ Effect.t += Yield : unit Effect.t
type _ Effect.t += Wait : (string * (unit -> bool)) -> unit Effect.t

type frames = (Source.fn * int ref) list

type task_state =
  | New of (unit -> unit)
  | Ready of (unit -> unit)
  | Blocked of string * (unit -> bool) * (unit -> unit)
  | Finished

type task = {
  pid : int;
  t_name : string;
  mutable st : task_state;
  mutable frames : frames;
}

(* {2 Schedule control}

   The replay engine drives a run through three hooks: [ctl_on_access]
   fires before every data-member access (with the access resolved to
   (type, member) and the would-be source location), [ctl_on_event]
   taps the instrumentation bus, and [ctl_pick] overrides the
   scheduler's seeded choice. The hooks run synchronously inside the
   simulation, so they may call {!preempt_now} (directed switch) or
   {!raise_hardirq} (directed interrupt) at the exact point of
   interest. *)

type access_view = {
  av_type : string;
  av_subclass : string option;
  av_member : string;
  av_ptr : int;  (** absolute member address *)
  av_kind : Event.access_kind;
  av_loc : Srcloc.t;  (** the location the access is about to emit *)
  av_pid : int;
  av_in_irq : bool;
  av_preempt_off : bool;
  av_irq_off : bool;
  av_stack : string list;  (** function scopes, innermost first *)
}

type control = {
  ctl_on_access : access_view -> unit;
  ctl_on_event : Event.t -> unit;
  ctl_pick : (unit -> flow list) -> int option;
      (** [None] defers to the seeded scheduler; a pid that is not
          runnable also falls back to the seeded choice. The flow list
          is built only if the hook calls its argument. *)
}

let null_control =
  {
    ctl_on_access = (fun _ -> ());
    ctl_on_event = (fun _ -> ());
    ctl_pick = (fun _ -> None);
  }

type run = {
  cfg : config;
  ctl : control;
  sink : Trace.sink;
  rng : Prng.t;
  cov : Source.coverage;
  mutable tasks : task list;
  mutable hardirqs : (string * (unit -> unit)) list;
  mutable softirqs : (string * (unit -> unit)) list;
  mutable cur : task option;
  mutable irq_frames : frames;  (** frame stack while in IRQ context *)
  mutable in_irq : bool;
  mutable preempt_count : int;
  mutable irq_off : bool;
  mutable bh_off : bool;
  mutable last_emitted_pid : int;
  mutable next_pid : int;
  mutable steps : int;
}

let boot_hooks : (unit -> unit) list ref = ref []

let add_boot_hook f = boot_hooks := f :: !boot_hooks

let the_run : run option ref = ref None

let run_exn () =
  match !the_run with
  | Some r -> r
  | None -> failwith "Kernel: no run in progress"

(* {2 Instrumentation bus} *)

let emit ev =
  let r = run_exn () in
  Trace.emit r.sink ev;
  if r.ctl != null_control then r.ctl.ctl_on_event ev

let prng () = (run_exn ()).rng

let in_irq () = (run_exn ()).in_irq

let current_pid () =
  let r = run_exn () in
  if r.in_irq then -1 else match r.cur with Some t -> t.pid | None -> 0

let cur_frames r = if r.in_irq then r.irq_frames else
  match r.cur with Some t -> t.frames | None -> []

let set_cur_frames r frames =
  if r.in_irq then r.irq_frames <- frames
  else match r.cur with Some t -> t.frames <- frames | None -> ()

let debug_frames () = cur_frames (run_exn ())

let here () =
  let r = run_exn () in
  match cur_frames r with
  | [] -> Srcloc.none
  | (fn, cursor) :: _ ->
      incr cursor;
      let line = fn.Source.fn_start + (!cursor mod fn.Source.fn_span) in
      Source.mark_line r.cov fn line;
      Srcloc.make fn.Source.fn_file line

(* The location {!here} would return next, without advancing the cursor
   or marking coverage: breakpoint views must name the access's source
   location before deciding whether to preempt there. *)
let peek_loc () =
  let r = run_exn () in
  match cur_frames r with
  | [] -> Srcloc.none
  | (fn, cursor) :: _ ->
      let line = fn.Source.fn_start + ((!cursor + 1) mod fn.Source.fn_span) in
      Srcloc.make fn.Source.fn_file line

let fn_scope ~file ~span name body =
  let r = run_exn () in
  let fn = Source.declare ~file ~span name in
  Source.mark_enter r.cov fn;
  let loc = Srcloc.make fn.Source.fn_file fn.Source.fn_start in
  emit (Event.Fun_enter { fn = name; loc });
  set_cur_frames r ((fn, ref 0) :: cur_frames r);
  let finish () =
    (match cur_frames r with
    | _ :: rest -> set_cur_frames r rest
    | [] -> ());
    emit (Event.Fun_exit { fn = name })
  in
  match body () with
  | result ->
      finish ();
      result
  | exception e ->
      finish ();
      raise e

(* {2 Preemption / masking} *)

let preempt_disable () =
  let r = run_exn () in
  r.preempt_count <- r.preempt_count + 1

let preempt_enable () =
  let r = run_exn () in
  assert (r.preempt_count > 0);
  r.preempt_count <- r.preempt_count - 1

let preempt_disabled () = (run_exn ()).preempt_count > 0

(* Masking interrupts is modelled as taking a pseudo-lock (like the
   hardirq/softirq context locks of paper Sec. 7.1): the irq-safety
   analysis needs to see, per member access and per lock acquisition,
   whether interrupts were enabled at that point. Only transitions emit
   events, so nested disable/enable pairs stay balanced. *)
let irqoff_lock_ptr = 0x30
let bhoff_lock_ptr = 0x40

let emit_mask_acquire lock_ptr lock_name =
  emit
    (Event.Lock_acquire
       {
         lock_ptr;
         kind = Event.Pseudo;
         side = Event.Exclusive;
         name = lock_name;
         loc = here ();
       })

let emit_mask_release lock_ptr =
  emit (Event.Lock_release { lock_ptr; loc = here () })

let local_irq_disable () =
  let r = run_exn () in
  if not r.irq_off then begin
    r.irq_off <- true;
    emit_mask_acquire irqoff_lock_ptr "irqoff"
  end

let local_irq_enable () =
  let r = run_exn () in
  if r.irq_off then begin
    emit_mask_release irqoff_lock_ptr;
    r.irq_off <- false
  end

let local_bh_disable () =
  let r = run_exn () in
  if not r.bh_off then begin
    r.bh_off <- true;
    emit_mask_acquire bhoff_lock_ptr "bhoff"
  end

let local_bh_enable () =
  let r = run_exn () in
  if r.bh_off then begin
    emit_mask_release bhoff_lock_ptr;
    r.bh_off <- false
  end

let preempt_point () =
  let r = run_exn () in
  if (not r.in_irq) && r.preempt_count = 0 then Effect.perform Yield

(* Forced preemption for the schedule controller: yields if kernel
   discipline allows it and reports whether a switch was possible. A
   flow in irq context or under preempt_disable cannot be switched out,
   exactly as at an ordinary preemption point. *)
let preempt_now () =
  let r = run_exn () in
  if r.in_irq || r.preempt_count > 0 then false
  else begin
    Effect.perform Yield;
    true
  end

let flow_of_task t =
  {
    fl_pid = t.pid;
    fl_name = t.t_name;
    fl_state =
      (match t.st with
      | New _ | Ready _ -> Fl_runnable
      | Blocked (reason, pred, _) ->
          if pred () then Fl_runnable else Fl_blocked reason
      | Finished -> Fl_finished);
  }

let flows () = List.map flow_of_task (run_exn ()).tasks

(* The breakpoint site: Memory routes every data-member access through
   here (it knows the resolved (type, subclass, member), which the raw
   event stream does not), then falls through to an ordinary preemption
   point. The view is only materialised under an active controller. *)
let access_point ~ty ~subclass ~member ~ptr ~kind =
  let r = run_exn () in
  if r.ctl != null_control then
    r.ctl.ctl_on_access
      {
        av_type = ty;
        av_subclass = subclass;
        av_member = member;
        av_ptr = ptr;
        av_kind = kind;
        av_loc = peek_loc ();
        av_pid = current_pid ();
        av_in_irq = r.in_irq;
        av_preempt_off = r.preempt_count > 0;
        av_irq_off = r.irq_off;
        av_stack =
          List.map (fun (f, _) -> f.Source.fn_name) (cur_frames r);
      };
  preempt_point ()

let wait_until reason pred =
  let r = run_exn () in
  if r.in_irq then raise (Sleep_in_atomic ("irq handler blocks on " ^ reason));
  if r.preempt_count > 0 then
    raise (Sleep_in_atomic ("blocking on " ^ reason ^ " with preemption off"));
  if not (pred ()) then Effect.perform (Wait (reason, pred))

(* {2 Task and IRQ registration} *)

let spawn name body =
  let r = run_exn () in
  let pid = r.next_pid in
  r.next_pid <- pid + 1;
  r.tasks <- r.tasks @ [ { pid; t_name = name; st = New body; frames = [] } ]

let register_hardirq name body =
  let r = run_exn () in
  r.hardirqs <- r.hardirqs @ [ (name, body) ]

let register_softirq name body =
  let r = run_exn () in
  r.softirqs <- r.softirqs @ [ (name, body) ]

(* {2 Scheduler} *)

(* Pseudo-lock addresses for synthetic hardirq/softirq "locks"
   (paper Sec. 7.1). They live below the static-lock region. *)
let hardirq_lock_ptr = 0x10
let softirq_lock_ptr = 0x20

let irq_pid = function Event.Hardirq -> 1001 | Event.Softirq -> 2001 | Event.Task -> 0

let switch_to r pid kind =
  if r.last_emitted_pid <> pid then begin
    emit (Event.Ctx_switch { pid; kind });
    r.last_emitted_pid <- pid
  end

let run_irq r kind (name, handler) =
  let pid = irq_pid kind in
  let interrupted = cur_frames r in
  switch_to r pid
    (match kind with Event.Hardirq -> Event.Hardirq | _ -> Event.Softirq);
  r.in_irq <- true;
  r.irq_frames <- [];
  let lock_ptr, lock_name =
    match kind with
    | Event.Hardirq -> (hardirq_lock_ptr, "hardirq")
    | _ -> (softirq_lock_ptr, "softirq")
  in
  emit
    (Event.Lock_acquire
       {
         lock_ptr;
         kind = Event.Pseudo;
         side = Event.Exclusive;
         name = lock_name;
         loc = Srcloc.make ("kernel/" ^ name ^ ".c") 1;
       });
  let finish () =
    emit (Event.Lock_release { lock_ptr; loc = Srcloc.none });
    r.in_irq <- false;
    r.irq_frames <- [];
    ignore interrupted
  in
  (match handler () with
  | () -> finish ()
  | exception e ->
      finish ();
      raise e)

let maybe_inject_irqs r =
  if (not r.irq_off) && r.hardirqs <> [] && Prng.bernoulli r.rng r.cfg.hardirq_rate
  then run_irq r Event.Hardirq (Prng.pick_list r.rng r.hardirqs);
  if (not r.irq_off) && (not r.bh_off) && r.softirqs <> []
     && Prng.bernoulli r.rng r.cfg.softirq_rate
  then run_irq r Event.Softirq (Prng.pick_list r.rng r.softirqs)

(* Synchronous interrupt raising, used by deterministic workloads (the
   sanitizer traces tick a timer at fixed points instead of relying on
   the probabilistic injector). Runs every registered handler of the
   requested kind once, honouring the masking state, then restores
   event attribution to the interrupted task. *)
let raise_irq kind =
  let r = run_exn () in
  let masked =
    match kind with
    | Event.Hardirq -> r.irq_off
    | _ -> r.irq_off || r.bh_off
  in
  if (not r.in_irq) && not masked then begin
    let handlers =
      match kind with Event.Hardirq -> r.hardirqs | _ -> r.softirqs
    in
    List.iter (fun h -> run_irq r kind h) handlers;
    (* [run_irq] leaves [last_emitted_pid] at the irq pseudo-pid; the
       probabilistic injector relies on the subsequent [resume] to
       switch back, but a mid-task raise must restore it itself. *)
    match r.cur with
    | Some t -> switch_to r t.pid Event.Task
    | None -> ()
  end

let raise_hardirq () = raise_irq Event.Hardirq
let raise_softirq () = raise_irq Event.Softirq

let resume r task =
  r.cur <- Some task;
  switch_to r task.pid Event.Task;
  match task.st with
  | New body ->
      task.st <- Finished;
      (* Deep handler: every later effect of this task lands here. *)
      Effect.Deep.match_with
        (fun () -> body ())
        ()
        {
          retc = (fun () -> task.st <- Finished);
          exnc = raise;
          effc =
            (fun (type a) (eff : a Effect.t) ->
              match eff with
              | Yield ->
                  Some
                    (fun (k : (a, unit) Effect.Deep.continuation) ->
                      task.st <- Ready (fun () -> Effect.Deep.continue k ()))
              | Wait (reason, pred) ->
                  Some
                    (fun (k : (a, unit) Effect.Deep.continuation) ->
                      task.st <-
                        Blocked (reason, pred, fun () -> Effect.Deep.continue k ()))
              | _ -> None);
        }
  | Ready k ->
      task.st <- Finished;
      (* If the resumed continuation performs an effect, the deep handler
         installed at task start updates [task.st] before returning. *)
      k ()
  | Blocked (_, _, k) ->
      task.st <- Finished;
      k ()
  | Finished -> assert false

let runnable task =
  match task.st with
  | New _ | Ready _ -> true
  | Blocked (_, pred, _) -> pred ()
  | Finished -> false

let halt r ~deadlock =
  {
    h_deadlock = deadlock;
    h_steps = r.steps;
    h_budget = r.cfg.max_steps;
    h_flows = List.map flow_of_task r.tasks;
  }

let schedule r =
  let flows () = List.map flow_of_task r.tasks in
  let rec loop () =
    r.steps <- r.steps + 1;
    if r.steps > r.cfg.max_steps then raise (Stuck (halt r ~deadlock:false));
    match List.filter runnable r.tasks with
    | [] ->
        let any_blocked =
          List.exists
            (fun t -> match t.st with Blocked _ -> true | _ -> false)
            r.tasks
        in
        if any_blocked then raise (Deadlock (halt r ~deadlock:true))
    | candidates ->
        let task =
          let directed =
            if r.ctl == null_control then None
            else
              match r.ctl.ctl_pick flows with
              | None -> None
              | Some pid -> List.find_opt (fun t -> t.pid = pid) candidates
          in
          match directed with
          | Some t -> t
          | None -> Prng.pick_list r.rng candidates
        in
        maybe_inject_irqs r;
        resume r task;
        loop ()
  in
  loop ()

let run ?(config = default_config) ?(control = null_control) ~layouts setup =
  let r =
    {
      cfg = config;
      ctl = control;
      sink = Trace.sink ();
      rng = Prng.of_int config.seed;
      cov = Source.coverage ();
      tasks = [];
      hardirqs = [];
      softirqs = [];
      cur = None;
      irq_frames = [];
      in_irq = false;
      preempt_count = 0;
      irq_off = false;
      bh_off = false;
      last_emitted_pid = min_int;
      next_pid = 1;
      steps = 0;
    }
  in
  the_run := Some r;
  let finish () = the_run := None in
  match
    List.iter (fun hook -> hook ()) !boot_hooks;
    setup ();
    schedule r
  with
  | () ->
      let trace = Trace.finish ~layouts r.sink in
      finish ();
      (trace, r.cov)
  | exception e ->
      finish ();
      raise e

