(* Counterexample replay: re-execute the sanitizer workload under a
   programmable schedule controller and turn every finding into either a
   serialized interleaving witness or a machine-checked refutation.

   Races: arm a breakpoint at an occurrence of the suspicious access,
   force a preemption there, and run the other flows in a bounded window
   hunting for a same-address access from another flow with no common
   protection where at least one side is a bare write. Rounds retry
   missed windows with a doubled window, a shifted arming stride and a
   perturbed scheduler seed. Irq findings: raise the timer interrupt at
   the moment the flagged class is acquired with interrupts enabled and
   catch the handler's in-atomic deadlock as the witness.

   Everything runs on the calling domain: the simulator is a pile of
   per-run global state (DESIGN 5d), and verdict synthesis is too cheap
   to fan out. *)

module Trace = Lockdoc_trace.Trace
module Event = Lockdoc_trace.Event
module Srcloc = Lockdoc_trace.Srcloc
module Import = Lockdoc_db.Import
module Dataset = Lockdoc_core.Dataset
module Derivator = Lockdoc_core.Derivator
module Violation = Lockdoc_core.Violation
module Kernel = Lockdoc_ksim.Kernel
module Run = Lockdoc_ksim.Run
module Seeded = Lockdoc_ksim.Seeded
module Json = Lockdoc_obs.Json
module Obs = Lockdoc_obs.Obs

let c_windows = Obs.counter "replay.windows"
let c_shots = Obs.counter "replay.irq_shots"
let c_confirmed = Obs.counter "replay.confirmed"
let c_refuted = Obs.counter "replay.refuted"

type reason =
  | Caller_holds_lock of string
  | Rcu_read_section
  | Quiescent_init_teardown
  | Budget_exhausted

type step = {
  st_pid : int;
  st_flow : string;
  st_action : string;
  st_loc : Srcloc.t;
  st_held : string list;
}

type verdict = Confirmed of step list | Refuted of reason

type target =
  | Race_target of { rt_type : string; rt_member : string }
  | Irq_target of { it_class : string }

let target_id = function
  | Race_target { rt_type; rt_member } -> rt_type ^ "." ^ rt_member
  | Irq_target { it_class } -> it_class

type outcome = {
  o_target : target;
  o_sources : string list;
  o_verdict : verdict;
  o_schedules : int;
}

type report = {
  r_workload : string;
  r_seed : int;
  r_scale : int;
  r_bugs : bool;
  r_budget : int;
  r_events : int;
  r_outcomes : outcome list;
  r_schedules : int;
  r_races_pre : Crossval.score;
  r_races_post : Crossval.score;
  r_irq_pre : Crossval.score;
  r_irq_post : Crossval.score;
}

(* {2 Evidence accumulated by the controller} *)

type race_ev = {
  re_type : string;  (* base type name, subclass split off the key *)
  re_subclass : string option;
  re_member : string;
  mutable re_occ : int;  (* armable-context occurrences seen *)
  mutable re_armed : int;  (* occurrences that reached classification *)
  mutable re_rcu : int;  (* armed reads inside an RCU/seqlock section *)
  mutable re_quiescent : int;  (* armed while single-threaded *)
  mutable re_windows : int;  (* directed windows opened *)
  mutable re_missed : int;  (* windows with no conflicting access *)
  mutable re_seen : int;  (* per-round arming-stride counter *)
  mutable re_left : int;  (* per-round window budget *)
  mutable re_active : bool;  (* still searched this round *)
  re_guards : (string, int) Hashtbl.t;  (* guard class -> sightings *)
  mutable re_witness : step list option;
}

type irq_ev = {
  ie_class : string;
  mutable ie_acq : int;  (* process-context acquisitions seen *)
  mutable ie_masked : int;  (* ... of which had interrupts masked *)
  mutable ie_shots : int;  (* directed interrupts raised *)
  mutable ie_missed : int;  (* shots whose handler did not contend *)
  mutable ie_left : int;
  mutable ie_active : bool;
  mutable ie_witness : step list option;
}

type evidence = Race_ev of race_ev | Irq_ev of irq_ev

let split_key key =
  match String.index_opt key ':' with
  | None -> (key, None)
  | Some i ->
      ( String.sub key 0 i,
        Some (String.sub key (i + 1) (String.length key - i - 1)) )

let make_ev = function
  | Race_target { rt_type; rt_member } ->
      let base, sub = split_key rt_type in
      Race_ev
        {
          re_type = base;
          re_subclass = sub;
          re_member = rt_member;
          re_occ = 0;
          re_armed = 0;
          re_rcu = 0;
          re_quiescent = 0;
          re_windows = 0;
          re_missed = 0;
          re_seen = 0;
          re_left = 0;
          re_active = false;
          re_guards = Hashtbl.create 4;
          re_witness = None;
        }
  | Irq_target { it_class } ->
      Irq_ev
        {
          ie_class = it_class;
          ie_acq = 0;
          ie_masked = 0;
          ie_shots = 0;
          ie_missed = 0;
          ie_left = 0;
          ie_active = false;
          ie_witness = None;
        }

(* {2 The schedule controller} *)

type lockinfo = {
  li_ptr : int;
  li_class : string;
  li_side : Event.lock_side;
  li_kind : Event.lock_kind;
}

type window = {
  w_ev : race_ev;
  w_pid : int;
  w_view : Kernel.access_view;
  w_rel : string list;  (* armed side's protecting lock classes *)
  mutable w_left : int;
  mutable w_guarded : bool;
}

type ctl = {
  evs : evidence list;
  stride : int;  (* arm every stride-th armable occurrence *)
  window_len : int;
  mutable mode : window option;
  mutable in_tap : bool;  (* re-entrancy guard around directed irqs *)
  held : (int, lockinfo list ref) Hashtbl.t;  (* pid -> held, innermost first *)
  mutable allocs : (int * int * string) list;  (* base, size, data_type *)
}

let held st pid =
  match Hashtbl.find_opt st.held pid with Some r -> !r | None -> []

let push_lock st pid li =
  match Hashtbl.find_opt st.held pid with
  | Some r -> r := li :: !r
  | None -> Hashtbl.add st.held pid (ref [ li ])

let pop_lock st pid ptr =
  match Hashtbl.find_opt st.held pid with
  | Some r ->
      let rec rm = function
        | [] -> []
        | li :: tl -> if li.li_ptr = ptr then tl else li :: rm tl
      in
      r := rm !r
  | None -> ()

(* Lock class at acquisition time, matching {!Lockdoc_core.Lockdep}:
   embedded locks resolve through the live allocation covering their
   address ("type.member_path"), statics and pseudos keep their name. *)
let resolve_class st ~ptr ~kind ~name =
  if kind = Event.Pseudo then name
  else
    match
      List.find_opt (fun (b, s, _) -> ptr >= b && ptr < b + s) st.allocs
    with
    | Some (_, _, dt) -> dt ^ "." ^ name
    | None -> name

let classes held = List.map (fun li -> li.li_class) held

(* The lock classes that actually protect an access: writes need an
   exclusively-held lock, reads any (the lockset detector's rule). *)
let relevant held kind =
  held
  |> List.filter (fun li ->
         match kind with
         | Event.Write -> li.li_side = Event.Exclusive
         | Event.Read -> true)
  |> classes

let in_read_section held =
  List.exists
    (fun li ->
      li.li_side = Event.Shared
      && (li.li_kind = Event.Rcu || li.li_kind = Event.Seqlock))
    held

let irqs_masked held =
  List.exists
    (fun li ->
      li.li_kind = Event.Pseudo
      && (li.li_class = "irqoff" || li.li_class = "hardirq"))
    held

let is_atomic = function
  | frame :: _ -> String.starts_with ~prefix:"atomic_" frame
  | [] -> false

let under_quiescent_frame stack =
  List.exists (fun f -> List.mem f Lockset.quiescent_frames) stack

let flow_name pid =
  if pid < 0 then "hardirq"
  else
    match
      List.find_opt (fun f -> f.Kernel.fl_pid = pid) (Kernel.flows ())
    with
    | Some f -> f.Kernel.fl_name
    | None -> "pid" ^ string_of_int pid

let kind_str = function Event.Read -> "read" | Event.Write -> "write"

let bump tbl key =
  Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let race_id re =
  (match re.re_subclass with
  | None -> re.re_type
  | Some sc -> re.re_type ^ ":" ^ sc)
  ^ "." ^ re.re_member

let matches re (view : Kernel.access_view) =
  view.Kernel.av_type = re.re_type
  && view.Kernel.av_member = re.re_member
  && (match re.re_subclass with
     | None -> true
     | Some _ -> view.Kernel.av_subclass = re.re_subclass)

(* An access from another flow landed on the armed address during a
   directed window: either the witnessed conflict (no common protection,
   at least one side a bare write, conflicting side not an RCU/seqlock
   read) or evidence of what guards the pair. *)
let window_access st w (view : Kernel.access_view) =
  if
    (not view.Kernel.av_in_irq)
    && view.Kernel.av_pid <> w.w_pid
    && view.Kernel.av_ptr = w.w_view.Kernel.av_ptr
    && (not (is_atomic view.Kernel.av_stack))
    && (view.Kernel.av_kind = Event.Write
       || w.w_view.Kernel.av_kind = Event.Write)
  then begin
    let b_held = held st view.Kernel.av_pid in
    let b_rel = relevant b_held view.Kernel.av_kind in
    let b_rcu = view.Kernel.av_kind = Event.Read && in_read_section b_held in
    let common = List.filter (fun c -> List.mem c b_rel) w.w_rel in
    let a_bare = w.w_view.Kernel.av_kind = Event.Write && w.w_rel = [] in
    let b_bare = view.Kernel.av_kind = Event.Write && b_rel = [] in
    if (not b_rcu) && common = [] && (a_bare || b_bare) then begin
      let re = w.w_ev in
      let id = race_id re in
      let s1 =
        {
          st_pid = w.w_pid;
          st_flow = flow_name w.w_pid;
          st_action =
            Printf.sprintf "about to %s %s; directed schedule preempts here"
              (kind_str w.w_view.Kernel.av_kind) id;
          st_loc = w.w_view.Kernel.av_loc;
          st_held = classes (held st w.w_pid);
        }
      in
      let s2 =
        {
          st_pid = view.Kernel.av_pid;
          st_flow = flow_name view.Kernel.av_pid;
          st_action =
            Printf.sprintf "%ss %s with no common lock held"
              (kind_str view.Kernel.av_kind) id;
          st_loc = view.Kernel.av_loc;
          st_held = classes b_held;
        }
      in
      re.re_witness <- Some [ s1; s2 ];
      st.mode <- None
    end
    else begin
      w.w_guarded <- true;
      let guard =
        match common with
        | c :: _ -> c
        | [] ->
            if b_rcu then "rcu"
            else if (not b_bare) && b_rel <> [] then List.hd b_rel
            else (
              match w.w_rel with c :: _ -> c | [] -> "preempt_disabled")
      in
      bump w.w_ev.re_guards guard
    end
  end

(* An occurrence of a target's access in passive mode: classify it, and
   if nothing excuses it structurally, open a directed window. *)
let try_arm st re (view : Kernel.access_view) =
  re.re_occ <- re.re_occ + 1;
  if re.re_active && re.re_witness = None && re.re_left > 0 then begin
    let position = re.re_seen in
    re.re_seen <- re.re_seen + 1;
    if position mod st.stride = 0 then begin
      re.re_armed <- re.re_armed + 1;
      let pid_held = held st view.Kernel.av_pid in
      let rel = relevant pid_held view.Kernel.av_kind in
      (* Only flows that can actually run during a window count: a
         window suspends the armed flow, so permanently blocked flows
         (init waiting on workload completion, a twin spinning on a
         lock the armed flow holds) can never produce the conflicting
         access, and opening a window against them just burns budget. *)
      let others_live =
        List.exists
          (fun f ->
            f.Kernel.fl_pid <> view.Kernel.av_pid
            && f.Kernel.fl_state = Kernel.Fl_runnable)
          (Kernel.flows ())
      in
      if view.Kernel.av_kind = Event.Read && in_read_section pid_held then
        re.re_rcu <- re.re_rcu + 1
      else if (not others_live) || under_quiescent_frame view.Kernel.av_stack
      then re.re_quiescent <- re.re_quiescent + 1
      else if view.Kernel.av_preempt_off then
        (* not preemptible here: whatever holds preemption off (the
           innermost exclusive lock, or a bare preempt_disable) is the
           de-facto guard *)
        bump re.re_guards
          (match rel with g :: _ -> g | [] -> "preempt_disabled")
      else begin
        re.re_left <- re.re_left - 1;
        re.re_windows <- re.re_windows + 1;
        Obs.incr c_windows;
        let w =
          {
            w_ev = re;
            w_pid = view.Kernel.av_pid;
            w_view = view;
            w_rel = rel;
            w_left = st.window_len;
            w_guarded = false;
          }
        in
        st.mode <- Some w;
        ignore (Kernel.preempt_now ());
        (* back in the armed flow: the window either confirmed (mode
           already reset by {!window_access}) or expires now *)
        (match st.mode with
        | Some w' when w' == w ->
            st.mode <- None;
            if not w.w_guarded then re.re_missed <- re.re_missed + 1
        | _ -> ());
        match re.re_witness with
        | Some steps ->
            (* confirmed during this window — close the witness with the
               armed flow's resumption *)
            let s3 =
              {
                st_pid = view.Kernel.av_pid;
                st_flow = flow_name view.Kernel.av_pid;
                st_action =
                  Printf.sprintf
                    "resumes and performs the armed %s of %s (lost update)"
                    (kind_str view.Kernel.av_kind) (race_id re);
                st_loc = view.Kernel.av_loc;
                st_held = classes (held st view.Kernel.av_pid);
              }
            in
            re.re_witness <- Some (steps @ [ s3 ])
        | None -> ()
      end
    end
  end

let on_access st (view : Kernel.access_view) =
  if not st.in_tap then
    match st.mode with
    | Some w -> window_access st w view
    | None ->
        if (not view.Kernel.av_in_irq) && not (is_atomic view.Kernel.av_stack)
        then
          List.iter
            (fun ev ->
              match ev with
              | Race_ev re when matches re view -> try_arm st re view
              | _ -> ())
            st.evs

(* A process-context acquisition of an irq-flagged class with interrupts
   enabled: fire the timer interrupt right here, while the lock is held.
   If the handler contends on it, the kernel's in-atomic discipline
   turns the self-deadlock into our witness. *)
let irq_shot st ~pid ~cls ~loc =
  List.iter
    (fun ev ->
      match ev with
      | Irq_ev ie when ie.ie_class = cls ->
          ie.ie_acq <- ie.ie_acq + 1;
          if irqs_masked (held st pid) then ie.ie_masked <- ie.ie_masked + 1
          else if ie.ie_active && ie.ie_witness = None && ie.ie_left > 0
          then begin
            ie.ie_left <- ie.ie_left - 1;
            ie.ie_shots <- ie.ie_shots + 1;
            Obs.incr c_shots;
            st.in_tap <- true;
            match Kernel.raise_hardirq () with
            | () ->
                st.in_tap <- false;
                ie.ie_missed <- ie.ie_missed + 1
            | exception Kernel.Sleep_in_atomic msg ->
                st.in_tap <- false;
                ie.ie_witness <-
                  Some
                    [
                      {
                        st_pid = pid;
                        st_flow = flow_name pid;
                        st_action =
                          "acquires " ^ cls ^ " with interrupts enabled";
                        st_loc = loc;
                        st_held = classes (held st pid);
                      };
                      {
                        st_pid = -1;
                        st_flow = "hardirq";
                        st_action =
                          "directed interrupt fires while " ^ cls
                          ^ " is held";
                        st_loc = Srcloc.none;
                        st_held = [];
                      };
                      {
                        st_pid = -1;
                        st_flow = "hardirq";
                        st_action = "handler self-deadlocks: " ^ msg;
                        st_loc = Srcloc.none;
                        st_held = [ "hardirq" ];
                      };
                    ]
          end
      | _ -> ())
    st.evs

let on_event st ev =
  if not st.in_tap then
    match ev with
    | Event.Alloc { ptr; size; data_type; _ } ->
        st.allocs <- (ptr, size, data_type) :: st.allocs
    | Event.Free { ptr } ->
        st.allocs <- List.filter (fun (b, _, _) -> b <> ptr) st.allocs
    | Event.Lock_acquire { lock_ptr; kind; side; name; loc } ->
        let pid = Kernel.current_pid () in
        let cls = resolve_class st ~ptr:lock_ptr ~kind ~name in
        push_lock st pid { li_ptr = lock_ptr; li_class = cls; li_side = side; li_kind = kind };
        if pid >= 0 && st.mode = None then irq_shot st ~pid ~cls ~loc
    | Event.Lock_release { lock_ptr; _ } ->
        pop_lock st (Kernel.current_pid ()) lock_ptr
    | _ -> ()

let pick st flows =
  match st.mode with
  | None -> None
  | Some w ->
      if w.w_left <= 0 then Some w.w_pid
      else begin
        w.w_left <- w.w_left - 1;
        let others =
          List.filter
            (fun f ->
              f.Kernel.fl_state = Kernel.Fl_runnable
              && f.Kernel.fl_pid <> w.w_pid)
            flows
        in
        match others with
        | [] -> Some w.w_pid
        | _ ->
            Some
              (List.nth others (w.w_left mod List.length others)).Kernel.fl_pid
      end

(* {2 The bounded search: rounds of directed runs} *)

let base_window = 2_000
let max_rounds = 3

let race_retry re =
  re.re_witness = None && (re.re_occ = 0 || re.re_missed > 0)

let irq_retry ie = ie.ie_witness = None && (ie.ie_acq = 0 || ie.ie_missed > 0)

let collect ~seed ~scale ~budget ~bugs ~workload targets =
  let evs = List.map make_ev targets in
  for round = 0 to max_rounds - 1 do
    let any_active = ref false in
    List.iter
      (fun ev ->
        match ev with
        | Race_ev re ->
            re.re_left <- budget;
            re.re_seen <- 0;
            re.re_active <- round = 0 || race_retry re;
            if re.re_active && re.re_witness = None then any_active := true
        | Irq_ev ie ->
            ie.ie_left <- budget;
            ie.ie_active <- round = 0 || irq_retry ie;
            if ie.ie_active && ie.ie_witness = None then any_active := true)
      evs;
    if !any_active then begin
      let st =
        {
          evs;
          stride = round + 1;
          window_len = base_window lsl round;
          mode = None;
          in_tap = false;
          held = Hashtbl.create 64;
          allocs = [];
        }
      in
      let control =
        {
          Kernel.ctl_on_access = (fun v -> on_access st v);
          ctl_on_event = (fun e -> on_event st e);
          ctl_pick = (fun fl -> pick st fl);
        }
      in
      ignore
        (Run.replay_trace ~seed:(seed + (101 * round)) ~scale ~control ~bugs
           workload)
    end
  done;
  evs

(* {2 Verdict synthesis (pure)} *)

let decide ev =
  match ev with
  | Race_ev re -> (
      match re.re_witness with
      | Some w -> (Confirmed w, re.re_windows)
      | None ->
          let guards =
            Hashtbl.fold (fun k v acc -> (k, v) :: acc) re.re_guards []
          in
          let reason =
            if re.re_occ = 0 then Budget_exhausted
            else if guards <> [] then
              let best =
                List.sort
                  (fun (k1, v1) (k2, v2) ->
                    if v1 <> v2 then compare v2 v1 else compare k1 k2)
                  guards
                |> List.hd |> fst
              in
              Caller_holds_lock best
            else if
              re.re_rcu > 0 && re.re_rcu + re.re_quiescent = re.re_armed
            then Rcu_read_section
            else if re.re_quiescent > 0 && re.re_quiescent = re.re_armed then
              Quiescent_init_teardown
            else Budget_exhausted
          in
          (Refuted reason, re.re_windows))
  | Irq_ev ie -> (
      match ie.ie_witness with
      | Some w -> (Confirmed w, ie.ie_shots)
      | None ->
          if ie.ie_acq > 0 && ie.ie_masked = ie.ie_acq then
            (Refuted (Caller_holds_lock "irqoff"), ie.ie_shots)
          else (Refuted Budget_exhausted, ie.ie_shots))

let search ?(seed = 7) ?(scale = 1) ?(budget = 8) ~bugs ~workload targets =
  let evs, _ =
    Obs.Span.timed "replay/search" (fun () ->
        collect ~seed ~scale ~budget ~bugs ~workload targets)
  in
  let out =
    List.map2 (fun t ev -> let v, n = decide ev in (t, v, n)) targets evs
  in
  (out, List.fold_left (fun acc (_, _, n) -> acc + n) 0 out)

(* {2 The full pipeline} *)

let run ?jobs:_ ?(seed = 7) ?(scale = 1) ?(budget = 8) ~bugs workload =
  if not (List.mem workload Run.workload_names) then
    invalid_arg ("Replay.run: unknown workload " ^ workload);
  let (trace, truth), _ =
    Obs.Span.timed "replay/trace" (fun () ->
        Run.sanitize_trace ~seed ~scale ~bugs workload)
  in
  let (races, irq_unsafe, violations), _ =
    Obs.Span.timed "replay/findings" (fun () ->
        let store, _stats = Import.run trace in
        let races = Lockset.analyse store in
        let irq = Irq.analyse store in
        let dataset = Dataset.of_store store in
        let mined = Derivator.derive_all dataset in
        (races, irq.Irq.i_unsafe, Violation.find dataset mined))
  in
  (* One replay target per distinct finding, remembering every detector
     that flagged it; races sort before irq classes, each by id. *)
  let by_id : (string, target * string list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let add t source =
    let id = target_id t in
    match Hashtbl.find_opt by_id id with
    | Some (_, srcs) ->
        if not (List.mem source !srcs) then srcs := !srcs @ [ source ]
    | None -> Hashtbl.add by_id id (t, ref [ source ])
  in
  List.iter
    (fun (r : Lockset.race) ->
      add
        (Race_target { rt_type = r.Lockset.r_type; rt_member = r.Lockset.r_member })
        "lockset")
    races;
  List.iter
    (fun (v : Violation.violation) ->
      add
        (Race_target { rt_type = v.Violation.v_type; rt_member = v.Violation.v_member })
        "violation")
    violations;
  List.iter
    (fun (u : Irq.unsafe) ->
      add (Irq_target { it_class = u.Irq.iu_class }) "irq")
    irq_unsafe;
  let ids =
    Hashtbl.fold (fun id (t, _) acc -> ((t, id) :: acc)) by_id []
    |> List.sort (fun ((t1 : target), id1) (t2, id2) ->
           let rank = function Race_target _ -> 0 | Irq_target _ -> 1 in
           compare (rank t1, id1) (rank t2, id2))
    |> List.map snd
  in
  let targets = List.map (fun id -> fst (Hashtbl.find by_id id)) ids in
  let evs, _ =
    Obs.Span.timed "replay/search" (fun () ->
        collect ~seed ~scale ~budget ~bugs ~workload targets)
  in
  let decided, _ =
    Obs.Span.timed "replay/verdicts" (fun () -> List.map decide evs)
  in
  List.iter
    (fun (v, _) ->
      match v with
      | Confirmed _ -> Obs.incr c_confirmed
      | Refuted _ -> Obs.incr c_refuted)
    decided;
  let outcomes =
    List.map2
      (fun id (v, n) ->
        let t, srcs = Hashtbl.find by_id id in
        { o_target = t; o_sources = !srcs; o_verdict = v; o_schedules = n })
      ids decided
  in
  let ids_of pred =
    List.filter_map
      (fun o -> if pred o then Some (target_id o.o_target) else None)
      outcomes
  in
  let is_race o = match o.o_target with Race_target _ -> true | _ -> false in
  let is_irq o = match o.o_target with Irq_target _ -> true | _ -> false in
  let confirmed o =
    match o.o_verdict with Confirmed _ -> true | Refuted _ -> false
  in
  let truth_races =
    List.map (fun (ty, m) -> ty ^ "." ^ m) truth.Seeded.t_races
  in
  {
    r_workload = workload;
    r_seed = seed;
    r_scale = scale;
    r_bugs = bugs;
    r_budget = budget;
    r_events = Array.length trace.Trace.events;
    r_outcomes = outcomes;
    r_schedules =
      List.fold_left (fun acc o -> acc + o.o_schedules) 0 outcomes;
    r_races_pre = Crossval.score ~found:(ids_of is_race) ~truth:truth_races;
    r_races_post =
      Crossval.score
        ~found:(ids_of (fun o -> is_race o && confirmed o))
        ~truth:truth_races;
    r_irq_pre =
      Crossval.score ~found:(ids_of is_irq) ~truth:truth.Seeded.t_irq_unsafe;
    r_irq_post =
      Crossval.score
        ~found:(ids_of (fun o -> is_irq o && confirmed o))
        ~truth:truth.Seeded.t_irq_unsafe;
  }

(* {2 Rendering} *)

let reason_str = function
  | Caller_holds_lock l -> "caller already holds " ^ l
  | Rcu_read_section -> "reads sit in an RCU/seqlock read section"
  | Quiescent_init_teardown -> "runs single-threaded (init/teardown)"
  | Budget_exhausted -> "no conflicting schedule within budget"

let render r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "replay: %s (seed %d, scale %d, seeded bugs %s, budget %d) — %d \
        finding(s), %d directed schedule(s) over %d event(s)\n"
       r.r_workload r.r_seed r.r_scale
       (if r.r_bugs then "on" else "off")
       r.r_budget
       (List.length r.r_outcomes)
       r.r_schedules r.r_events);
  List.iter
    (fun o ->
      let id = target_id o.o_target in
      let srcs = String.concat "+" o.o_sources in
      match o.o_verdict with
      | Confirmed steps ->
          Buffer.add_string buf
            (Printf.sprintf "  [confirmed] %s (%s) — witness:\n" id srcs);
          List.iteri
            (fun i s ->
              Buffer.add_string buf
                (Printf.sprintf "      %d. %s (pid %d) at %s, holds [%s]: %s\n"
                   (i + 1) s.st_flow s.st_pid
                   (Srcloc.to_string s.st_loc)
                   (String.concat ", " s.st_held)
                   s.st_action))
            steps
      | Refuted reason ->
          Buffer.add_string buf
            (Printf.sprintf "  [refuted]   %s (%s) — %s\n" id srcs
               (reason_str reason)))
    r.r_outcomes;
  let scoreline tag (pre : Crossval.score) (post : Crossval.score) =
    Buffer.add_string buf
      (Printf.sprintf
         "%s triage: precision %.2f -> %.2f, recall %.2f -> %.2f (tp %d, fp \
          %d -> %d, fn %d)\n"
         tag pre.Crossval.cv_precision post.Crossval.cv_precision
         pre.Crossval.cv_recall post.Crossval.cv_recall post.Crossval.cv_tp
         pre.Crossval.cv_fp post.Crossval.cv_fp post.Crossval.cv_fn)
  in
  scoreline "races" r.r_races_pre r.r_races_post;
  scoreline "irq" r.r_irq_pre r.r_irq_post;
  Buffer.contents buf

(* {2 JSON} *)

let reason_to_json = function
  | Caller_holds_lock l ->
      Json.O [ ("kind", Json.S "caller_holds_lock"); ("lock", Json.S l) ]
  | Rcu_read_section -> Json.O [ ("kind", Json.S "rcu_read_section") ]
  | Quiescent_init_teardown ->
      Json.O [ ("kind", Json.S "quiescent_init_teardown") ]
  | Budget_exhausted -> Json.O [ ("kind", Json.S "budget_exhausted") ]

let step_to_json s =
  Json.O
    [
      ("pid", Json.I s.st_pid);
      ("flow", Json.S s.st_flow);
      ("action", Json.S s.st_action);
      ("loc", Json.S (Srcloc.to_string s.st_loc));
      ("held", Json.L (List.map (fun c -> Json.S c) s.st_held));
    ]

let verdict_to_json = function
  | Confirmed steps ->
      Json.O
        [
          ("status", Json.S "confirmed");
          ("witness", Json.L (List.map step_to_json steps));
        ]
  | Refuted reason ->
      Json.O [ ("status", Json.S "refuted"); ("why", reason_to_json reason) ]

let step_of_json j =
  let str k =
    match Json.member k j with
    | Some (Json.S s) -> Ok s
    | _ -> Error ("step: missing string field " ^ k)
  in
  let ( let* ) = Result.bind in
  let* flow = str "flow" in
  let* action = str "action" in
  let* loc_s = str "loc" in
  let* loc =
    try Ok (Srcloc.of_string loc_s)
    with Failure m -> Error ("step: bad loc: " ^ m)
  in
  let* pid =
    match Json.member "pid" j with
    | Some (Json.I i) -> Ok i
    | _ -> Error "step: missing pid"
  in
  let* h =
    match Json.member "held" j with
    | Some (Json.L l) ->
        List.fold_left
          (fun acc x ->
            let* acc = acc in
            match x with
            | Json.S s -> Ok (s :: acc)
            | _ -> Error "step: held must be strings")
          (Ok []) l
        |> Result.map List.rev
    | _ -> Error "step: missing held"
  in
  Ok { st_pid = pid; st_flow = flow; st_action = action; st_loc = loc; st_held = h }

let reason_of_json j =
  match Json.member "kind" j with
  | Some (Json.S "caller_holds_lock") -> (
      match Json.member "lock" j with
      | Some (Json.S l) -> Ok (Caller_holds_lock l)
      | _ -> Error "reason: caller_holds_lock without lock")
  | Some (Json.S "rcu_read_section") -> Ok Rcu_read_section
  | Some (Json.S "quiescent_init_teardown") -> Ok Quiescent_init_teardown
  | Some (Json.S "budget_exhausted") -> Ok Budget_exhausted
  | _ -> Error "reason: unknown kind"

let verdict_of_json j =
  let ( let* ) = Result.bind in
  match Json.member "status" j with
  | Some (Json.S "confirmed") -> (
      match Json.member "witness" j with
      | Some (Json.L steps) ->
          let* steps =
            List.fold_left
              (fun acc s ->
                let* acc = acc in
                let* s = step_of_json s in
                Ok (s :: acc))
              (Ok []) steps
          in
          Ok (Confirmed (List.rev steps))
      | _ -> Error "verdict: confirmed without witness")
  | Some (Json.S "refuted") -> (
      match Json.member "why" j with
      | Some why ->
          let* r = reason_of_json why in
          Ok (Refuted r)
      | None -> Error "verdict: refuted without why")
  | _ -> Error "verdict: unknown status"

let json_of_score (s : Crossval.score) =
  Json.O
    [
      ("tp", Json.I s.Crossval.cv_tp);
      ("fp", Json.I s.Crossval.cv_fp);
      ("fn", Json.I s.Crossval.cv_fn);
      ("precision", Json.F s.Crossval.cv_precision);
      ("recall", Json.F s.Crossval.cv_recall);
      ("spurious", Json.L (List.map (fun x -> Json.S x) s.Crossval.cv_spurious));
      ("missed", Json.L (List.map (fun x -> Json.S x) s.Crossval.cv_missed));
    ]

let target_to_json = function
  | Race_target { rt_type; rt_member } ->
      Json.O
        [
          ("kind", Json.S "race");
          ("type", Json.S rt_type);
          ("member", Json.S rt_member);
        ]
  | Irq_target { it_class } ->
      Json.O [ ("kind", Json.S "irq"); ("class", Json.S it_class) ]

let to_json r =
  Json.to_string
    (Json.O
       [
         ("workload", Json.S r.r_workload);
         ("seed", Json.I r.r_seed);
         ("scale", Json.I r.r_scale);
         ("seeded_bugs", Json.B r.r_bugs);
         ("budget", Json.I r.r_budget);
         ("events", Json.I r.r_events);
         ("schedules", Json.I r.r_schedules);
         ( "findings",
           Json.L
             (List.map
                (fun o ->
                  Json.O
                    [
                      ("id", Json.S (target_id o.o_target));
                      ("target", target_to_json o.o_target);
                      ( "sources",
                        Json.L (List.map (fun s -> Json.S s) o.o_sources) );
                      ("schedules", Json.I o.o_schedules);
                      ("verdict", verdict_to_json o.o_verdict);
                    ])
                r.r_outcomes) );
         ( "triage",
           Json.O
             [
               ("races_pre", json_of_score r.r_races_pre);
               ("races_post", json_of_score r.r_races_post);
               ("irq_pre", json_of_score r.r_irq_pre);
               ("irq_post", json_of_score r.r_irq_post);
             ] );
       ])
