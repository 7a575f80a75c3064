(* A synthetic trace shape the simulated kernel does not produce:
   violating cells that are accessed again within their transaction.
   In the ksim families and the benchmark mix, no repeat access lands
   on a violating cell, so they cannot show whether a violation's
   "events" count follows repeat accesses. *)

module Trace = Lockdoc_trace.Trace
module Event = Lockdoc_trace.Event
module Layout = Lockdoc_trace.Layout

(* Widgets whose members are accessed under their own lock (the rule,
   with sr about 0.95), and sometimes under a global lock only —
   violations — in transactions that read a member, write it (a flip)
   and access it again (repeat accesses), among lock-free accesses.
   Seeded; about five events per step. *)
let trace ?(steps = 800) seed =
  let rng = Random.State.make [| seed |] in
  let widget =
    Layout.make ~name:"widget"
      [ ("w_a", 8, Layout.Data); ("w_b", 8, Layout.Data); ("w_lock", 4, Layout.Lock) ]
  in
  let sink = Trace.sink () in
  let emit = Trace.emit sink in
  let loc line = Lockdoc_trace.Srcloc.make "widget.c" line in
  let bases = List.init 4 (fun k -> 0x100000 + (k * 0x100)) in
  emit (Event.Ctx_switch { pid = 1; kind = Event.Task });
  List.iter
    (fun ptr ->
      emit (Event.Alloc { ptr; size = 20; data_type = "widget"; subclass = None }))
    bases;
  let access base =
    let member = Random.State.int rng 2 * 8 in
    let kind = if Random.State.bool rng then Event.Read else Event.Write in
    emit
      (Event.Mem_access
         { ptr = base + member; size = 8; kind; loc = loc (10 + member) })
  in
  for step = 1 to steps do
    let base = List.nth bases (Random.State.int rng 4) in
    let fn = Printf.sprintf "op%d" (step mod 5) in
    emit (Event.Fun_enter { fn; loc = loc step });
    (match Random.State.int rng 40 with
    | 0 | 1 ->
        (* Under the global lock only: violates ES(w_lock). Read the
           member, then write it, then touch it again. *)
        let lock_ptr = 0x9000 in
        emit
          (Event.Lock_acquire
             { lock_ptr; kind = Event.Spinlock; side = Event.Exclusive;
               name = "g_lock"; loc = loc 1 });
        let member = Random.State.int rng 2 * 8 in
        let hit kind =
          emit
            (Event.Mem_access { ptr = base + member; size = 8; kind; loc = loc 2 })
        in
        hit Event.Read;
        for _ = 1 to Random.State.int rng 3 do
          hit Event.Read
        done;
        if Random.State.bool rng then hit Event.Write;
        for _ = 1 to Random.State.int rng 3 do
          hit (if Random.State.bool rng then Event.Read else Event.Write)
        done;
        emit (Event.Lock_release { lock_ptr; loc = loc 3 })
    | 2 -> access base
    | _ ->
        let lock_ptr = base + 16 in
        emit
          (Event.Lock_acquire
             { lock_ptr; kind = Event.Spinlock; side = Event.Exclusive;
               name = "w_lock"; loc = loc 4 });
        for _ = 0 to Random.State.int rng 4 do
          access base
        done;
        emit (Event.Lock_release { lock_ptr; loc = loc 5 }));
    emit (Event.Fun_exit { fn })
  done;
  Trace.finish ~layouts:[ widget ] sink
