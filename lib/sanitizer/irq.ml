(* Lockdep-style irq-safety analysis.

   The kernel emits synthetic pseudo-locks on hardirq/softirq entry and
   around local_irq/bh masking sections, and transactions record held
   locks in acquisition order, so each transaction's lock list is a
   little context diary: everything after the "hardirq" pseudo was
   acquired in hardirq context, everything before any
   hardirq/softirq/irqoff marker was acquired with interrupts enabled.
   (Under the importer's Inherit mode an interrupt transaction starts
   with the interrupted flow's locks — those precede the pseudo and are
   correctly attributed to process context.)

   A lock class is irq-unsafe when both signals are present somewhere
   in the trace: it is acquired in hardirq context, and it is also
   acquired (anywhere) with interrupts enabled — the interrupted-holder
   deadlock lockdep's in-irq checks exist for. On top of that, the
   acquisition-order graph yields in-irq ordering inversions: an edge
   L → M where L is hardirq-acquired and M is irq-unsafe means the
   handler path can wait on M while a preempted flow holds it. *)

module Store = Lockdoc_db.Store
module Schema = Lockdoc_db.Schema
module Event = Lockdoc_trace.Event
module Srcloc = Lockdoc_trace.Srcloc
module Lockdep = Lockdoc_core.Lockdep
module Obs = Lockdoc_obs.Obs

let c_sightings = Obs.counter "sanitize.irq.sightings"
let c_unsafe = Obs.counter "sanitize.irq.unsafe"

type usage = {
  u_class : string;
  u_process : int;
  u_softirq : int;
  u_hardirq : int;
  u_irqs_on : int;
}

type unsafe = {
  iu_class : string;
  iu_irq_loc : Srcloc.t;  (** a hardirq-context acquisition *)
  iu_on_loc : Srcloc.t;  (** an irqs-enabled acquisition *)
}

type inversion = {
  inv_irq : string;  (** hardirq-acquired class *)
  inv_unsafe : string;  (** irq-unsafe class acquired after it *)
  inv_loc : Srcloc.t;
}

type report = {
  i_usage : usage list;  (** per non-pseudo class, sorted by name *)
  i_unsafe : unsafe list;
  i_inversions : inversion list;
}

type acc = {
  mutable a_process : int;
  mutable a_softirq : int;
  mutable a_hardirq : int;
  mutable a_irqs_on : int;
  mutable a_irq_loc : Srcloc.t option;
  mutable a_on_loc : Srcloc.t option;
}

let marker_of (lock : Schema.lock) =
  if lock.Schema.lk_kind = Event.Pseudo then Some lock.Schema.lk_name else None

let analyse store =
  let table : (string, acc) Hashtbl.t = Hashtbl.create 64 in
  let names = ref [] in
  let get cls =
    match Hashtbl.find_opt table cls with
    | Some a -> a
    | None ->
        let a =
          {
            a_process = 0; a_softirq = 0; a_hardirq = 0; a_irqs_on = 0;
            a_irq_loc = None; a_on_loc = None;
          }
        in
        Hashtbl.add table cls a;
        names := cls :: !names;
        a
  in
  (* Each lock's accumulator, found by class name once per lock. *)
  let classes = Lockdep.lock_classes store in
  let accs = Array.make (Array.length classes) None in
  let acc_of lk_id =
    match accs.(lk_id) with
    | Some a -> a
    | None ->
        let a = get (Lockdep.class_to_string classes.(lk_id)) in
        accs.(lk_id) <- Some a;
        a
  in
  let n = Store.n_txns store in
  for i = 0 to n - 1 do
    let txn = Store.txn store i in
    let in_hard = ref false and in_soft = ref false and irq_off = ref false in
    List.iter
      (fun (h : Schema.held) ->
        let lock = Store.lock store h.Schema.h_lock in
        match marker_of lock with
        | Some "hardirq" -> in_hard := true
        | Some "softirq" -> in_soft := true
        | Some "irqoff" -> irq_off := true
        | Some _ -> ()  (* bhoff masks softirqs only; irrelevant here *)
        | None ->
            Obs.incr c_sightings;
            let a = acc_of h.Schema.h_lock in
            if !in_hard then begin
              a.a_hardirq <- a.a_hardirq + 1;
              if a.a_irq_loc = None then a.a_irq_loc <- Some h.Schema.h_loc
            end
            else if !in_soft then a.a_softirq <- a.a_softirq + 1
            else a.a_process <- a.a_process + 1;
            if not (!in_hard || !in_soft || !irq_off) then begin
              a.a_irqs_on <- a.a_irqs_on + 1;
              if a.a_on_loc = None then a.a_on_loc <- Some h.Schema.h_loc
            end)
      txn.Schema.tx_locks
  done;
  let sorted = List.sort compare !names in
  let i_usage =
    List.map
      (fun cls ->
        let a = Hashtbl.find table cls in
        {
          u_class = cls;
          u_process = a.a_process;
          u_softirq = a.a_softirq;
          u_hardirq = a.a_hardirq;
          u_irqs_on = a.a_irqs_on;
        })
      sorted
  in
  let i_unsafe =
    List.filter_map
      (fun cls ->
        let a = Hashtbl.find table cls in
        match (a.a_irq_loc, a.a_on_loc) with
        | Some iu_irq_loc, Some iu_on_loc ->
            Some { iu_class = cls; iu_irq_loc; iu_on_loc }
        | _ -> None)
      sorted
  in
  Obs.add c_unsafe (List.length i_unsafe);
  let irq_acquired =
    List.filter_map
      (fun u -> if u.u_hardirq > 0 then Some u.u_class else None)
      i_usage
  in
  let unsafe_classes = List.map (fun u -> u.iu_class) i_unsafe in
  let i_inversions =
    let dep = Lockdep.analyse store in
    List.filter_map
      (fun (e : Lockdep.edge) ->
        let f = Lockdep.class_to_string e.Lockdep.e_from in
        let t = Lockdep.class_to_string e.Lockdep.e_to in
        if f <> t && List.mem f irq_acquired && List.mem t unsafe_classes then
          Some { inv_irq = f; inv_unsafe = t; inv_loc = e.Lockdep.e_example }
        else None)
      dep.Lockdep.edges
    |> List.sort_uniq compare
  in
  { i_usage; i_unsafe; i_inversions }

let render r =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "irq: %d lock class(es), %d irq-unsafe, %d inversion(s)\n"
       (List.length r.i_usage) (List.length r.i_unsafe)
       (List.length r.i_inversions));
  List.iter
    (fun u ->
      if u.u_hardirq > 0 || u.u_softirq > 0 then
        Buffer.add_string buf
          (Printf.sprintf
             "  %-36s process %d  softirq %d  hardirq %d  irqs-on %d\n"
             u.u_class u.u_process u.u_softirq u.u_hardirq u.u_irqs_on))
    r.i_usage;
  List.iter
    (fun iu ->
      Buffer.add_string buf
        (Printf.sprintf
           "  UNSAFE %s: acquired in hardirq at %s, with irqs on at %s\n"
           iu.iu_class
           (Srcloc.to_string iu.iu_irq_loc)
           (Srcloc.to_string iu.iu_on_loc)))
    r.i_unsafe;
  List.iter
    (fun inv ->
      Buffer.add_string buf
        (Printf.sprintf "  INVERSION %s -> %s at %s\n" inv.inv_irq
           inv.inv_unsafe
           (Srcloc.to_string inv.inv_loc)))
    r.i_inversions;
  Buffer.contents buf
