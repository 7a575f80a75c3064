module Event = Lockdoc_trace.Event
module Skeleton = Lockdoc_ksim.Skeleton
module Lockdep = Lockdoc_core.Lockdep

type slock = Sg of string | Sm of { ty : string; var : string; member : string }

let slock_to_string = function
  | Sg n -> n
  | Sm { ty; var; member } -> Printf.sprintf "%s(%s).%s" ty var member

type held = { h_lock : slock; h_kind : Event.lock_kind; h_side : Event.lock_side }

let held_to_string h =
  let side = match h.h_side with Event.Shared -> ":r" | Event.Exclusive -> "" in
  slock_to_string h.h_lock ^ side

let class_of_slock = function
  | Sg n -> Lockdep.Static n
  | Sm { ty; member; _ } -> Lockdep.Member (ty, member)

type site = {
  st_fn : string;
  st_subsystem : string;
  st_ty : string;
  st_var : string;
  st_member : string;
  st_kind : Event.access_kind;
  st_must : held list;
  st_may : held list;
}

type acq = {
  aq_fn : string;
  aq_subsystem : string;
  aq_class : Lockdep.lock_class;
  aq_kind : Event.lock_kind;
  aq_side : Event.lock_side;
  aq_must : held list;
  aq_may : held list;
}

type sedge = {
  sd_from : Lockdep.lock_class;
  sd_to : Lockdep.lock_class;
  sd_count : int;
  sd_fns : string list;
}

type irq_finding = {
  iq_class : Lockdep.lock_class;
  iq_fn : string;
  iq_irq_fn : string;
  iq_witness : string list;
}

type sleep_finding = {
  sl_fn : string;
  sl_what : string;
  sl_held : held list;
  sl_must : bool;
}

type t = {
  functions : int;
  wild_functions : int;
  ir_nodes : int;
  roots : string list;
  effect_rounds : int;
  entry_rounds : int;
  sites : site list;
  acquires : acq list;
  edges : sedge list;
  self_edges : sedge list;
  cycles : Lockdep.lock_class list list;
  irq_unsafe : irq_finding list;
  sleeps : sleep_finding list;
  entries : (string * held list) list;
  witnesses : (string * string list) list;
}

(* ---- variable plumbing --------------------------------------------- *)

let slock_of_ref = function
  | Skeleton.Sglobal n -> Sg n
  | Skeleton.Smember { ty; var; member } -> Sm { ty; var; member }

let map_slock f = function
  | Sg n -> Sg n
  | Sm { ty; var; member } -> Sm { ty; var = f var; member }

let map_held f h = { h with h_lock = map_slock f h.h_lock }

(* Inverse of {!Skeleton.bind_var}: rewrite a callee variable back into
   the caller's namespace when a callee's lock effect is applied at a
   call site. Callee-local objects the caller cannot name stay distinct
   under a "^" prefix. *)
let unbind_var binds v =
  let rec go = function
    | [] -> "^" ^ v
    | (src, dst) :: rest ->
        if v = dst then src
        else
          let p = dst ^ "." in
          let lp = String.length p in
          if String.length v > lp && String.sub v 0 lp = p then
            src ^ "." ^ String.sub v lp (String.length v - lp)
          else go rest
  in
  go binds

(* ---- ordered-multiset lattice ops ---------------------------------- *)

let rec remove_first x = function
  | [] -> []
  | h :: t -> if h = x then t else h :: remove_first x t

(* Elements of [a] that also occur in [b], in [a]'s order. *)
let inter a b =
  let avail = ref b in
  List.filter
    (fun h ->
      if List.mem h !avail then begin
        avail := remove_first h !avail;
        true
      end
      else false)
    a

let union a b = a @ List.filter (fun h -> not (List.mem h a)) b

(* Drop the innermost (last-acquired) held entry for lock [x]; unchanged
   if [x] is not held — releases are resolved innermost-first, like the
   runtime's per-flow lock stack. *)
let release_held x held =
  let rec go = function
    | [] -> None
    | h :: t -> (
        match go t with
        | Some t' -> Some (h :: t')
        | None -> if h.h_lock = x then Some t else None)
  in
  match go held with Some l -> l | None -> held

(* ---- abstract state -------------------------------------------------

   The per-function walk is entry-independent: the state is a {e delta}
   against the (unknown) entry lockset — locks released out of it and
   locks acquired on top of it. A concrete lockset is materialised from
   a known entry with {!concrete}. The same state doubles as the
   function's net lock-effect summary. *)

type eff = { e_rel : slock list; e_add : held list }

let e0 = { e_rel = []; e_add = [] }

type mode = Must | May

let join_eff mode a b =
  match mode with
  | Must -> { e_rel = union a.e_rel b.e_rel; e_add = inter a.e_add b.e_add }
  | May -> { e_rel = inter a.e_rel b.e_rel; e_add = union a.e_add b.e_add }

let acquire_eff h st = { st with e_add = st.e_add @ [ h ] }

let release_eff x st =
  if List.exists (fun h -> h.h_lock = x) st.e_add then
    { st with e_add = release_held x st.e_add }
  else if List.mem x st.e_rel then st
  else { st with e_rel = st.e_rel @ [ x ] }

let apply_callee_eff binds callee st =
  let ub = unbind_var binds in
  let st =
    List.fold_left (fun st r -> release_eff (map_slock ub r) st) st callee.e_rel
  in
  List.fold_left (fun st a -> acquire_eff (map_held ub a) st) st callee.e_add

let concrete entry eff =
  List.fold_left (fun held r -> release_held r held) entry eff.e_rel
  @ eff.e_add

let irqoff = { h_lock = Sg "irqoff"; h_kind = Event.Pseudo; h_side = Event.Exclusive }
let bhoff = { h_lock = Sg "bhoff"; h_kind = Event.Pseudo; h_side = Event.Exclusive }

(* ---- the walker ------------------------------------------------------

   One pass over a skeleton body. [emit], when given, is called at every
   analysis-relevant leaf with the state {e before} the leaf's own
   effect. Loop bodies reach a fixpoint with emission disabled first,
   then are walked once more from the loop invariant so every leaf is
   reported exactly once, with its invariant state. *)

let rec walk mode effects emit st (node : Skeleton.node) =
  let emit_leaf n s = match emit with Some f -> f n s | None -> () in
  match node with
  | Skeleton.Nop -> st
  | Skeleton.Blocks ->
      emit_leaf node st;
      st
  | Skeleton.Seq ns -> List.fold_left (fun s n -> walk mode effects emit s n) st ns
  | Skeleton.Alt [] -> st
  | Skeleton.Alt (n :: rest) ->
      List.fold_left
        (fun acc n -> join_eff mode acc (walk mode effects emit st n))
        (walk mode effects emit st n)
        rest
  | Skeleton.Opt n -> join_eff mode st (walk mode effects emit st n)
  | Skeleton.Star n | Skeleton.Plus n ->
      let rec fix x =
        let x' = join_eff mode x (walk mode effects None x n) in
        if x' = x then x else fix x'
      in
      let inv = fix st in
      (match emit with
      | Some _ -> ignore (walk mode effects emit inv n)
      | None -> ());
      inv
  | Skeleton.Acquire { lock; kind; side } ->
      emit_leaf node st;
      acquire_eff { h_lock = slock_of_ref lock; h_kind = kind; h_side = side } st
  | Skeleton.Release lock -> release_eff (slock_of_ref lock) st
  | Skeleton.Access _ ->
      emit_leaf node st;
      st
  | Skeleton.Irq_off ->
      emit_leaf node st;
      acquire_eff irqoff st
  | Skeleton.Irq_on -> release_eff irqoff.h_lock st
  | Skeleton.Bh_off ->
      emit_leaf node st;
      acquire_eff bhoff st
  | Skeleton.Bh_on -> release_eff bhoff.h_lock st
  | Skeleton.Call { callees; binds } ->
      emit_leaf node st;
      let effs = List.map effects callees in
      let combined =
        match effs with
        | [] -> e0
        | e :: rest -> List.fold_left (join_eff mode) e rest
      in
      apply_callee_eff binds combined st

(* ---- fixpoint 1: net lock-effect summaries -------------------------- *)

let max_rounds = 1000

let compute_effects mode bodies =
  let tbl : (string, eff) Hashtbl.t = Hashtbl.create 256 in
  let get name = Option.value ~default:e0 (Hashtbl.find_opt tbl name) in
  let rounds = ref 0 in
  let changed = ref true in
  while !changed do
    incr rounds;
    if !rounds > max_rounds then failwith "Summary: effect fixpoint diverges";
    let results =
      List.map (fun (name, b) -> (name, walk mode get None e0 b)) bodies
    in
    changed := false;
    List.iter
      (fun (name, e) ->
        if get name <> e then begin
          Hashtbl.replace tbl name e;
          changed := true
        end)
      results
  done;
  (get, !rounds)

(* ---- per-function leaf records --------------------------------------

   With both effect tables closed, each body is walked once per mode
   with emission on. The two traversals visit leaves in the same order,
   so the records zip positionally. *)

type leafrec = { lr_node : Skeleton.node; lr_must : eff; lr_may : eff }

let leaf_records must_eff may_eff bodies =
  List.map
    (fun (name, b) ->
      let collect mode effects =
        let acc = ref [] in
        ignore (walk mode effects (Some (fun n s -> acc := (n, s) :: !acc)) e0 b);
        List.rev !acc
      in
      let must = collect Must must_eff and may = collect May may_eff in
      ( name,
        List.map2
          (fun (n, m) (_, y) -> { lr_node = n; lr_must = m; lr_may = y })
          must may ))
    bodies

(* ---- fixpoint 2: entry locksets -------------------------------------

   entry(f) = meet over every call site of f in an analysed caller, of
   the caller's lockset at that site mapped through the call's binds.
   Roots are pinned to the empty lockset (they are invoked directly by
   workload drivers); functions never reached keep the empty lockset. *)

let compute_entries mode fns records =
  let entry : (string, held list) Hashtbl.t = Hashtbl.create 256 in
  let roots = Hashtbl.create 64 in
  List.iter
    (fun (f : Skeleton.fn) ->
      if f.Skeleton.sk_root then begin
        Hashtbl.replace roots f.Skeleton.sk_name ();
        Hashtbl.replace entry f.Skeleton.sk_name []
      end)
    fns;
  let rounds = ref 0 in
  let changed = ref true in
  while !changed do
    incr rounds;
    if !rounds > max_rounds then failwith "Summary: entry fixpoint diverges";
    let contribs =
      List.map
        (fun (name, leafs) ->
          match Hashtbl.find_opt entry name with
          | None -> []
          | Some e ->
              List.concat_map
                (fun lr ->
                  match lr.lr_node with
                  | Skeleton.Call { callees; binds } ->
                      let st =
                        match mode with Must -> lr.lr_must | May -> lr.lr_may
                      in
                      let mapped =
                        List.map
                          (map_held (Skeleton.bind_var binds))
                          (concrete e st)
                      in
                      List.map (fun c -> (c, mapped)) callees
                  | _ -> [])
                leafs)
        records
      |> List.concat
    in
    let by_callee : (string, held list list) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun (c, h) ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt by_callee c) in
        Hashtbl.replace by_callee c (h :: prev))
      contribs;
    changed := false;
    Hashtbl.iter
      (fun c rev_hs ->
        (* A root is also invoked directly with nothing held: that
           direct invocation is the meet identity under Must (pinning
           the entry to the empty lockset) and the join identity under
           May (the union over call sites still applies). *)
        if not (mode = Must && Hashtbl.mem roots c) then
          let contribs = List.rev rev_hs in
          let contribs =
            if Hashtbl.mem roots c then [] :: contribs else contribs
          in
          match contribs with
          | [] -> ()
          | first :: rest ->
              let v =
                List.fold_left
                  (fun acc h ->
                    match mode with
                    | Must -> inter acc h
                    | May -> union acc h)
                  first rest
              in
              if Hashtbl.find_opt entry c <> Some v then begin
                Hashtbl.replace entry c v;
                changed := true
              end)
      by_callee
  done;
  let get name = Option.value ~default:[] (Hashtbl.find_opt entry name) in
  (get, !rounds)

(* ---- call graph, witnesses, context closures ------------------------ *)

let callees_of leafs =
  List.concat_map
    (fun lr ->
      match lr.lr_node with
      | Skeleton.Call { callees; _ } -> callees
      | _ -> [])
    leafs

let bfs_closure records seeds =
  let callmap = Hashtbl.create 256 in
  List.iter (fun (name, leafs) -> Hashtbl.replace callmap name (callees_of leafs)) records;
  let seen = Hashtbl.create 256 in
  let q = Queue.create () in
  List.iter
    (fun s ->
      if not (Hashtbl.mem seen s) then begin
        Hashtbl.replace seen s ();
        Queue.add s q
      end)
    seeds;
  while not (Queue.is_empty q) do
    let n = Queue.pop q in
    List.iter
      (fun c ->
        if not (Hashtbl.mem seen c) then begin
          Hashtbl.replace seen c ();
          Queue.add c q
        end)
      (Option.value ~default:[] (Hashtbl.find_opt callmap n))
  done;
  seen

let compute_witnesses records roots =
  let callmap = Hashtbl.create 256 in
  List.iter (fun (name, leafs) -> Hashtbl.replace callmap name (callees_of leafs)) records;
  let parent : (string, string option) Hashtbl.t = Hashtbl.create 256 in
  let q = Queue.create () in
  List.iter
    (fun r ->
      if not (Hashtbl.mem parent r) then begin
        Hashtbl.replace parent r None;
        Queue.add r q
      end)
    roots;
  while not (Queue.is_empty q) do
    let n = Queue.pop q in
    List.iter
      (fun c ->
        if not (Hashtbl.mem parent c) then begin
          Hashtbl.replace parent c (Some n);
          Queue.add c q
        end)
      (Option.value ~default:[] (Hashtbl.find_opt callmap n))
  done;
  let path fn =
    let rec up acc n =
      match Hashtbl.find_opt parent n with
      | Some (Some p) -> up (n :: acc) p
      | Some None -> n :: acc
      | None -> n :: acc
    in
    up [] fn
  in
  path

(* ---- cycles ---------------------------------------------------------- *)

let cycle_key cycle =
  let names c = List.map Lockdep.class_to_string (Lockdep.canonicalise c) in
  min (names cycle) (names (List.rev cycle))

let find_cycles classes edges =
  let adj c =
    List.filter_map
      (fun e -> if e.sd_from = c && e.sd_to <> c then Some e.sd_to else None)
      edges
  in
  let key = Lockdep.class_to_string in
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let rec dfs anchor path node =
    List.iter
      (fun next ->
        if next = anchor then begin
          let cycle = List.rev (node :: path) in
          let k = cycle_key cycle in
          if not (Hashtbl.mem seen k) then begin
            Hashtbl.replace seen k ();
            out := cycle :: !out
          end
        end
        else if
          (not (List.mem next (node :: path))) && key next > key anchor
        then dfs anchor (node :: path) next)
      (adj node)
  in
  List.iter (fun c -> dfs c [] c) classes;
  List.map Lockdep.canonicalise !out
  |> List.sort (fun a b ->
         compare (List.map key a) (List.map key b))

(* ---- driver ---------------------------------------------------------- *)

let blocking_kind = function
  | Event.Mutex | Event.Semaphore | Event.Rwsem -> true
  | _ -> false

let atomic_held h =
  match h.h_kind with
  | Event.Spinlock | Event.Rwlock | Event.Rcu -> true
  | Event.Seqlock -> h.h_side = Event.Exclusive
  | Event.Pseudo -> ( match h.h_lock with Sg ("irqoff" | "bhoff") -> true | _ -> false)
  | Event.Mutex | Event.Semaphore | Event.Rwsem -> false

let masked held =
  List.exists
    (fun h -> h.h_lock = Sg "irqoff" || h.h_lock = Sg "bhoff")
    held

let analyse () =
  let fns = Skeleton.all () in
  let bodies =
    List.filter_map
      (fun (f : Skeleton.fn) ->
        match f.Skeleton.sk_body with
        | Skeleton.Wild -> None
        | Skeleton.Body b -> Some (f.Skeleton.sk_name, b))
      fns
  in
  let fn_info = Hashtbl.create 256 in
  List.iter (fun (f : Skeleton.fn) -> Hashtbl.replace fn_info f.Skeleton.sk_name f) fns;
  let must_eff, er1 = compute_effects Must bodies in
  let may_eff, er2 = compute_effects May bodies in
  let records = leaf_records must_eff may_eff bodies in
  let must_entry, nr1 = compute_entries Must fns records in
  let may_entry, nr2 = compute_entries May fns records in
  let roots =
    List.filter_map
      (fun (f : Skeleton.fn) ->
        if f.Skeleton.sk_root then Some f.Skeleton.sk_name else None)
      fns
  in
  let witness_path = compute_witnesses records roots in
  (* Per-function leaf materialisation. *)
  let materialised =
    List.map
      (fun (name, leafs) ->
        let f = Hashtbl.find fn_info name in
        let e_must = must_entry name and e_may = may_entry name in
        let sites = ref [] and acqs = ref [] and sleeps = ref [] in
        List.iter
          (fun lr ->
            let must = concrete e_must lr.lr_must
            and may = concrete e_may lr.lr_may in
            match lr.lr_node with
            | Skeleton.Access { ty; var; member; kind } ->
                sites :=
                  {
                    st_fn = name;
                    st_subsystem = f.Skeleton.sk_subsystem;
                    st_ty = ty;
                    st_var = var;
                    st_member = member;
                    st_kind = kind;
                    st_must = must;
                    st_may = may;
                  }
                  :: !sites
            | Skeleton.Acquire { lock; kind; side } ->
                let sl = slock_of_ref lock in
                acqs :=
                  {
                    aq_fn = name;
                    aq_subsystem = f.Skeleton.sk_subsystem;
                    aq_class = class_of_slock sl;
                    aq_kind = kind;
                    aq_side = side;
                    aq_must = must;
                    aq_may = may;
                  }
                  :: !acqs;
                if blocking_kind kind then begin
                  let what =
                    Printf.sprintf "%s %s"
                      (Event.lock_kind_to_string kind)
                      (slock_to_string sl)
                  in
                  let atom_must = List.filter atomic_held must
                  and atom_may = List.filter atomic_held may in
                  if atom_must <> [] then
                    sleeps :=
                      { sl_fn = name; sl_what = what; sl_held = atom_must; sl_must = true }
                      :: !sleeps
                  else if atom_may <> [] then
                    sleeps :=
                      { sl_fn = name; sl_what = what; sl_held = atom_may; sl_must = false }
                      :: !sleeps
                end
            | Skeleton.Irq_off ->
                acqs :=
                  {
                    aq_fn = name;
                    aq_subsystem = f.Skeleton.sk_subsystem;
                    aq_class = Lockdep.Static "irqoff";
                    aq_kind = Event.Pseudo;
                    aq_side = Event.Exclusive;
                    aq_must = must;
                    aq_may = may;
                  }
                  :: !acqs
            | Skeleton.Bh_off ->
                acqs :=
                  {
                    aq_fn = name;
                    aq_subsystem = f.Skeleton.sk_subsystem;
                    aq_class = Lockdep.Static "bhoff";
                    aq_kind = Event.Pseudo;
                    aq_side = Event.Exclusive;
                    aq_must = must;
                    aq_may = may;
                  }
                  :: !acqs
            | Skeleton.Blocks ->
                let atom_must = List.filter atomic_held must
                and atom_may = List.filter atomic_held may in
                if atom_must <> [] then
                  sleeps :=
                    { sl_fn = name; sl_what = "wait"; sl_held = atom_must; sl_must = true }
                    :: !sleeps
                else if atom_may <> [] then
                  sleeps :=
                    { sl_fn = name; sl_what = "wait"; sl_held = atom_may; sl_must = false }
                    :: !sleeps
            | _ -> ())
          leafs;
        (List.rev !sites, List.rev !acqs, List.rev !sleeps))
      records
  in
  let sites = List.concat_map (fun (s, _, _) -> s) materialised in
  let acquires = List.concat_map (fun (_, a, _) -> a) materialised in
  let sleeps = List.concat_map (fun (_, _, s) -> s) materialised in
  (* Acquisition-order graph from may-held sets. *)
  let edge_tbl : (string * string, Lockdep.lock_class * Lockdep.lock_class * int * string list)
      Hashtbl.t =
    Hashtbl.create 128
  in
  List.iter
    (fun a ->
      List.iter
        (fun h ->
          let from_c = class_of_slock h.h_lock in
          let k =
            (Lockdep.class_to_string from_c, Lockdep.class_to_string a.aq_class)
          in
          match Hashtbl.find_opt edge_tbl k with
          | Some (f, t, n, fns') ->
              Hashtbl.replace edge_tbl k (f, t, n + 1, a.aq_fn :: fns')
          | None -> Hashtbl.replace edge_tbl k (from_c, a.aq_class, 1, [ a.aq_fn ]))
        a.aq_may)
    acquires;
  let all_edges =
    Hashtbl.fold
      (fun _ (f, t, n, fns') acc ->
        { sd_from = f; sd_to = t; sd_count = n; sd_fns = List.sort_uniq compare fns' }
        :: acc)
      edge_tbl []
    |> List.sort (fun a b ->
           compare
             (Lockdep.class_to_string a.sd_from, Lockdep.class_to_string a.sd_to)
             (Lockdep.class_to_string b.sd_from, Lockdep.class_to_string b.sd_to))
  in
  let self_edges, edges = List.partition (fun e -> e.sd_from = e.sd_to) all_edges in
  let classes =
    List.concat_map (fun e -> [ e.sd_from; e.sd_to ]) edges
    |> List.sort_uniq compare
  in
  let cycles = find_cycles classes edges in
  (* irq-safety: classes also taken in irq context must be acquired with
     interrupts masked in process context. *)
  let irq_fns =
    List.filter_map
      (fun (f : Skeleton.fn) ->
        if f.Skeleton.sk_irq then Some f.Skeleton.sk_name else None)
      fns
  in
  let irq_closure = bfs_closure records irq_fns in
  let proc_roots =
    List.filter
      (fun r ->
        match Hashtbl.find_opt fn_info r with
        | Some f -> not f.Skeleton.sk_irq
        | None -> false)
      roots
  in
  let proc_closure = bfs_closure records proc_roots in
  let irq_class_takers =
    List.filter_map
      (fun a ->
        if a.aq_kind <> Event.Pseudo && Hashtbl.mem irq_closure a.aq_fn then
          Some (a.aq_class, a.aq_fn)
        else None)
      acquires
    |> List.sort_uniq compare
  in
  let irq_unsafe =
    List.filter_map
      (fun a ->
        let in_irq =
          match Hashtbl.find_opt fn_info a.aq_fn with
          | Some f -> f.Skeleton.sk_irq
          | None -> false
        in
        if
          a.aq_kind <> Event.Pseudo && (not in_irq)
          && Hashtbl.mem proc_closure a.aq_fn
          && (not (masked a.aq_must))
        then
          match List.find_opt (fun (c, _) -> c = a.aq_class) irq_class_takers with
          | Some (_, irq_fn) when irq_fn <> a.aq_fn ->
              Some
                {
                  iq_class = a.aq_class;
                  iq_fn = a.aq_fn;
                  iq_irq_fn = irq_fn;
                  iq_witness = witness_path a.aq_fn;
                }
          | _ -> None
        else None)
      acquires
    |> List.sort_uniq compare
  in
  {
    functions = List.length bodies;
    wild_functions = List.length fns - List.length bodies;
    ir_nodes = List.fold_left (fun acc f -> acc + Skeleton.node_count f) 0 fns;
    roots;
    effect_rounds = er1 + er2;
    entry_rounds = nr1 + nr2;
    sites;
    acquires;
    edges;
    self_edges;
    cycles;
    irq_unsafe;
    sleeps;
    entries = List.map (fun (name, _) -> (name, must_entry name)) records;
    witnesses = List.map (fun (name, _) -> (name, witness_path name)) records;
  }

let witness t fn =
  match List.assoc_opt fn t.witnesses with Some p -> p | None -> [ fn ]
