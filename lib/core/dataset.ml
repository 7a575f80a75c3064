module Schema = Lockdoc_db.Schema
module Store = Lockdoc_db.Store
module Event = Lockdoc_trace.Event
module Vec = Lockdoc_util.Vec

type key = string * string * Rule.access

type combo = { locks : Lockdesc.t list; mutable count : int }

(* Groups hold few distinct combinations (1.6 on average, 14 at most, on
   the seed-7 benchmark mix at scale 4), so a list beats a hash table
   in time and space. *)
type group = {
  g_id : int;  (* creation order: dense, for per-group side tables *)
  g_key : key;
  mutable g_combos : combo list;
  mutable g_stamp : int;  (* moves with the multiset *)
  mutable g_touched : int;  (* moves with any of the group's cells *)
  mutable g_dirty : bool;  (* on [t.dirty] *)
}

type obs = {
  mutable o_group : group;  (* its key holds the member and access kind *)
  o_alloc : int;
  o_locks : Lockdesc.t list;
  o_first : int;
  mutable o_events : int;
}

type t = {
  store : Store.t;
  wor : bool;
  side_sensitive : bool;
  by_txn : obs list Vec.t;
      (* transaction id -> its cells, keyed (allocation, member) within;
         lock-free accesses are singletons, never looked up again *)
  types : (string, string * obs list ref) Hashtbl.t;
      (* type key -> (the key, shared by its cells; the cells, newest
         first = reversed first-access order) *)
  groups : (key, group) Hashtbl.t;
  mutable dirty : group list;  (* touched since the last [take_dirty] *)
  mutable order : (key * group) list;  (* the non-empty groups, sorted *)
  mutable order_stale : bool;  (* a group appeared or emptied since *)
  mutable flips : int;
}

let store t = t.store
let flips t = t.flips

(* Reader-side acquisitions are marked by decorating the descriptor name
   with "[r]" when side sensitivity is on — an extension over the paper's
   model, which treats reader and writer acquisitions of rwlocks/rwsems
   as the same lock (Sec. 2.2 lists the variants; Sec. 8 leaves richer
   models to future work). *)
let decorate_shared desc =
  match desc with
  | Lockdesc.Global name -> Lockdesc.Global (name ^ "[r]")
  | Lockdesc.Es member -> Lockdesc.Es (member ^ "[r]")
  | Lockdesc.Eo (member, ty) -> Lockdesc.Eo (member ^ "[r]", ty)

let locks_of_txn ?(side_sensitive = false) store ~accessed_alloc txn_id =
  let txn = Store.txn store txn_id in
  List.map
    (fun held ->
      let desc =
        Lockdesc.classify ~store ~accessed_alloc
          (Store.lock store held.Schema.h_lock)
      in
      if side_sensitive && held.Schema.h_side = Event.Shared then
        decorate_shared desc
      else desc)
    txn.Schema.tx_locks

let create ?(wor = true) ?(side_sensitive = false) store =
  {
    store;
    wor;
    side_sensitive;
    by_txn = Vec.create ();
    types = Hashtbl.create 32;
    groups = Hashtbl.create 64;
    dirty = [];
    order = [];
    order_stale = false;
    flips = 0;
  }

let group_of t key =
  match Hashtbl.find_opt t.groups key with
  | Some g -> g
  | None ->
      let g =
        { g_id = Hashtbl.length t.groups; g_key = key; g_combos = [];
          g_stamp = 0; g_touched = 0; g_dirty = false }
      in
      Hashtbl.replace t.groups key g;
      g

let touch t g =
  g.g_touched <- g.g_touched + 1;
  if not g.g_dirty then begin
    g.g_dirty <- true;
    t.dirty <- g :: t.dirty
  end

(* The only two mutators of a multiset. A combination whose count drops
   to 0 leaves the list: its subsequences must stop being candidates.
   [group_add] returns the group's copy of the lock list, so the cells
   of one combination share a single list. A group that gains its first
   combination or loses its last one changes the canonical order. *)
let group_add t g locks =
  touch t g;
  g.g_stamp <- g.g_stamp + 1;
  match List.find_opt (fun c -> c.locks = locks) g.g_combos with
  | Some c ->
      c.count <- c.count + 1;
      c.locks
  | None ->
      if g.g_combos = [] then t.order_stale <- true;
      g.g_combos <- { locks; count = 1 } :: g.g_combos;
      locks

let group_remove t g locks =
  (match List.find_opt (fun c -> c.locks = locks) g.g_combos with
  | Some c when c.count = 1 ->
      g.g_combos <- List.filter (( != ) c) g.g_combos;
      if g.g_combos = [] then t.order_stale <- true
  | Some c -> c.count <- c.count - 1
  | None -> invalid_arg "Dataset.group_remove: combination not in group");
  touch t g;
  g.g_stamp <- g.g_stamp + 1

let absorb t (a : Schema.access) =
  let alloc = a.Schema.ac_alloc and member = a.Schema.ac_member in
  let kind =
    match a.Schema.ac_kind with Event.Read -> Rule.R | Event.Write -> Rule.W
  in
  let existing =
    match a.Schema.ac_txn with
    | Some txn when txn < Vec.length t.by_txn ->
        List.find_opt
          (fun o ->
            o.o_alloc = alloc
            &&
            let _, m, _ = o.o_group.g_key in
            String.equal m member)
          (Vec.get t.by_txn txn)
    | _ -> None
  in
  match existing with
  | Some o ->
      o.o_events <- o.o_events + 1;
      (* Write-over-read: one write makes the observation a write. The
         cell moves between groups; its place in the type key's
         first-access order stays. With [wor] off (ablation) the first
         access kind sticks. *)
      let ty, _, o_kind = o.o_group.g_key in
      if t.wor && o_kind = Rule.R && kind = Rule.W then begin
        t.flips <- t.flips + 1;
        group_remove t o.o_group o.o_locks;
        let w = group_of t (ty, member, Rule.W) in
        ignore (group_add t w o.o_locks);
        o.o_group <- w
      end
      else touch t o.o_group
  | None ->
      let al = Store.allocation t.store alloc in
      let ty, cells =
        let key = Schema.type_key (Store.data_type t.store al.Schema.al_type) al in
        match Hashtbl.find_opt t.types key with
        | Some entry -> entry
        | None ->
            let entry = (key, ref []) in
            Hashtbl.replace t.types key entry;
            entry
      in
      let locks =
        match a.Schema.ac_txn with
        | Some txn ->
            locks_of_txn ~side_sensitive:t.side_sensitive t.store
              ~accessed_alloc:alloc txn
        | None -> []
      in
      let g = group_of t (ty, member, kind) in
      let locks = group_add t g locks in
      let o =
        {
          o_group = g;
          o_alloc = alloc;
          o_locks = locks;
          o_first = a.Schema.ac_id;
          o_events = 1;
        }
      in
      Option.iter
        (fun txn ->
          while Vec.length t.by_txn <= txn do
            ignore (Vec.push t.by_txn [])
          done;
          Vec.set t.by_txn txn (o :: Vec.get t.by_txn txn))
        a.Schema.ac_txn;
      cells := o :: !cells

let of_store ?wor ?side_sensitive store =
  let t = create ?wor ?side_sensitive store in
  for i = 0 to Store.n_accesses store - 1 do
    absorb t (Store.access store i)
  done;
  t

let type_keys t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.types [] |> List.sort String.compare

let cells t key =
  match Hashtbl.find_opt t.types key with Some (_, l) -> !l | None -> []

let observations t key = List.rev (cells t key)
let observations_rev = cells

let by_member t key ~member ~kind =
  List.fold_left
    (fun acc o ->
      let _, m, k = o.o_group.g_key in
      if m = member && k = kind then o :: acc else acc)
    [] (cells t key)

let combos g = List.map (fun c -> (c.locks, c.count)) g.g_combos
let stamp g = g.g_stamp
let touched g = g.g_touched
let key g = g.g_key
let id g = g.g_id

let take_dirty t =
  let dirty = t.dirty in
  t.dirty <- [];
  List.filter
    (fun g ->
      g.g_dirty <- false;
      g.g_combos <> [])
    dirty

(* Keys ascending: type key, member, then R before W — what polymorphic
   compare gives on [key], without its generic traversal. *)
let compare_key (t1, m1, k1) (t2, m2, k2) =
  match String.compare t1 t2 with
  | 0 -> (
      match String.compare m1 m2 with
      | 0 -> compare (k1 : Rule.access) k2
      | c -> c)
  | c -> c

let groups t =
  if t.order_stale then begin
    t.order <-
      Hashtbl.fold
        (fun key g acc -> if g.g_combos <> [] then (key, g) :: acc else acc)
        t.groups []
      |> List.sort (fun (a, _) (b, _) -> compare_key a b);
    t.order_stale <- false
  end;
  t.order

let find_group t key = Hashtbl.find_opt t.groups key

let combos_of t key =
  match find_group t key with Some g -> combos g | None -> []

let merged t base =
  let prefix = base ^ ":" in
  let matches ty =
    ty = base
    || String.length ty > String.length prefix
       && String.sub ty 0 (String.length prefix) = prefix
  in
  (* Concatenation is a multiset union: the scorer sums the counts of
     every complying entry, so a combination listed once per subclass
     scores the same as one entry with the summed count. *)
  let merged = Hashtbl.create 16 in
  List.iter
    (fun ((ty, member, kind), g) ->
      if matches ty then
        let prev = Option.value ~default:[] (Hashtbl.find_opt merged (member, kind)) in
        Hashtbl.replace merged (member, kind) (combos g @ prev))
    (groups t);
  Hashtbl.fold (fun mk c acc -> (mk, c) :: acc) merged []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
