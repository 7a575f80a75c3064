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
  g_pair : pair;  (* its (type key, member)'s groups, for flips *)
  mutable g_combos : combo list;
  mutable g_stamp : int;  (* moves with the multiset *)
  mutable g_touched : int;  (* moves with any of the group's cells *)
  mutable g_dirty : bool;  (* on [t.dirty] *)
}

(* The read and write groups of one (type key, member), once they
   exist. [p_slot] is the member's slot in its data type's layout. *)
and pair = {
  p_slot : int;
  p_member : string;
  mutable p_read : group option;
  mutable p_write : group option;
}

type obs = {
  mutable o_group : group;  (* its key holds the member and access kind *)
  o_alloc : int;
  o_locks : Lockdesc.t list;
  o_first : int;
  mutable o_events : int;
}

(* One type key's observations and groups. *)
type entry = {
  e_key : string;  (* shared by the key of every group below *)
  mutable e_cells : obs list;  (* newest first = reversed first-access order *)
  mutable e_pairs : pair array;  (* by member slot; [no_pair] for none yet *)
}

let no_pair = { p_slot = -1; p_member = ""; p_read = None; p_write = None }

type t = {
  store : Store.t;
  wor : bool;
  side_sensitive : bool;
  by_txn : obs list Vec.t;
      (* transaction id -> its cells, keyed (allocation, member slot)
         within; lock-free accesses are singletons, never looked up
         again *)
  by_key_id : entry option Vec.t;
      (* the store's type key id -> its entry, once observed *)
  types : (string, entry) Hashtbl.t;  (* the same entries, by type key *)
  all_groups : group Vec.t;  (* by id *)
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

let rec classify_held side_sensitive store accessed_alloc = function
  | [] -> []
  | (held : Schema.held) :: rest ->
      let desc =
        Lockdesc.classify ~store ~accessed_alloc
          (Store.lock store held.Schema.h_lock)
      in
      let desc =
        if side_sensitive && held.Schema.h_side = Event.Shared then
          decorate_shared desc
        else desc
      in
      desc :: classify_held side_sensitive store accessed_alloc rest

let locks_of_txn ?(side_sensitive = false) store ~accessed_alloc txn_id =
  classify_held side_sensitive store accessed_alloc
    (Store.txn store txn_id).Schema.tx_locks

let create ?(wor = true) ?(side_sensitive = false) store =
  {
    store;
    wor;
    side_sensitive;
    by_txn = Vec.create ();
    by_key_id = Vec.create ();
    types = Hashtbl.create 32;
    all_groups = Vec.create ();
    dirty = [];
    order = [];
    order_stale = false;
    flips = 0;
  }

(* The entry of a store type key id, made at its first observation. *)
let entry_of t k =
  while Vec.length t.by_key_id <= k do
    ignore (Vec.push t.by_key_id None)
  done;
  match Vec.get t.by_key_id k with
  | Some e -> e
  | None ->
      let key = Store.type_key_name t.store k in
      let e =
        { e_key = key; e_cells = []; e_pairs = [||] }
      in
      Hashtbl.replace t.types key e;
      Vec.set t.by_key_id k (Some e);
      e

(* The pair of member [slot] of [alloc]'s type in [e], made on first
   use. *)
let pair_of t e alloc slot =
  let n = Array.length e.e_pairs in
  if slot >= n then begin
    let pairs = Array.make (max (slot + 1) (2 * n)) no_pair in
    Array.blit e.e_pairs 0 pairs 0 n;
    e.e_pairs <- pairs
  end;
  let p = e.e_pairs.(slot) in
  if p != no_pair then p
  else
    let ty = (Store.allocation t.store alloc).Schema.al_type in
    let member = Store.slot_name t.store ~ty slot in
    let p = { p_slot = slot; p_member = member; p_read = None; p_write = None } in
    e.e_pairs.(slot) <- p;
    p

(* The group of [kind] in [pair], made on first use. *)
let group_of t pair ty kind =
  match (match kind with Rule.R -> pair.p_read | Rule.W -> pair.p_write) with
  | Some g -> g
  | None ->
      let g =
        { g_id = Vec.length t.all_groups; g_key = (ty, pair.p_member, kind);
          g_pair = pair; g_combos = []; g_stamp = 0; g_touched = 0;
          g_dirty = false }
      in
      ignore (Vec.push t.all_groups g);
      (match kind with
      | Rule.R -> pair.p_read <- Some g
      | Rule.W -> pair.p_write <- Some g);
      g

let touch t g =
  g.g_touched <- g.g_touched + 1;
  if not g.g_dirty then begin
    g.g_dirty <- true;
    t.dirty <- g :: t.dirty
  end

let rec find_combo locks = function
  | [] -> raise Not_found
  | c :: rest ->
      if c.locks == locks || List.equal Lockdesc.equal c.locks locks then c
      else find_combo locks rest

(* The only two mutators of a multiset. A combination whose count drops
   to 0 leaves the list: its subsequences must stop being candidates.
   [group_add] returns the group's copy of the lock list, so the cells
   of one combination share a single list. A group that gains its first
   combination or loses its last one changes the canonical order. *)
let group_add t g locks =
  touch t g;
  g.g_stamp <- g.g_stamp + 1;
  match find_combo locks g.g_combos with
  | c ->
      c.count <- c.count + 1;
      c.locks
  | exception Not_found ->
      if g.g_combos = [] then t.order_stale <- true;
      g.g_combos <- { locks; count = 1 } :: g.g_combos;
      locks

let group_remove t g locks =
  (match find_combo locks g.g_combos with
  | c when c.count = 1 ->
      g.g_combos <- List.filter (( != ) c) g.g_combos;
      if g.g_combos = [] then t.order_stale <- true
  | c -> c.count <- c.count - 1
  | exception Not_found ->
      invalid_arg "Dataset.group_remove: combination not in group");
  touch t g;
  g.g_stamp <- g.g_stamp + 1

(* Among one transaction's cells: the cell of ([alloc], [slot]). *)
let rec cell_of alloc slot = function
  | [] -> raise Not_found
  | o :: rest ->
      if o.o_alloc = alloc && o.o_group.g_pair.p_slot = slot then o
      else cell_of alloc slot rest

(* The lock list of a cell of [alloc] among one transaction's cells: a
   new cell of the same (transaction, allocation) gets the same one. *)
let rec locks_of_alloc alloc = function
  | [] -> raise Not_found
  | o :: rest -> if o.o_alloc = alloc then o.o_locks else locks_of_alloc alloc rest

(* A repeat access to cell [o]. *)
let fold_repeat t o kind =
  o.o_events <- o.o_events + 1;
  (* Write-over-read: one write makes the observation a write. The cell
     moves between groups; its place in the type key's first-access
     order stays. With [wor] off (ablation) the first access kind
     sticks. *)
  let ty, _, o_kind = o.o_group.g_key in
  if t.wor && o_kind = Rule.R && kind = Rule.W then begin
    t.flips <- t.flips + 1;
    group_remove t o.o_group o.o_locks;
    let w = group_of t o.o_group.g_pair ty Rule.W in
    ignore (group_add t w o.o_locks);
    o.o_group <- w
  end
  else touch t o.o_group

let new_cell t ~id ~alloc ~slot kind locks =
  let e = entry_of t (Store.type_key_id t.store alloc) in
  let g = group_of t (pair_of t e alloc slot) e.e_key kind in
  let locks = group_add t g locks in
  let o = { o_group = g; o_alloc = alloc; o_locks = locks; o_first = id; o_events = 1 } in
  e.e_cells <- o :: e.e_cells;
  o

let absorb t id =
  let st = t.store in
  let alloc = Store.access_alloc st id and slot = Store.access_slot st id in
  let kind =
    match Store.access_kind st id with Event.Read -> Rule.R | Event.Write -> Rule.W
  in
  let txn = Store.access_txn st id in
  if txn = Store.no_txn then ignore (new_cell t ~id ~alloc ~slot kind [])
  else begin
    while Vec.length t.by_txn <= txn do
      ignore (Vec.push t.by_txn [])
    done;
    let cells = Vec.get t.by_txn txn in
    match cell_of alloc slot cells with
    | o -> fold_repeat t o kind
    | exception Not_found ->
        let locks =
          match locks_of_alloc alloc cells with
          | locks -> locks
          | exception Not_found ->
              classify_held t.side_sensitive st alloc (Store.txn st txn).Schema.tx_locks
        in
        Vec.set t.by_txn txn (new_cell t ~id ~alloc ~slot kind locks :: cells)
  end

let of_store ?wor ?side_sensitive store =
  let t = create ?wor ?side_sensitive store in
  for id = 0 to Store.n_accesses store - 1 do
    absorb t id
  done;
  t

let type_keys t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.types [] |> List.sort String.compare

let cells t key =
  match Hashtbl.find_opt t.types key with Some e -> e.e_cells | None -> []

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
      Vec.fold
        (fun acc g -> if g.g_combos <> [] then (g.g_key, g) :: acc else acc)
        [] t.all_groups
      |> List.sort (fun (a, _) (b, _) -> compare_key a b);
    t.order_stale <- false
  end;
  t.order

let find_group t (ty, member, kind) =
  match Hashtbl.find_opt t.types ty with
  | None -> None
  | Some e -> (
      match Array.find_opt (fun p -> String.equal p.p_member member) e.e_pairs with
      | None -> None
      | Some p -> ( match kind with Rule.R -> p.p_read | Rule.W -> p.p_write))

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
