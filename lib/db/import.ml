module Event = Lockdoc_trace.Event
module Layout = Lockdoc_trace.Layout
module Diag = Lockdoc_trace.Diag
module Trace = Lockdoc_trace.Trace
module Obs = Lockdoc_obs.Obs
module Rangemap = Lockdoc_util.Rangemap

(* Mirrored once per import at [finalize]; the per-event counters stay
   in the marshalable [counters] record (metrics handles hold atomics
   and would not survive a checkpoint). *)
let c_events = Obs.counter "import.events"
let c_kept = Obs.counter "import.accesses_kept"
let c_txns = Obs.counter "import.txns"
let c_anomalies = Obs.counter "import.anomalies"
let c_runs = Obs.counter "import.runs"

type irq_mode = Inherit | Separate

type mode = Lockdoc_trace.Trace.mode = Strict | Lenient

type anomalies = {
  an_unknown_data_type : int;
  an_double_free : int;
  an_free_without_alloc : int;
  an_access_after_free : int;
  an_acquire_on_freed : int;
  an_flow_conflict : int;
  an_unclosed_txns : int;
}

let no_anomalies =
  {
    an_unknown_data_type = 0;
    an_double_free = 0;
    an_free_without_alloc = 0;
    an_access_after_free = 0;
    an_acquire_on_freed = 0;
    an_flow_conflict = 0;
    an_unclosed_txns = 0;
  }

type stats = {
  total_events : int;
  lock_ops : int;
  mem_accesses : int;
  accesses_kept : int;
  filtered_fn : int;
  filtered_member : int;
  filtered_kind : int;
  unresolved : int;
  unbalanced_releases : int;
  allocations : int;
  frees : int;
  locks_static : int;
  locks_embedded : int;
  txns : int;
  anomalies : anomalies;
}

let anomaly_total s =
  s.anomalies.an_unknown_data_type + s.anomalies.an_double_free
  + s.anomalies.an_free_without_alloc + s.anomalies.an_access_after_free
  + s.anomalies.an_acquire_on_freed + s.anomalies.an_flow_conflict
  + s.anomalies.an_unclosed_txns + s.unbalanced_releases

(* One held lock together with the transaction opened by its acquisition;
   popping back to it resumes that transaction (paper Sec. 4.2). Kept
   accesses take [opened] as their transaction. *)
type held_entry = { entry : Schema.held; opened : int }

(* One node of the engine's call-stack trie: the stack of the frames on
   the path from the root to it. Every flow's stack is a node, so a
   function entry or exit moves a flow to another node, and two flows
   on the same stack share one node, hence one verdict and one id. *)
type frame = {
  f_fn : string;
  f_up : frame; (* the caller's node; the root is its own *)
  mutable f_kids : frame list;
  f_dropped : bool; (* a frame of this stack is on the function blacklist *)
  mutable f_stack : int; (* interned stack id; -1 until its first kept access *)
}

let is_root f = f.f_up == f

(* The frames of a node's stack, innermost first. *)
let rec frames_of f = if is_root f then [] else f.f_fn :: frames_of f.f_up

type ctx_state = {
  pid : int;
  mutable top : frame; (* the flow's call stack *)
  mutable held : held_entry list;
      (* newest first: the head opened the current transaction *)
  mutable inherited : int;
      (* the oldest [inherited] entries of [held] came from the flow an
         irq interrupted (Inherit mode); 0 for tasks *)
}

let flow root pid held = { pid; top = root; held; inherited = List.length held }

let cur_txn ctx = match ctx.held with he :: _ -> he.opened | [] -> Store.no_txn

(* All per-run counters in one mutable record so the engine marshals as
   plain data. *)
type counters = {
  mutable k_lock_ops : int;
  mutable k_mem_accesses : int;
  mutable k_kept : int;
  mutable k_f_fn : int;
  mutable k_f_member : int;
  mutable k_f_kind : int;
  mutable k_unresolved : int;
  mutable k_unbalanced : int;
  mutable k_allocs : int;
  mutable k_frees : int;
  mutable k_locks_static : int;
  mutable k_locks_embedded : int;
  mutable k_an_unknown_ty : int;
  mutable k_an_double_free : int;
  mutable k_an_free_noalloc : int;
  mutable k_an_after_free : int;
  mutable k_an_acq_freed : int;
  mutable k_an_flow : int;
  mutable k_an_unclosed : int;
}

let zero_counters () =
  {
    k_lock_ops = 0;
    k_mem_accesses = 0;
    k_kept = 0;
    k_f_fn = 0;
    k_f_member = 0;
    k_f_kind = 0;
    k_unresolved = 0;
    k_unbalanced = 0;
    k_allocs = 0;
    k_frees = 0;
    k_locks_static = 0;
    k_locks_embedded = 0;
    k_an_unknown_ty = 0;
    k_an_double_free = 0;
    k_an_free_noalloc = 0;
    k_an_after_free = 0;
    k_an_acq_freed = 0;
    k_an_flow = 0;
    k_an_unclosed = 0;
  }

(* What the filters do to accesses of one member; fixed per engine. *)
type verdict = Keep | Drop_kind | Drop_member

(* [s_slot]: the member's slot in the store, the first member of its
   name, so that two members of one name fold as one. *)
type slot = { s_name : string; s_slot : int; s_verdict : verdict }

(* Offset -> member resolution of one data type, built at the type's
   first allocation. [d_at.(offset)] indexes [d_slots] (-1: no member
   there). A layout whose members reach past [max_table] bytes gets a
   truncated table; offsets beyond it scan [d_members] the way
   [Layout.member_at] does. *)
type dt_table = {
  d_members : Layout.member array;
  d_slots : slot array;
  d_at : int array;
  d_extent : int; (* no member covers an offset at or past this *)
}

let max_table = 1 lsl 16

let dt_table filter layout =
  let members = Array.of_list layout.Layout.members in
  let blacklisted = Filter.blacklisted_members filter ~ty:layout.Layout.ty_name in
  let verdict m =
    if
      (filter.Filter.drop_lock_members && m.Layout.m_kind = Layout.Lock)
      || (filter.Filter.drop_atomic_members && m.Layout.m_kind = Layout.Atomic)
    then Drop_kind
    else if List.exists (String.equal m.Layout.m_name) blacklisted then Drop_member
    else Keep
  in
  let extent =
    Array.fold_left
      (fun acc m -> max acc (m.Layout.m_offset + m.Layout.m_size))
      0 members
  in
  let at = Array.make (min extent max_table) (-1) in
  (* Fill in member order without overwriting, so the first member
     covering an offset wins, as in [Layout.member_at]. *)
  Array.iteri
    (fun i m ->
      for o = max 0 m.Layout.m_offset
          to min (Array.length at) (m.Layout.m_offset + m.Layout.m_size) - 1 do
        if at.(o) < 0 then at.(o) <- i
      done)
    members;
  {
    d_members = members;
    d_slots =
      Array.map
        (fun m ->
          let rec first j =
            if String.equal members.(j).Layout.m_name m.Layout.m_name then j
            else first (j + 1)
          in
          { s_name = m.Layout.m_name; s_slot = first 0; s_verdict = verdict m })
        members;
    d_at = at;
    d_extent = extent;
  }

(* Index of the member at [offset] (>= 0) in [d], or -1. *)
let member_index d offset =
  if offset >= d.d_extent then -1
  else if offset < Array.length d.d_at then d.d_at.(offset)
  else
    let rec scan i =
      if i = Array.length d.d_members then -1
      else
        let m = d.d_members.(i) in
        if offset >= m.Layout.m_offset && offset < m.Layout.m_offset + m.Layout.m_size
        then i
        else scan (i + 1)
    in
    scan 0

module StringSet = Set.Make (String)

(* The incremental importer. Everything in here is plain marshalable
   data — no closures — so a checkpoint can capture mid-import state
   with [Marshal]. *)
type engine = {
  g_filter : Filter.t;
  g_fn_blacklist : StringSet.t; (* the filter's function blacklist *)
  g_tables : dt_table array;
      (* dt_id -> offset table, filter applied; [no_table] until the
         type's first allocation *)
  g_irq_mode : irq_mode;
  g_mode : mode;
  g_store : Store.t;
  g_dt_ids : (string, int) Hashtbl.t;
  g_root : frame; (* the call-stack trie *)
  mutable g_live_allocs : Schema.allocation Rangemap.t; (* by base ptr *)
  mutable g_freed : bool Rangemap.t; (* freed ranges, until reused *)
  g_live_locks : (int, int) Hashtbl.t; (* lock ptr -> lk_id *)
  g_locks_of_alloc : (int, int list) Hashtbl.t; (* al_id -> lock ptrs *)
  g_flow_kinds : (int, Event.ctx_kind) Hashtbl.t;
  g_ctxs : (int, ctx_state) Hashtbl.t;
  mutable g_current : ctx_state;
  mutable g_pos : int; (* index of the next event to feed *)
  g_c : counters;
}

(* [find_alloc]'s answer for an address no live allocation covers. *)
let no_alloc =
  {
    Schema.al_id = -1;
    al_ptr = 0;
    al_size = 0;
    al_type = -1;
    al_subclass = None;
    al_start = 0;
    al_end = None;
  }

(* Compared by its extent, which survives a checkpoint's marshalling. *)
let no_table = { d_members = [||]; d_slots = [||]; d_at = [||]; d_extent = -1 }

let engine ?(filter = Filter.default) ?(irq_mode = Inherit) ?(mode = Strict)
    layouts =
  let store = Store.create () in
  let dt_ids = Hashtbl.create 32 in
  List.iter
    (fun layout ->
      let dt = Store.add_data_type store layout in
      Hashtbl.replace dt_ids dt.Schema.dt_name dt.Schema.dt_id)
    layouts;
  let rec root =
    { f_fn = ""; f_up = root; f_kids = []; f_dropped = false; f_stack = -1 }
  in
  let init = flow root 0 [] in
  let ctxs = Hashtbl.create 32 in
  Hashtbl.replace ctxs 0 init;
  {
    g_filter = filter;
    g_fn_blacklist = StringSet.of_list filter.Filter.fn_blacklist;
    g_tables = Array.make (Store.n_data_types store) no_table;
    g_irq_mode = irq_mode;
    g_mode = mode;
    g_store = store;
    g_dt_ids = dt_ids;
    g_root = root;
    g_live_allocs = Rangemap.empty;
    g_freed = Rangemap.empty;
    g_live_locks = Hashtbl.create 256;
    g_locks_of_alloc = Hashtbl.create 256;
    g_flow_kinds = Hashtbl.create 32;
    g_ctxs = ctxs;
    g_current = init;
    g_pos = 0;
    g_c = zero_counters ();
  }

let position g = g.g_pos
let engine_store g = g.g_store

let anomaly g ~event kind message =
  let d = Diag.make ~event kind message in
  if g.g_mode = Strict && Diag.is_fatal d then raise (Trace.Invalid d)

let in_freed g ptr = Rangemap.covering ptr g.g_freed ~default:false

(* The live allocation covering [ptr] (the one with the greatest base at
   or below it), or [no_alloc]. *)
let find_alloc g ptr = Rangemap.covering ptr g.g_live_allocs ~default:no_alloc

(* The node for a call of [fn] from [f]. *)
let enter g f fn =
  let rec find = function
    | [] ->
        let kid =
          { f_fn = fn; f_up = f; f_kids = [];
            f_dropped = f.f_dropped || StringSet.mem fn g.g_fn_blacklist;
            f_stack = -1 }
        in
        f.f_kids <- kid :: f.f_kids;
        kid
    | k :: rest -> if String.equal k.f_fn fn then k else find rest
  in
  find f.f_kids

(* The node left by an exit of [fn] from [f]: [fn]'s caller, or the root
   when [fn] is not on the stack. *)
let rec leave f fn =
  if is_root f then f else if String.equal f.f_fn fn then f.f_up else leave f.f_up fn

let resolve_lock g ~event ptr kind name =
  let c = g.g_c in
  match Hashtbl.find g.g_live_locks ptr with
  | lk_id -> Store.lock g.g_store lk_id
  | exception Not_found ->
      let parent =
        let al = find_alloc g ptr in
        if al == no_alloc then None
        else
          let d = g.g_tables.(al.Schema.al_type) in
          let i = member_index d (ptr - al.Schema.al_ptr) in
          if i < 0 then None else Some (al.Schema.al_id, d.d_slots.(i).s_name)
      in
      (match parent with
      | None ->
          if in_freed g ptr then begin
            c.k_an_acq_freed <- c.k_an_acq_freed + 1;
            anomaly g ~event Diag.Acquire_on_freed_lock
              (Printf.sprintf
                 "acquire of %s at 0x%x inside a freed allocation" name ptr)
          end;
          c.k_locks_static <- c.k_locks_static + 1
      | Some (al_id, _) ->
          c.k_locks_embedded <- c.k_locks_embedded + 1;
          let existing =
            Option.value ~default:[] (Hashtbl.find_opt g.g_locks_of_alloc al_id)
          in
          Hashtbl.replace g.g_locks_of_alloc al_id (ptr :: existing));
      let lk = Store.add_lock g.g_store ~ptr ~kind ~name ~parent in
      Hashtbl.replace g.g_live_locks ptr lk.Schema.lk_id;
      lk

(* [entry] after the entries of [held] (newest first), oldest first:
   the lock list of the transaction [entry]'s push opens. *)
let rec locks_under acc = function
  | [] -> acc
  | he :: older -> locks_under (he.entry :: acc) older

(* Push [entry] on [held] (newest first) and open the transaction of
   every lock then held, oldest first; its first [inherited] locks are
   left out of the Separate view ([Store.txn_inherited]). *)
let push_held g ctx ~inherited entry held =
  let locks = locks_under [ entry ] held in
  let tx = Store.add_txn g.g_store ~inherited ~locks ~ctx:ctx.pid in
  { entry; opened = tx.Schema.tx_id } :: held

let handle_acquire g ctx ~event ~lock_ptr ~kind ~side ~name ~loc =
  let lk = resolve_lock g ~event lock_ptr kind name in
  let entry = { Schema.h_lock = lk.Schema.lk_id; h_side = side; h_loc = loc } in
  ctx.held <- push_held g ctx ~inherited:ctx.inherited entry ctx.held

(* Re-push [above] (oldest first) on [held]. With [hidden], each new
   transaction is left out of the Separate view whole. *)
let rec repush g ctx ~hidden held = function
  | [] -> held
  | he :: newer ->
      let inherited = if hidden then List.length held + 1 else ctx.inherited in
      repush g ctx ~hidden (push_held g ctx ~inherited he.entry held) newer

(* The entries of [held] above the most recent occurrence of [lk_id]
   (oldest first) and those below it (newest first), or [None]. *)
let rec split lk_id above = function
  | [] -> None
  | he :: older when he.entry.Schema.h_lock = lk_id -> Some (above, older)
  | he :: older -> split lk_id (he :: above) older

let handle_release g ctx ~lock_ptr =
  let c = g.g_c in
  match Hashtbl.find g.g_live_locks lock_ptr with
  | exception Not_found -> c.k_unbalanced <- c.k_unbalanced + 1
  | lk_id -> (
      match split lk_id [] ctx.held with
      | None -> c.k_unbalanced <- c.k_unbalanced + 1
      | Some (above, older) ->
          (* The transactions opened above the removal point included the
             removed lock, so they get fresh rows. Releasing an inherited
             lock is unbalanced under Separate, which opens no rows for
             it: the Separate view leaves all of these out. *)
          let hidden = ctx.inherited > 0 && List.length older < ctx.inherited in
          if hidden then ctx.inherited <- ctx.inherited - 1;
          ctx.held <- repush g ctx ~hidden older above)

let feed g ev =
  let idx = g.g_pos in
  let c = g.g_c in
  (match ev with
  | Event.Ctx_switch { pid; kind } ->
      (match Hashtbl.find g.g_flow_kinds pid with
      | k when k <> kind ->
          c.k_an_flow <- c.k_an_flow + 1;
          anomaly g ~event:idx Diag.Flow_kind_conflict
            (Printf.sprintf "flow %d switches kind %s -> %s" pid
               (Event.ctx_to_string k) (Event.ctx_to_string kind))
      | _ -> ()
      | exception Not_found -> Hashtbl.replace g.g_flow_kinds pid kind);
      (match kind with
      | Event.Task -> (
          match Hashtbl.find g.g_ctxs pid with
          | st -> g.g_current <- st
          | exception Not_found ->
              let st = flow g.g_root pid [] in
              Hashtbl.replace g.g_ctxs pid st;
              g.g_current <- st)
      | Event.Softirq | Event.Hardirq ->
          (* Handlers run to completion: always a fresh state. *)
          g.g_current <-
            flow g.g_root pid
              (match g.g_irq_mode with
              | Separate -> []
              | Inherit -> g.g_current.held))
  | Event.Alloc { ptr; size; data_type; subclass } -> (
      c.k_allocs <- c.k_allocs + 1;
      match Hashtbl.find_opt g.g_dt_ids data_type with
      | None ->
          (* Lenient recovery: skip the allocation; its accesses count
             as unresolved, exactly as if the region were unmonitored. *)
          c.k_an_unknown_ty <- c.k_an_unknown_ty + 1;
          anomaly g ~event:idx Diag.Unknown_data_type
            (Printf.sprintf "allocation of undeclared type %s at 0x%x"
               data_type ptr)
      | Some ty ->
          if g.g_tables.(ty).d_extent < 0 then
            g.g_tables.(ty) <-
              dt_table g.g_filter (Store.data_type g.g_store ty).Schema.dt_layout;
          let al =
            Store.add_allocation g.g_store ~ptr ~size ~ty ~subclass ~start:idx
          in
          g.g_freed <- Rangemap.remove_overlapping ~lo:ptr ~hi:(ptr + size) g.g_freed;
          g.g_live_allocs <- Rangemap.add ~lo:ptr ~hi:(ptr + size) al g.g_live_allocs)
  | Event.Free { ptr } -> (
      c.k_frees <- c.k_frees + 1;
      match Rangemap.find ptr g.g_live_allocs ~default:no_alloc with
      | al when al == no_alloc ->
          if in_freed g ptr then begin
            c.k_an_double_free <- c.k_an_double_free + 1;
            anomaly g ~event:idx Diag.Double_free
              (Printf.sprintf "free of 0x%x which was already freed" ptr)
          end
          else begin
            c.k_an_free_noalloc <- c.k_an_free_noalloc + 1;
            anomaly g ~event:idx Diag.Free_without_alloc
              (Printf.sprintf "free of 0x%x which was never allocated" ptr)
          end
      | al ->
          let al_id = al.Schema.al_id in
          Store.set_alloc_end g.g_store al_id (Some idx);
          g.g_freed <- Rangemap.add ~lo:ptr ~hi:(ptr + al.Schema.al_size) true g.g_freed;
          g.g_live_allocs <- Rangemap.remove ptr g.g_live_allocs;
          (match Hashtbl.find_opt g.g_locks_of_alloc al_id with
          | None -> ()
          | Some ptrs ->
              List.iter (Hashtbl.remove g.g_live_locks) ptrs;
              Hashtbl.remove g.g_locks_of_alloc al_id))
  | Event.Lock_acquire { lock_ptr; kind; side; name; loc } ->
      c.k_lock_ops <- c.k_lock_ops + 1;
      handle_acquire g g.g_current ~event:idx ~lock_ptr ~kind ~side ~name ~loc
  | Event.Lock_release { lock_ptr; loc = _ } ->
      c.k_lock_ops <- c.k_lock_ops + 1;
      handle_release g g.g_current ~lock_ptr
  | Event.Fun_enter { fn; loc = _ } ->
      let ctx = g.g_current in
      ctx.top <- enter g ctx.top fn
  | Event.Fun_exit { fn } ->
      let ctx = g.g_current in
      ctx.top <- leave ctx.top fn
  | Event.Mem_access { ptr; size = _; kind; loc } ->
      c.k_mem_accesses <- c.k_mem_accesses + 1;
      let al = find_alloc g ptr in
      if al == no_alloc then begin
        c.k_unresolved <- c.k_unresolved + 1;
        if in_freed g ptr then begin
          c.k_an_after_free <- c.k_an_after_free + 1;
          anomaly g ~event:idx Diag.Access_after_free
            (Printf.sprintf "access at 0x%x inside a freed allocation" ptr)
        end
      end
      else
        let d = g.g_tables.(al.Schema.al_type) in
        let i = member_index d (ptr - al.Schema.al_ptr) in
        if i < 0 then c.k_unresolved <- c.k_unresolved + 1
        else
          let slot = d.d_slots.(i) in
          match slot.s_verdict with
          | Drop_kind -> c.k_f_kind <- c.k_f_kind + 1
          | Drop_member -> c.k_f_member <- c.k_f_member + 1
          | Keep ->
              let ctx = g.g_current in
              let top = ctx.top in
              if top.f_dropped then c.k_f_fn <- c.k_f_fn + 1
              else begin
                c.k_kept <- c.k_kept + 1;
                if top.f_stack < 0 then
                  top.f_stack <- Store.intern_stack g.g_store (frames_of top);
                ignore
                  (Store.add_access g.g_store ~event:idx ~alloc:al.Schema.al_id
                     ~slot:slot.s_slot ~kind ~txn:(cur_txn ctx) ~loc
                     ~stack:top.f_stack ~ctx:ctx.pid)
              end);
  g.g_pos <- idx + 1

let stats g =
  let c = g.g_c in
  {
    total_events = g.g_pos;
    lock_ops = c.k_lock_ops;
    mem_accesses = c.k_mem_accesses;
    accesses_kept = c.k_kept;
    filtered_fn = c.k_f_fn;
    filtered_member = c.k_f_member;
    filtered_kind = c.k_f_kind;
    unresolved = c.k_unresolved;
    unbalanced_releases = c.k_unbalanced;
    allocations = c.k_allocs;
    frees = c.k_frees;
    locks_static = c.k_locks_static;
    locks_embedded = c.k_locks_embedded;
    txns = Store.n_txns g.g_store;
    anomalies =
      {
        an_unknown_data_type = c.k_an_unknown_ty;
        an_double_free = c.k_an_double_free;
        an_free_without_alloc = c.k_an_free_noalloc;
        an_access_after_free = c.k_an_after_free;
        an_acquire_on_freed = c.k_an_acq_freed;
        an_flow_conflict = c.k_an_flow;
        an_unclosed_txns = c.k_an_unclosed;
      };
  }

let finalize g =
  (* Transactions still open at the end of the trace. Their rows are
     already in the store (flushed, not dropped); we only report them.
     IRQ flows are not in [ctxs], so inherited held lists are not double
     counted. *)
  let c = g.g_c in
  Hashtbl.iter
    (fun _pid st ->
      List.iter
        (fun he ->
          let lk = Store.lock g.g_store he.entry.Schema.h_lock in
          c.k_an_unclosed <- c.k_an_unclosed + 1;
          anomaly g ~event:g.g_pos Diag.Unclosed_txn
            (Printf.sprintf "flow %d still holds %s at end of trace" st.pid
               lk.Schema.lk_name))
        (List.rev st.held))
    g.g_ctxs;
  let s = stats g in
  Obs.incr c_runs;
  Obs.add c_events s.total_events;
  Obs.add c_kept s.accesses_kept;
  Obs.add c_txns s.txns;
  Obs.add c_anomalies (anomaly_total s);
  s

let run ?filter ?irq_mode ?mode trace =
  let g = engine ?filter ?irq_mode ?mode trace.Lockdoc_trace.Trace.layouts in
  Array.iter (feed g) trace.Lockdoc_trace.Trace.events;
  let stats = finalize g in
  (g.g_store, stats)

let pp_stats fmt s =
  Format.fprintf fmt
    "@[<v>events: %d@ lock ops: %d@ memory accesses: %d (kept %d)@ filtered: \
     %d fn / %d member / %d kind@ unresolved: %d, unbalanced releases: %d@ \
     allocations: %d, frees: %d@ locks: %d static + %d embedded@ \
     transactions: %d"
    s.total_events s.lock_ops s.mem_accesses s.accesses_kept s.filtered_fn
    s.filtered_member s.filtered_kind s.unresolved s.unbalanced_releases
    s.allocations s.frees s.locks_static s.locks_embedded s.txns;
  if anomaly_total s > 0 then begin
    let a = s.anomalies in
    Format.fprintf fmt
      "@ anomalies: %d total@   unknown data types: %d@   double frees: %d@   \
       frees without alloc: %d@   accesses after free: %d@   acquires on \
       freed: %d@   flow kind conflicts: %d@   unclosed transactions: %d"
      (anomaly_total s) a.an_unknown_data_type a.an_double_free
      a.an_free_without_alloc a.an_access_after_free a.an_acquire_on_freed
      a.an_flow_conflict a.an_unclosed_txns
  end;
  Format.fprintf fmt "@]"
