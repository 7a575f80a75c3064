open Schema
module Vec = Lockdoc_util.Vec

type t = {
  data_types : data_type Vec.t;
  allocations : allocation Vec.t;
  locks : lock Vec.t;
  txns : txn Vec.t;
  accesses : access Vec.t;
  stacks : string list Vec.t;
  stack_index : (string, int) Hashtbl.t;
  dt_by_name : (string, int) Hashtbl.t;
  by_type_key : (string, int list ref) Hashtbl.t;
      (* type key -> access ids, reversed *)
  mutable on_op : (Op.t -> unit) option;
      (* Must stay None while the store is marshalled: closures don't
         serialise. Snapshot clears it via [with_logger]. *)
}

let create () =
  {
    data_types = Vec.create ();
    allocations = Vec.create ();
    locks = Vec.create ();
    txns = Vec.create ();
    accesses = Vec.create ();
    stacks = Vec.create ();
    stack_index = Hashtbl.create 256;
    dt_by_name = Hashtbl.create 32;
    by_type_key = Hashtbl.create 64;
    on_op = None;
  }

let set_logger t log = t.on_op <- log

let with_logger t log f =
  let saved = t.on_op in
  t.on_op <- log;
  Fun.protect ~finally:(fun () -> t.on_op <- saved) f

let log t op = match t.on_op with Some f -> f op | None -> ()

let add_data_type t layout =
  let dt_id = Vec.length t.data_types in
  let row =
    { dt_id; dt_name = layout.Lockdoc_trace.Layout.ty_name; dt_layout = layout }
  in
  ignore (Vec.push t.data_types row);
  Hashtbl.replace t.dt_by_name row.dt_name dt_id;
  log t (Op.Add_data_type layout);
  row

let add_allocation t ~ptr ~size ~ty ~subclass ~start =
  let al_id = Vec.length t.allocations in
  let row =
    {
      al_id;
      al_ptr = ptr;
      al_size = size;
      al_type = ty;
      al_subclass = subclass;
      al_start = start;
      al_end = None;
    }
  in
  ignore (Vec.push t.allocations row);
  log t (Op.Add_allocation { ptr; size; ty; subclass; start });
  row

let add_lock t ~ptr ~kind ~name ~parent =
  let lk_id = Vec.length t.locks in
  let row = { lk_id; lk_ptr = ptr; lk_kind = kind; lk_name = name; lk_parent = parent } in
  ignore (Vec.push t.locks row);
  log t (Op.Add_lock { ptr; kind; name; parent });
  row

let add_txn t ~locks ~ctx =
  let tx_id = Vec.length t.txns in
  let row = { tx_id; tx_locks = locks; tx_ctx = ctx } in
  ignore (Vec.push t.txns row);
  log t (Op.Add_txn { locks; ctx });
  row

let lookup ~fn ~table vec id =
  match Vec.get vec id with
  | row -> row
  | exception Invalid_argument _ ->
      invalid_arg
        (Printf.sprintf "Store.%s: id %d out of bounds for table %s (%d rows)"
           fn id table (Vec.length vec))

let data_type t id = lookup ~fn:"data_type" ~table:"data_types" t.data_types id

let data_type_by_name t name =
  Option.map (Vec.get t.data_types) (Hashtbl.find_opt t.dt_by_name name)

let allocation t id =
  lookup ~fn:"allocation" ~table:"allocations" t.allocations id

let lock t id = lookup ~fn:"lock" ~table:"locks" t.locks id

let txn t id = lookup ~fn:"txn" ~table:"txns" t.txns id

let access t id = lookup ~fn:"access" ~table:"accesses" t.accesses id

let stack t id = lookup ~fn:"stack" ~table:"stacks" t.stacks id

let set_alloc_end t id at =
  let al = allocation t id in
  al.al_end <- at;
  log t (Op.Set_alloc_end { al = id; at })

let intern_stack t frames =
  let key = String.concat "\x00" frames in
  match Hashtbl.find_opt t.stack_index key with
  | Some id -> id
  | None ->
      let id = Vec.push t.stacks frames in
      Hashtbl.replace t.stack_index key id;
      log t (Op.Intern_stack frames);
      id

let add_access t ~event ~alloc ~member ~kind ~txn ~loc ~stack ~ctx =
  let ac_id = Vec.length t.accesses in
  let row =
    {
      ac_id;
      ac_event = event;
      ac_alloc = alloc;
      ac_member = member;
      ac_kind = kind;
      ac_txn = txn;
      ac_loc = loc;
      ac_stack = stack;
      ac_ctx = ctx;
    }
  in
  ignore (Vec.push t.accesses row);
  let al = allocation t alloc in
  let key = type_key (data_type t al.al_type) al in
  let cell =
    match Hashtbl.find_opt t.by_type_key key with
    | Some cell -> cell
    | None ->
        let cell = ref [] in
        Hashtbl.replace t.by_type_key key cell;
        cell
  in
  cell := ac_id :: !cell;
  log t (Op.Add_access { event; alloc; member; kind; txn; loc; stack; ctx });
  row

let apply t = function
  | Op.Add_data_type layout -> ignore (add_data_type t layout)
  | Op.Add_allocation { ptr; size; ty; subclass; start } ->
      ignore (add_allocation t ~ptr ~size ~ty ~subclass ~start)
  | Op.Set_alloc_end { al; at } -> set_alloc_end t al at
  | Op.Add_lock { ptr; kind; name; parent } ->
      ignore (add_lock t ~ptr ~kind ~name ~parent)
  | Op.Add_txn { locks; ctx } -> ignore (add_txn t ~locks ~ctx)
  | Op.Add_access { event; alloc; member; kind; txn; loc; stack; ctx } ->
      ignore (add_access t ~event ~alloc ~member ~kind ~txn ~loc ~stack ~ctx)
  | Op.Intern_stack frames -> ignore (intern_stack t frames)

let n_accesses t = Vec.length t.accesses
let n_txns t = Vec.length t.txns
let n_locks t = Vec.length t.locks
let n_allocations t = Vec.length t.allocations
let n_data_types t = Vec.length t.data_types
let n_stacks t = Vec.length t.stacks

let iter_accesses t f = Vec.iter f t.accesses
let iter_allocations t f = Vec.iter f t.allocations
let iter_locks t f = Vec.iter f t.locks

let type_keys t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.by_type_key []
  |> List.sort String.compare

let accesses_of_type t key =
  match Hashtbl.find_opt t.by_type_key key with
  | None -> []
  | Some cell -> List.rev_map (Vec.get t.accesses) !cell

let layout_of_key t key =
  let base =
    match String.index_opt key ':' with
    | None -> key
    | Some i -> String.sub key 0 i
  in
  Option.map (fun dt -> dt.dt_layout) (data_type_by_name t base)
