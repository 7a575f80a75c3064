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
  key_ids : (string, int) Hashtbl.t; (* type key -> its id *)
  key_names : string Vec.t; (* type key id -> the key *)
  key_accesses : int list Vec.t;
      (* type key id -> access ids, reversed; empty while the key has
         allocations but no accesses yet *)
  alloc_keys : int Vec.t;
      (* al_id -> its type key's id, resolved once at allocation *)
  txn_inherited : (int, int) Hashtbl.t;
      (* tx_id -> its inherited lock count, where not 0 *)
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
    key_ids = Hashtbl.create 64;
    key_names = Vec.create ();
    key_accesses = Vec.create ();
    alloc_keys = Vec.create ();
    txn_inherited = Hashtbl.create 64;
  }

let add_data_type t layout =
  let dt_id = Vec.length t.data_types in
  let row =
    { dt_id; dt_name = layout.Lockdoc_trace.Layout.ty_name; dt_layout = layout }
  in
  ignore (Vec.push t.data_types row);
  Hashtbl.replace t.dt_by_name row.dt_name dt_id;
  row

let add_lock t ~ptr ~kind ~name ~parent =
  let lk_id = Vec.length t.locks in
  let row = { lk_id; lk_ptr = ptr; lk_kind = kind; lk_name = name; lk_parent = parent } in
  ignore (Vec.push t.locks row);
  row

let add_txn ?(inherited = 0) t ~locks ~ctx =
  let tx_id = Vec.length t.txns in
  let row = { tx_id; tx_locks = locks; tx_ctx = ctx } in
  ignore (Vec.push t.txns row);
  if inherited > 0 then Hashtbl.replace t.txn_inherited tx_id inherited;
  row

let txn_inherited t id =
  match Hashtbl.find t.txn_inherited id with n -> n | exception Not_found -> 0

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

let add_allocation t ~ptr ~size ~ty ~subclass ~start =
  let dt = data_type t ty in
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
  let key = type_key dt row in
  let key_id =
    match Hashtbl.find t.key_ids key with
    | id -> id
    | exception Not_found ->
        let id = Vec.push t.key_names key in
        ignore (Vec.push t.key_accesses []);
        Hashtbl.replace t.key_ids key id;
        id
  in
  ignore (Vec.push t.allocations row);
  ignore (Vec.push t.alloc_keys key_id);
  row

let allocation t id =
  lookup ~fn:"allocation" ~table:"allocations" t.allocations id

let lock t id = lookup ~fn:"lock" ~table:"locks" t.locks id

let txn t id = lookup ~fn:"txn" ~table:"txns" t.txns id

let access t id = lookup ~fn:"access" ~table:"accesses" t.accesses id

let stack t id = lookup ~fn:"stack" ~table:"stacks" t.stacks id

let set_alloc_end t id at =
  let al = allocation t id in
  al.al_end <- at

let intern_stack t frames =
  let key = String.concat "\x00" frames in
  match Hashtbl.find_opt t.stack_index key with
  | Some id -> id
  | None ->
      let id = Vec.push t.stacks frames in
      Hashtbl.replace t.stack_index key id;
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
  let k = lookup ~fn:"add_access" ~table:"allocations" t.alloc_keys alloc in
  Vec.set t.key_accesses k (ac_id :: Vec.get t.key_accesses k);
  row

let n_accesses t = Vec.length t.accesses
let n_txns t = Vec.length t.txns
let n_locks t = Vec.length t.locks
let n_allocations t = Vec.length t.allocations
let n_data_types t = Vec.length t.data_types
let n_stacks t = Vec.length t.stacks

let type_key_id t al_id =
  lookup ~fn:"type_key_id" ~table:"allocations" t.alloc_keys al_id

let type_key_name t id = lookup ~fn:"type_key_name" ~table:"type keys" t.key_names id

let iter_accesses t f = Vec.iter f t.accesses
let iter_allocations t f = Vec.iter f t.allocations
let iter_locks t f = Vec.iter f t.locks

let type_keys t =
  Hashtbl.fold
    (fun k id acc -> if Vec.get t.key_accesses id = [] then acc else k :: acc)
    t.key_ids []
  |> List.sort String.compare

let accesses_of_type t key =
  match Hashtbl.find_opt t.key_ids key with
  | None -> []
  | Some id -> List.rev_map (Vec.get t.accesses) (Vec.get t.key_accesses id)

let layout_of_key t key =
  let base =
    match String.index_opt key ':' with
    | None -> key
    | Some i -> String.sub key 0 i
  in
  Option.map (fun dt -> dt.dt_layout) (data_type_by_name t base)
