open Schema
module Vec = Lockdoc_util.Vec
module Srcloc = Lockdoc_trace.Srcloc

(* {2 Columns}

   A column is a spine of chunks: row [i] lives at
   [chunks.(i lsr chunk_bits).(i land (chunk_rows - 1))]. The first
   chunk starts at [first_rows] rows and doubles in place up to
   [chunk_rows], so a store of a few accesses stays a few words per
   column; every later chunk is allocated whole and never copied. *)

let chunk_bits = 10
let chunk_rows = 1 lsl chunk_bits
let first_rows = 16

type 'a col = { mutable chunks : 'a array array; fill : 'a }

let col fill = { chunks = [| Array.make first_rows fill |]; fill }

(* Store [x] at row [n], the column's current length. *)
let col_push c n x =
  let k = n lsr chunk_bits and o = n land (chunk_rows - 1) in
  if k = Array.length c.chunks then begin
    let spine = Array.make (2 * k) [||] in
    Array.blit c.chunks 0 spine 0 k;
    c.chunks <- spine
  end;
  let ch = c.chunks.(k) in
  if o < Array.length ch then Array.unsafe_set ch o x
  else begin
    (* Only chunk 0 grows; a later chunk is new here, and empty. *)
    let ch' = Array.make (if k = 0 then 2 * o else chunk_rows) c.fill in
    Array.blit ch 0 ch' 0 o;
    ch'.(o) <- x;
    c.chunks.(k) <- ch'
  end

let col_get c i = c.chunks.(i lsr chunk_bits).(i land (chunk_rows - 1))

(* [col_get], and a setter, at [int]: typed so the array accesses skip
   the generic (float array) check. *)
let int_get (c : int col) i = c.chunks.(i lsr chunk_bits).(i land (chunk_rows - 1))

let int_set (c : int col) i x =
  c.chunks.(i lsr chunk_bits).(i land (chunk_rows - 1)) <- x

type t = {
  data_types : data_type Vec.t;
  dt_slots : string array Vec.t;
      (* dt_id -> member names by slot; [||] until first needed *)
  allocations : allocation Vec.t;
  locks : lock Vec.t;
  txns : txn Vec.t;
  (* The access table, one column per field: *)
  mutable n_acc : int;
  a_event : int col;
  a_alloc : int col;
  a_member : int col; (* member slot lsl 1, lor 1 for a write *)
  a_txn : int col; (* [no_txn] for a lock-free access *)
  a_loc : Srcloc.t col;
  a_stack : int col;
  a_ctx : int col;
  a_next : int col;
      (* the next access of the same type key, in trace order; -1 *)
  stacks : string list Vec.t;
  stack_index : (string, int) Hashtbl.t;
  dt_by_name : (string, int) Hashtbl.t;
  key_ids : (string, int) Hashtbl.t; (* type key -> its id *)
  key_names : string Vec.t; (* type key id -> the key *)
  key_first : int Vec.t; (* type key id -> its first access, or -1 *)
  key_last : int Vec.t; (* type key id -> its last access, or -1 *)
  alloc_keys : int Vec.t;
      (* al_id -> its type key's id, resolved once at allocation *)
  txn_inherited : (int, int) Hashtbl.t;
      (* tx_id -> its inherited lock count, where not 0 *)
}

let no_txn = -1

let create () =
  {
    data_types = Vec.create ();
    dt_slots = Vec.create ();
    allocations = Vec.create ();
    locks = Vec.create ();
    txns = Vec.create ();
    n_acc = 0;
    a_event = col 0;
    a_alloc = col 0;
    a_member = col 0;
    a_txn = col 0;
    a_loc = col Srcloc.none;
    a_stack = col 0;
    a_ctx = col 0;
    a_next = col 0;
    stacks = Vec.create ();
    stack_index = Hashtbl.create 256;
    dt_by_name = Hashtbl.create 32;
    key_ids = Hashtbl.create 64;
    key_names = Vec.create ();
    key_first = Vec.create ();
    key_last = Vec.create ();
    alloc_keys = Vec.create ();
    txn_inherited = Hashtbl.create 64;
  }

let add_data_type t layout =
  let dt_id = Vec.length t.data_types in
  let row =
    { dt_id; dt_name = layout.Lockdoc_trace.Layout.ty_name; dt_layout = layout }
  in
  ignore (Vec.push t.data_types row);
  ignore (Vec.push t.dt_slots [||]);
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

let out_of_bounds ~fn ~table id rows =
  invalid_arg
    (Printf.sprintf "Store.%s: id %d out of bounds for table %s (%d rows)" fn id
       table rows)

let lookup ~fn ~table vec id =
  match Vec.get vec id with
  | row -> row
  | exception Invalid_argument _ -> out_of_bounds ~fn ~table id (Vec.length vec)

let data_type t id = lookup ~fn:"data_type" ~table:"data_types" t.data_types id

let data_type_by_name t name =
  Option.map (Vec.get t.data_types) (Hashtbl.find_opt t.dt_by_name name)

(* Member names of a data type by slot: a member's position in its
   layout. *)
let slots t ty =
  let names = lookup ~fn:"slots" ~table:"data_types" t.dt_slots ty in
  if Array.length names > 0 then names
  else
    let names =
      Array.of_list
        (List.map
           (fun m -> m.Lockdoc_trace.Layout.m_name)
           (Vec.get t.data_types ty).dt_layout.Lockdoc_trace.Layout.members)
    in
    Vec.set t.dt_slots ty names;
    names

let slot_name t ~ty slot = (slots t ty).(slot)

let member_slot t ~ty member =
  let names = slots t ty in
  let rec find i =
    if i = Array.length names then raise Not_found
    else if String.equal names.(i) member then i
    else find (i + 1)
  in
  find 0

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
        ignore (Vec.push t.key_first (-1));
        ignore (Vec.push t.key_last (-1));
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

let add_access t ~event ~alloc ~slot ~kind ~txn ~loc ~stack ~ctx =
  let id = t.n_acc in
  let k = lookup ~fn:"add_access" ~table:"allocations" t.alloc_keys alloc in
  col_push t.a_event id event;
  col_push t.a_alloc id alloc;
  col_push t.a_member id
    ((slot lsl 1) lor match kind with Lockdoc_trace.Event.Read -> 0 | Write -> 1);
  col_push t.a_txn id txn;
  col_push t.a_loc id loc;
  col_push t.a_stack id stack;
  col_push t.a_ctx id ctx;
  col_push t.a_next id (-1);
  (match Vec.get t.key_last k with
  | -1 -> Vec.set t.key_first k id
  | last -> int_set t.a_next last id);
  Vec.set t.key_last k id;
  t.n_acc <- id + 1;
  id

let check_access ~fn t id =
  if id < 0 || id >= t.n_acc then out_of_bounds ~fn ~table:"accesses" id t.n_acc

let access_alloc t id =
  check_access ~fn:"access_alloc" t id;
  int_get t.a_alloc id

let access_slot t id =
  check_access ~fn:"access_slot" t id;
  int_get t.a_member id lsr 1

let access_kind t id : Lockdoc_trace.Event.access_kind =
  check_access ~fn:"access_kind" t id;
  if int_get t.a_member id land 1 = 0 then Read else Write

let access_txn t id =
  check_access ~fn:"access_txn" t id;
  int_get t.a_txn id

let n_accesses t = t.n_acc

(* The one place that builds an access record. *)
let access t id =
  check_access ~fn:"access" t id;
  let alloc = int_get t.a_alloc id and m = int_get t.a_member id in
  let txn = int_get t.a_txn id in
  {
    ac_id = id;
    ac_event = int_get t.a_event id;
    ac_alloc = alloc;
    ac_member = slot_name t ~ty:(Vec.get t.allocations alloc).al_type (m lsr 1);
    ac_kind = (if m land 1 = 0 then Read else Write);
    ac_txn = (if txn = no_txn then None else Some txn);
    ac_loc = col_get t.a_loc id;
    ac_stack = int_get t.a_stack id;
    ac_ctx = int_get t.a_ctx id;
  }

let n_txns t = Vec.length t.txns
let n_locks t = Vec.length t.locks
let n_allocations t = Vec.length t.allocations
let n_data_types t = Vec.length t.data_types
let n_stacks t = Vec.length t.stacks

let type_key_id t al_id =
  lookup ~fn:"type_key_id" ~table:"allocations" t.alloc_keys al_id

let type_key_name t id = lookup ~fn:"type_key_name" ~table:"type keys" t.key_names id

let iter_accesses t f =
  for id = 0 to t.n_acc - 1 do
    f (access t id)
  done

let iter_allocations t f = Vec.iter f t.allocations
let iter_locks t f = Vec.iter f t.locks

let type_keys t =
  Hashtbl.fold
    (fun k id acc -> if Vec.get t.key_first id < 0 then acc else k :: acc)
    t.key_ids []
  |> List.sort String.compare

let accesses_of_type t key =
  match Hashtbl.find_opt t.key_ids key with
  | None -> []
  | Some k ->
      let rec rows acc id =
        if id < 0 then List.rev acc else rows (access t id :: acc) (int_get t.a_next id)
      in
      rows [] (Vec.get t.key_first k)

let layout_of_key t key =
  let base =
    match String.index_opt key ':' with
    | None -> key
    | Some i -> String.sub key 0 i
  in
  Option.map (fun dt -> dt.dt_layout) (data_type_by_name t base)
