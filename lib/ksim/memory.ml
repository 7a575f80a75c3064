module Event = Lockdoc_trace.Event
module Layout = Lockdoc_trace.Layout

type instance = {
  base : int;
  layout : Layout.t;
  subclass : string option;
  values : int array;
  mutable live : bool;
}

(* Heap state: bump pointer plus a size-bucketed free list, reset per run. *)
let heap_base = 0x100000
let bump = ref heap_base
let free_lists : (int, int list ref) Hashtbl.t = Hashtbl.create 16

let () =
  Kernel.add_boot_hook (fun () ->
      bump := heap_base;
      Hashtbl.reset free_lists)

let alloc_addr size =
  match Hashtbl.find_opt free_lists size with
  | Some ({ contents = addr :: rest } as cell) ->
      cell := rest;
      addr
  | Some { contents = [] } | None ->
      let addr = !bump in
      bump := addr + size + 16 (* red zone *);
      addr

let free_addr addr size =
  let cell =
    match Hashtbl.find_opt free_lists size with
    | Some cell -> cell
    | None ->
        let cell = ref [] in
        Hashtbl.replace free_lists size cell;
        cell
  in
  cell := addr :: !cell

(* Member lookup cache, keyed by type name (layouts are static). *)
let member_tables : (string, (string, int * Layout.member) Hashtbl.t) Hashtbl.t =
  Hashtbl.create 16

let member_table layout =
  match Hashtbl.find_opt member_tables layout.Layout.ty_name with
  | Some tbl -> tbl
  | None ->
      let tbl = Hashtbl.create 64 in
      List.iteri
        (fun i m -> Hashtbl.replace tbl m.Layout.m_name (i, m))
        layout.Layout.members;
      Hashtbl.replace member_tables layout.Layout.ty_name tbl;
      tbl

let lookup inst name =
  match Hashtbl.find_opt (member_table inst.layout) name with
  | Some entry -> entry
  | None ->
      invalid_arg
        (Printf.sprintf "Memory: %s has no member %s" inst.layout.Layout.ty_name
           name)

let alloc ?subclass layout =
  let base = alloc_addr layout.Layout.ty_size in
  let inst =
    {
      base;
      layout;
      subclass;
      values = Array.make (List.length layout.Layout.members) 0;
      live = true;
    }
  in
  Kernel.emit
    (Event.Alloc
       { ptr = base; size = layout.Layout.ty_size; data_type = layout.Layout.ty_name; subclass });
  inst

exception Use_after_free of string
exception Double_free of string

(* The simulated call stack, for a fault's message. *)
let frames () =
  try
    String.concat " <- "
      (List.map (fun (f, _) -> f.Source.fn_name) (Kernel.debug_frames ()))
  with _ -> "?"

let free inst =
  if not inst.live then
    raise
      (Double_free
         (Printf.sprintf "%s at 0x%x (in %s)" inst.layout.Layout.ty_name inst.base
            (frames ())));
  inst.live <- false;
  Kernel.emit (Event.Free { ptr = inst.base });
  free_addr inst.base inst.layout.Layout.ty_size

let member_ptr inst name =
  let _, m = lookup inst name in
  inst.base + m.Layout.m_offset

let check_access inst m =
  if not inst.live then
    raise
      (Use_after_free
         (Printf.sprintf "%s.%s (in %s)" inst.layout.Layout.ty_name
            m.Layout.m_name (frames ())));
  if m.Layout.m_kind = Layout.Lock then
    invalid_arg
      (Printf.sprintf "Memory: member %s is a lock; use the Lock module"
         m.Layout.m_name)

let access inst name kind =
  let idx, m = lookup inst name in
  check_access inst m;
  let ptr = inst.base + m.Layout.m_offset in
  (* The breakpoint site: offers the resolved (type, member) access to
     an installed schedule controller, then acts as the usual
     preemption point. *)
  Kernel.access_point ~ty:inst.layout.Layout.ty_name ~subclass:inst.subclass
    ~member:name ~ptr ~kind;
  Kernel.emit
    (Event.Mem_access { ptr; size = m.Layout.m_size; kind; loc = Kernel.here () });
  idx

let read inst name =
  let idx = access inst name Event.Read in
  inst.values.(idx)

let write inst name v =
  let idx = access inst name Event.Write in
  inst.values.(idx) <- v

let modify inst name f =
  let v = read inst name in
  write inst name (f v)

(* Atomic accessors run inside an atomic_* scope, which the default filter
   black-lists, mirroring how the paper ignores atomic_t traffic. *)

let atomic_scope name body =
  Kernel.fn_scope ~file:"include/asm/atomic.h" ~span:3 name body

let atomic_read inst name = atomic_scope "atomic_read" (fun () -> read inst name)

let atomic_set inst name v =
  atomic_scope "atomic_set" (fun () -> write inst name v)

let atomic_inc inst name =
  atomic_scope "atomic_inc" (fun () -> modify inst name (fun v -> v + 1))

let atomic_dec_and_test inst name =
  atomic_scope "atomic_dec_and_test" (fun () ->
      let v = read inst name - 1 in
      write inst name v;
      v = 0)

(* Static skeletons: the atomic helpers bypass the locking discipline
   (the importer's default filter ignores them), so their IR is the
   wildcard body — excluded from every static analysis, accepted
   verbatim by the meta-check. *)
let () =
  List.iter
    (fun name -> Skeleton.register_wild ~subsystem:"atomic" name)
    [ "atomic_read"; "atomic_set"; "atomic_inc"; "atomic_dec_and_test" ]
