module Layout = Lockdoc_trace.Layout
module Srcloc = Lockdoc_trace.Srcloc
module Event = Lockdoc_trace.Event
module Fieldenc = Lockdoc_trace.Fieldenc
open Schema

let files =
  [
    "data_types.csv"; "allocations.csv"; "locks.csv"; "stacks.csv";
    "txns.csv"; "accesses.csv";
  ]

let sep = ';'

let write_lines path lines =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun line ->
          output_string oc line;
          output_char oc '\n')
        lines)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (if line = "" then acc else line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* Free-form fields use the trace format's [Fieldenc] escaping, so the
   CSV and trace encodings cannot drift: separators, tabs and newlines
   inside identifiers all round-trip, and layout strings (which contain
   ';' and ',' in their own serialisation) need no special casing. *)
let enc = Fieldenc.encode
let dec = Fieldenc.decode

(* "-" marks an absent optional field; a literal "-" escapes to "\-",
   which [Fieldenc.decode] maps back. *)
let opt_to_field to_string = function
  | None -> "-"
  | Some x ->
      let s = to_string x in
      if s = "-" then "\\-" else s

let field_to_opt of_string = function "-" -> None | s -> Some (of_string s)

let enc_layout l = enc (Layout.to_string l)

let dec_layout s = Layout.of_string (dec s)

let side_to_string = function Event.Exclusive -> "x" | Event.Shared -> "s"

let side_of_string = function
  | "x" -> Event.Exclusive
  | "s" -> Event.Shared
  | s -> failwith ("Csv: bad lock side " ^ s)

let export ~dir store =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path name = Filename.concat dir name in
  let rows = ref [] in
  let flush name =
    write_lines (path name) (List.rev !rows);
    rows := []
  in
  let emit fields = rows := String.concat (String.make 1 sep) fields :: !rows in

  (* data_types *)
  for i = 0 to Store.n_data_types store - 1 do
    let dt = Store.data_type store i in
    emit [ string_of_int dt.dt_id; enc dt.dt_name; enc_layout dt.dt_layout ]
  done;
  flush "data_types.csv";

  (* allocations *)
  Store.iter_allocations store (fun al ->
      emit
        [
          string_of_int al.al_id; string_of_int al.al_ptr;
          string_of_int al.al_size; string_of_int al.al_type;
          opt_to_field enc al.al_subclass; string_of_int al.al_start;
          opt_to_field string_of_int al.al_end;
        ]);
  flush "allocations.csv";

  (* locks *)
  Store.iter_locks store (fun lk ->
      let parent_alloc, parent_member =
        match lk.lk_parent with
        | None -> ("-", "-")
        | Some (al, member) -> (string_of_int al, enc member)
      in
      emit
        [
          string_of_int lk.lk_id; string_of_int lk.lk_ptr;
          Event.lock_kind_to_string lk.lk_kind; enc lk.lk_name; parent_alloc;
          parent_member;
        ]);
  flush "locks.csv";

  (* stacks: id column then frames *)
  for i = 0 to Store.n_stacks store - 1 do
    emit (string_of_int i :: List.map enc (Store.stack store i))
  done;
  flush "stacks.csv";

  (* txns: id, ctx, then (lock,side,loc) triples *)
  for i = 0 to Store.n_txns store - 1 do
    let tx = Store.txn store i in
    let held =
      List.concat_map
        (fun h ->
          [ string_of_int h.h_lock; side_to_string h.h_side;
            enc (Srcloc.to_string h.h_loc) ])
        tx.tx_locks
    in
    emit (string_of_int tx.tx_id :: string_of_int tx.tx_ctx :: held)
  done;
  flush "txns.csv";

  (* accesses *)
  Store.iter_accesses store (fun a ->
      emit
        [
          string_of_int a.ac_id; string_of_int a.ac_event;
          string_of_int a.ac_alloc; enc a.ac_member;
          Event.(match a.ac_kind with Read -> "r" | Write -> "w");
          opt_to_field string_of_int a.ac_txn; enc (Srcloc.to_string a.ac_loc);
          string_of_int a.ac_stack; string_of_int a.ac_ctx;
        ]);
  flush "accesses.csv"

let split line = Fieldenc.split_escaped sep line

let import ~dir =
  let store = Store.create () in
  let path name = Filename.concat dir name in

  List.iter
    (fun line ->
      match split line with
      | [ _id; _name; layout ] ->
          ignore (Store.add_data_type store (dec_layout layout))
      | _ -> failwith ("Csv: bad data_types row: " ^ line))
    (read_lines (path "data_types.csv"));

  List.iter
    (fun line ->
      match split line with
      | [ _id; ptr; size; ty; subclass; start; al_end ] ->
          let al =
            Store.add_allocation store ~ptr:(int_of_string ptr)
              ~size:(int_of_string size) ~ty:(int_of_string ty)
              ~subclass:(field_to_opt dec subclass)
              ~start:(int_of_string start)
          in
          Store.set_alloc_end store al.al_id
            (field_to_opt int_of_string al_end)
      | _ -> failwith ("Csv: bad allocations row: " ^ line))
    (read_lines (path "allocations.csv"));

  List.iter
    (fun line ->
      match split line with
      | [ _id; ptr; kind; name; parent_alloc; parent_member ] ->
          let parent =
            match field_to_opt int_of_string parent_alloc with
            | None -> None
            | Some al -> Some (al, dec parent_member)
          in
          ignore
            (Store.add_lock store ~ptr:(int_of_string ptr)
               ~kind:(Event.lock_kind_of_string kind) ~name:(dec name) ~parent)
      | _ -> failwith ("Csv: bad locks row: " ^ line))
    (read_lines (path "locks.csv"));

  List.iter
    (fun line ->
      match split line with
      | _id :: frames -> ignore (Store.intern_stack store (List.map dec frames))
      | [] -> ())
    (read_lines (path "stacks.csv"));

  List.iter
    (fun line ->
      match split line with
      | _id :: ctx :: held_fields ->
          let rec triples = function
            | lock :: side :: loc :: rest ->
                {
                  h_lock = int_of_string lock;
                  h_side = side_of_string side;
                  h_loc = Srcloc.of_string (dec loc);
                }
                :: triples rest
            | [] -> []
            | _ -> failwith ("Csv: ragged txn row: " ^ line)
          in
          ignore
            (Store.add_txn store ~locks:(triples held_fields)
               ~ctx:(int_of_string ctx))
      | [ _ ] | [] -> failwith ("Csv: bad txn row: " ^ line))
    (read_lines (path "txns.csv"));

  List.iter
    (fun line ->
      match split line with
      | [ _id; event; alloc; member; kind; txn; loc; stack; ctx ] ->
          let alloc = int_of_string alloc in
          let ty = (Store.allocation store alloc).al_type in
          let slot =
            match Store.member_slot store ~ty (dec member) with
            | slot -> slot
            | exception Not_found ->
                failwith ("Csv: unknown member in accesses row: " ^ line)
          in
          ignore
            (Store.add_access store ~event:(int_of_string event) ~alloc ~slot
               ~kind:(match kind with "r" -> Event.Read | _ -> Event.Write)
               ~txn:
                 (Option.value ~default:Store.no_txn
                    (field_to_opt int_of_string txn))
               ~loc:(Srcloc.of_string (dec loc))
               ~stack:(int_of_string stack)
               ~ctx:(int_of_string ctx))
      | _ -> failwith ("Csv: bad accesses row: " ^ line))
    (read_lines (path "accesses.csv"));
  store
