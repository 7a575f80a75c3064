module Schema = Lockdoc_db.Schema
module Store = Lockdoc_db.Store
module Srcloc = Lockdoc_trace.Srcloc
module Vec = Lockdoc_util.Vec

type lock_class = Static of string | Member of string * string

let class_to_string = function
  | Static name -> name
  | Member (ty, member) -> Printf.sprintf "%s.%s" ty member

type edge = {
  e_from : lock_class;
  e_to : lock_class;
  e_count : int;
  e_example : Srcloc.t;
}

type report = {
  classes : lock_class list;
  edges : edge list;
  cycles : lock_class list list;
  self_nesting : edge list;
}

let class_of store (lock : Schema.lock) =
  match lock.Schema.lk_parent with
  | None -> Static lock.Schema.lk_name
  | Some (al_id, member) ->
      let al = Store.allocation store al_id in
      let dt = Store.data_type store al.Schema.al_type in
      Member (dt.Schema.dt_name, member)

(* {2 Cycle canonicalisation}

   The DFS can reach one cyclic lock-order through several anchors and
   walk orders, and a rotation (or, for the report's purposes, the
   reversed traversal of the same class set) describes the same
   deadlock scenario. Canonical form: rotate so the lexicographically
   smallest class leads; the dedup key additionally takes the smaller
   of the forward and reversed-rotated name sequences, so each
   scenario is kept exactly once. *)

let canonicalise cycle =
  match cycle with
  | [] | [ _ ] -> cycle
  | _ ->
      let arr = Array.of_list cycle in
      let n = Array.length arr in
      let key i = class_to_string arr.(i) in
      let best = ref 0 in
      for i = 1 to n - 1 do
        if key i < key !best then best := i
      done;
      List.init n (fun j -> arr.((!best + j) mod n))

let cycle_key cycle =
  let names c = List.map class_to_string (canonicalise c) in
  min (names cycle) (names (List.rev cycle))

(* Cycle search over distinct classes (the graph is small: tens of
   classes). The DFS from each anchor only walks through classes whose
   names sort after the anchor's. Of a scenario's two orientations the
   first one found is kept, so the order of [classes] and [edges]
   decides which one a report shows. *)
let find_cycles classes edges =
  let key = class_to_string in
  let successors c =
    List.filter_map
      (fun (from, into) -> if from = c && into <> c then Some into else None)
      edges
  in
  let seen = Hashtbl.create 16 in
  let cycles = ref [] in
  let rec dfs anchor path node =
    List.iter
      (fun next ->
        if next = anchor then begin
          let cycle = canonicalise (List.rev (node :: path)) in
          let k = cycle_key cycle in
          if not (Hashtbl.mem seen k) then begin
            Hashtbl.replace seen k ();
            cycles := cycle :: !cycles
          end
        end
        else if (not (List.mem next (node :: path))) && key next > key anchor
        then dfs anchor (node :: path) next)
      (successors node)
  in
  List.iter (fun c -> dfs c [] c) classes;
  List.sort (fun a b -> compare (List.map key a) (List.map key b)) !cycles

(* Each lock's class, by [lk_id]: one store lookup per lock, not one
   per held-lock entry. *)
let lock_classes store =
  Array.init (Store.n_locks store) (fun i -> class_of store (Store.lock store i))

let rec last_held = function
  | [ h ] -> h
  | _ :: rest -> last_held rest
  | [] -> invalid_arg "Lockdep.last_held"

let rec drop n l =
  match l with _ :: rest when n > 0 -> drop (n - 1) rest | _ -> l

type edge_acc = { mutable a_count : int; a_example : Srcloc.t }

let analyse ?(irq_mode = Lockdoc_db.Import.Inherit) store =
  (* Classes as dense ids: [cls.(lk_id)] indexes [by_id]. *)
  let ids : (lock_class, int) Hashtbl.t = Hashtbl.create 64 in
  let by_id = Vec.create () in
  let cls =
    Array.map
      (fun c ->
        match Hashtbl.find ids c with
        | id -> id
        | exception Not_found ->
            let id = Vec.push by_id c in
            Hashtbl.replace ids c id;
            id)
      (lock_classes store)
  in
  let nc = Vec.length by_id in
  let used = Array.make nc false in
  let edges : (int, edge_acc) Hashtbl.t = Hashtbl.create 128 in
  let separate = irq_mode = Lockdoc_db.Import.Separate in
  (* Every transaction's ordered held list contributes consecutive-pair
     edges: each lock depends on everything acquired before it. Using the
     final acquisition (the txn rows record every configuration, so every
     prefix appears as its own txn) avoids double counting. The Separate
     view drops each transaction's inherited prefix first. *)
  let rec add_edges into loc = function
    | [] | [ _ ] -> ()
    | (held : Schema.held) :: rest ->
        let from = cls.(held.Schema.h_lock) in
        used.(from) <- true;
        (match Hashtbl.find edges ((from * nc) + into) with
        | e -> e.a_count <- e.a_count + 1
        | exception Not_found ->
            Hashtbl.replace edges ((from * nc) + into) { a_count = 1; a_example = loc });
        add_edges into loc rest
  in
  for i = 0 to Store.n_txns store - 1 do
    let txn = Store.txn store i in
    match
      if separate then drop (Store.txn_inherited store i) txn.Schema.tx_locks
      else txn.Schema.tx_locks
    with
    | [] -> ()
    | locks ->
        let last = last_held locks in
        let into = cls.(last.Schema.h_lock) in
        used.(into) <- true;
        add_edges into last.Schema.h_loc locks
  done;
  let all_edges =
    Hashtbl.fold
      (fun key e acc ->
        {
          e_from = Vec.get by_id (key / nc);
          e_to = Vec.get by_id (key mod nc);
          e_count = e.a_count;
          e_example = e.a_example;
        }
        :: acc)
      edges []
    |> List.sort (fun a b ->
           compare
             (class_to_string a.e_from, class_to_string a.e_to)
             (class_to_string b.e_from, class_to_string b.e_to))
  in
  let self_nesting, order_edges =
    List.partition (fun e -> e.e_from = e.e_to) all_edges
  in
  let all_classes =
    List.filteri (fun id _ -> used.(id)) (Vec.to_list by_id)
    |> List.sort (fun a b -> compare (class_to_string a) (class_to_string b))
  in
  let sorted_cycles =
    find_cycles all_classes
      (List.map (fun e -> (e.e_from, e.e_to)) order_edges)
  in
  {
    classes = all_classes;
    edges = order_edges;
    cycles = sorted_cycles;
    self_nesting;
  }

let render report =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "lockdep: %d lock classes, %d ordered pairs\n"
       (List.length report.classes)
       (List.length report.edges));
  if report.cycles = [] then
    Buffer.add_string buf "no lock-order cycles detected\n"
  else begin
    Buffer.add_string buf
      (Printf.sprintf "%d potential deadlock cycle(s):\n"
         (List.length report.cycles));
    List.iter
      (fun cycle ->
        let names = List.map class_to_string cycle in
        Buffer.add_string buf
          (Printf.sprintf "  %s -> %s\n" (String.concat " -> " names)
             (List.hd names));
        (* Show one witness edge per direction of the cycle. *)
        let rec witness = function
          | a :: (b :: _ as rest) ->
              (match
                 List.find_opt (fun e -> e.e_from = a && e.e_to = b) report.edges
               with
              | Some e ->
                  Buffer.add_string buf
                    (Printf.sprintf "    %s taken under %s at %s (%d times)\n"
                       (class_to_string b) (class_to_string a)
                       (Srcloc.to_string e.e_example) e.e_count)
              | None -> ());
              witness rest
          | [ last ] -> (
              match
                List.find_opt
                  (fun e -> e.e_from = last && e.e_to = List.hd cycle)
                  report.edges
              with
              | Some e ->
                  Buffer.add_string buf
                    (Printf.sprintf "    %s taken under %s at %s (%d times)\n"
                       (class_to_string (List.hd cycle))
                       (class_to_string last)
                       (Srcloc.to_string e.e_example) e.e_count)
              | None -> ())
          | [] -> ()
        in
        witness cycle)
      report.cycles
  end;
  if report.self_nesting <> [] then begin
    Buffer.add_string buf "same-class nesting (needs nesting annotations):\n";
    List.iter
      (fun e ->
        Buffer.add_string buf
          (Printf.sprintf "  %s within itself at %s (%d times)\n"
             (class_to_string e.e_from)
             (Srcloc.to_string e.e_example) e.e_count))
      report.self_nesting
  end;
  Buffer.contents buf
