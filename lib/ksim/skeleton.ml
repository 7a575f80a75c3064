module Event = Lockdoc_trace.Event

type lockref =
  | Sglobal of string
  | Smember of { ty : string; var : string; member : string }

type node =
  | Nop
  | Seq of node list
  | Alt of node list
  | Opt of node
  | Star of node
  | Plus of node
  | Acquire of { lock : lockref; kind : Event.lock_kind; side : Event.lock_side }
  | Release of lockref
  | Access of {
      ty : string;
      var : string;
      member : string;
      kind : Event.access_kind;
    }
  | Call of { callees : string list; binds : (string * string) list }
  | Irq_off
  | Irq_on
  | Bh_off
  | Bh_on
  | Blocks

type body = Wild | Body of node

type fn = {
  sk_name : string;
  sk_subsystem : string;
  sk_root : bool;
  sk_irq : bool;
  sk_body : body;
}

let registry : (string, fn) Hashtbl.t = Hashtbl.create 256

let register ?(root = false) ?(irq = false) ~subsystem name node =
  if Hashtbl.mem registry name then
    invalid_arg (Printf.sprintf "Skeleton.register: duplicate %S" name);
  Hashtbl.replace registry name
    {
      sk_name = name;
      sk_subsystem = subsystem;
      sk_root = root;
      sk_irq = irq;
      sk_body = Body node;
    }

let register_wild ?(root = false) ?(irq = false) ~subsystem name =
  if Hashtbl.mem registry name then
    invalid_arg (Printf.sprintf "Skeleton.register_wild: duplicate %S" name);
  Hashtbl.replace registry name
    {
      sk_name = name;
      sk_subsystem = subsystem;
      sk_root = root;
      sk_irq = irq;
      sk_body = Wild;
    }

let find name = Hashtbl.find_opt registry name

let count () = Hashtbl.length registry

let all () =
  Hashtbl.fold (fun _ fn acc -> fn :: acc) registry []
  |> List.sort (fun a b -> compare a.sk_name b.sk_name)

let subsystems () =
  all ()
  |> List.map (fun fn -> fn.sk_subsystem)
  |> List.sort_uniq compare

let rec nodes n =
  match n with
  | Seq ns | Alt ns -> List.fold_left (fun acc n -> acc + nodes n) 1 ns
  | Opt n | Star n | Plus n -> 1 + nodes n
  | Nop | Acquire _ | Release _ | Access _ | Call _ | Irq_off | Irq_on
  | Bh_off | Bh_on | Blocks ->
      1

let node_count fn = match fn.sk_body with Wild -> 1 | Body n -> nodes n

let lockref_name = function Sglobal n -> n | Smember { member; _ } -> member

let bind_var binds v =
  let rec go = function
    | [] -> "^" ^ v
    | (src, dst) :: rest ->
        if v = src then dst
        else
          let p = src ^ "." in
          let lp = String.length p in
          if String.length v > lp && String.sub v 0 lp = p then
            dst ^ "." ^ String.sub v lp (String.length v - lp)
          else go rest
  in
  go binds

(* ---- letters -------------------------------------------------------- *)

type letter =
  | L_acquire of { name : string; kind : Event.lock_kind; side : Event.lock_side }
  | L_release of { name : string; kind : Event.lock_kind }
  | L_access of { ty : string; member : string; kind : Event.access_kind }
  | L_call of string

let letter_to_string = function
  | L_acquire { name; kind; side } ->
      Printf.sprintf "acq(%s:%s%s)" name
        (Event.lock_kind_to_string kind)
        (match side with Event.Shared -> ":r" | Event.Exclusive -> "")
  | L_release { name; _ } -> Printf.sprintf "rel(%s)" name
  | L_access { ty; member; kind } ->
      Printf.sprintf "%s(%s.%s)"
        (match kind with Event.Read -> "r" | Event.Write -> "w")
        ty member
  | L_call fn -> Printf.sprintf "call(%s)" fn

(* ---- NFA ------------------------------------------------------------ *)

(* Thompson construction over the node tree. Leaves either consume one
   letter ([`Sym]) or none ([`Eps]); mask toggles are compiled as an
   optional symbol because the runtime only emits mask events on actual
   transitions of the nesting counter. *)

type nfa = {
  n_states : int;
  eps : int list array;  (* epsilon successors *)
  sym : (letter -> bool) option array;  (* consuming transition, +1 state *)
  accept : int;
}

let leaf_pred node =
  match node with
  | Acquire { lock; kind; side } ->
      let name = lockref_name lock in
      Some
        (function
          | L_acquire a -> a.name = name && a.kind = kind && a.side = side
          | _ -> false)
  | Release lock ->
      let name = lockref_name lock in
      Some (function L_release r -> r.name = name | _ -> false)
  | Access { ty; member; kind; _ } ->
      Some
        (function
          | L_access a -> a.ty = ty && a.member = member && a.kind = kind
          | _ -> false)
  | Call { callees; _ } ->
      Some (function L_call c -> List.mem c callees | _ -> false)
  | Irq_off ->
      Some
        (function
          | L_acquire { name = "irqoff"; kind = Event.Pseudo; _ } -> true
          | _ -> false)
  | Irq_on ->
      Some (function L_release { name = "irqoff"; _ } -> true | _ -> false)
  | Bh_off ->
      Some
        (function
          | L_acquire { name = "bhoff"; kind = Event.Pseudo; _ } -> true
          | _ -> false)
  | Bh_on ->
      Some (function L_release { name = "bhoff"; _ } -> true | _ -> false)
  | Nop | Blocks -> None
  | Seq _ | Alt _ | Opt _ | Star _ | Plus _ -> assert false

let mask_toggle = function
  | Irq_off | Irq_on | Bh_off | Bh_on -> true
  | _ -> false

let compile node =
  let eps = ref [] and sym = ref [] in
  let next = ref 0 in
  let fresh () =
    let s = !next in
    incr next;
    s
  in
  let add_eps a b = eps := (a, b) :: !eps in
  (* Builds the fragment for [n] between a fresh start and returns
     (start, accept). *)
  let rec build n =
    match n with
    | Nop | Blocks ->
        let s = fresh () in
        (s, s)
    | Seq ns ->
        let s = fresh () in
        let a =
          List.fold_left
            (fun prev n ->
              let s', a' = build n in
              add_eps prev s';
              a')
            s ns
        in
        (s, a)
    | Alt ns ->
        let s = fresh () and a = fresh () in
        List.iter
          (fun n ->
            let s', a' = build n in
            add_eps s s';
            add_eps a' a)
          ns;
        (s, a)
    | Opt n ->
        let s, a = build n in
        add_eps s a;
        (s, a)
    | Star n ->
        let s, a = build n in
        add_eps s a;
        add_eps a s;
        (s, a)
    | Plus n ->
        let s, a = build n in
        add_eps a s;
        (s, a)
    | _ -> (
        match leaf_pred n with
        | None ->
            let s = fresh () in
            (s, s)
        | Some p ->
            let s = fresh () in
            let a = fresh () in
            assert (a = s + 1);
            sym := (s, p) :: !sym;
            if mask_toggle n then add_eps s a;
            (s, a))
  in
  let start, accept = build node in
  let n_states = !next in
  let eps_arr = Array.make n_states [] in
  List.iter (fun (a, b) -> eps_arr.(a) <- b :: eps_arr.(a)) !eps;
  let sym_arr = Array.make n_states None in
  List.iter (fun (s, p) -> sym_arr.(s) <- Some p) !sym;
  (start, { n_states; eps = eps_arr; sym = sym_arr; accept })

let closure nfa set =
  let seen = Array.make nfa.n_states false in
  let rec go s =
    if not seen.(s) then begin
      seen.(s) <- true;
      List.iter go nfa.eps.(s)
    end
  in
  List.iter go set;
  seen

let nfa_cache : (string, int * nfa) Hashtbl.t = Hashtbl.create 256

let nfa_of fn node =
  match Hashtbl.find_opt nfa_cache fn.sk_name with
  | Some sn -> sn
  | None ->
      let sn = compile node in
      Hashtbl.replace nfa_cache fn.sk_name sn;
      sn

let accepts fn letters =
  match fn.sk_body with
  | Wild -> true
  | Body node ->
      let start, nfa = nfa_of fn node in
      let current = ref (closure nfa [ start ]) in
      let dead = ref false in
      List.iter
        (fun letter ->
          if not !dead then begin
            let next = ref [] in
            Array.iteri
              (fun s live ->
                if live then
                  match nfa.sym.(s) with
                  | Some p when p letter -> next := (s + 1) :: !next
                  | _ -> ())
              !current;
            if !next = [] then dead := true
            else current := closure nfa !next
          end)
        letters;
      (not !dead) && !current.(nfa.accept)

(* ---- construction helpers ------------------------------------------ *)

let seq ns = Seq ns
let alt ns = Alt ns
let opt n = Opt n
let star n = Star n
let plus n = Plus n

let call ?(binds = []) name = Call { callees = [ name ]; binds }
let vcall ?(binds = []) callees = Call { callees; binds }

let acquire ?(side = Event.Exclusive) kind lock = Acquire { lock; kind; side }
let release lock = Release lock

let spin_lock l = acquire Event.Spinlock l
let spin_unlock l = release l
let spin_lock_irq l = Seq [ Irq_off; spin_lock l ]
let spin_unlock_irq l = Seq [ release l; Irq_on ]
let spin_lock_bh l = Seq [ Bh_off; spin_lock l ]
let spin_unlock_bh l = Seq [ release l; Bh_on ]
let read_lock l = acquire ~side:Event.Shared Event.Rwlock l
let write_lock l = acquire Event.Rwlock l
let mutex_lock l = acquire Event.Mutex l
let mutex_unlock l = release l
let down l = acquire Event.Semaphore l
let up l = release l
let down_read l = acquire ~side:Event.Shared Event.Rwsem l
let down_write l = acquire Event.Rwsem l
let up_read l = release l
let up_write l = release l
let downgrade_write l = Seq [ release l; acquire ~side:Event.Shared Event.Rwsem l ]

let rcu_lock = Sglobal "rcu"
let with_rcu body =
  Seq
    [ acquire ~side:Event.Shared Event.Rcu rcu_lock; body; release rcu_lock ]

let write_seqlock l = acquire Event.Seqlock l
let write_sequnlock l = release l

(* A seqlock read section retries until the sequence is stable: one or
   more (acquire; body; release) rounds. *)
let read_seq l body =
  Plus (Seq [ acquire ~side:Event.Shared Event.Seqlock l; body; release l ])

let access kind ty var member = Access { ty; var; member; kind }
let read_m ty var member = access Event.Read ty var member
let write_m ty var member = access Event.Write ty var member
let modify_m ty var member =
  Seq [ read_m ty var member; write_m ty var member ]

let with_lock ~lock ~unlock body = Seq [ lock; body; unlock ]
