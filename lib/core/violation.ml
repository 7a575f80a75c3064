module Schema = Lockdoc_db.Schema
module Store = Lockdoc_db.Store
module Obs = Lockdoc_obs.Obs

let c_groups = Obs.counter "violations.groups"
let c_found = Obs.counter "violations.found"

type violation = {
  v_type : string;
  v_member : string;
  v_kind : Rule.access;
  v_rule : Rule.t;
  v_held : Lockdesc.t list;
  v_events : int;
  v_loc : Lockdoc_trace.Srcloc.t;
  v_stack : string list;
}

let applies (m : Derivator.mined) =
  not
    (Rule.equal m.Derivator.m_winner Rule.no_lock
    || m.Derivator.m_support.Hypothesis.sr >= 1.)

let check store (m : Derivator.mined) (o : Dataset.obs) =
  if Rule.complies ~rule:m.Derivator.m_winner ~held:o.Dataset.o_locks then None
  else
    let first_access = Store.access store o.Dataset.o_first in
    Some
      {
        v_type = m.Derivator.m_type;
        v_member = m.Derivator.m_member;
        v_kind = m.Derivator.m_kind;
        v_rule = m.Derivator.m_winner;
        v_held = o.Dataset.o_locks;
        v_events = o.Dataset.o_events;
        v_loc = first_access.Schema.ac_loc;
        v_stack = Store.stack store first_access.Schema.ac_stack;
      }

let note ~rules ~found =
  Obs.add c_groups rules;
  Obs.add c_found found

(* One pass over the cells of each type key the wanted groups belong
   to, newest first, collects each wanted group's cells in first-access
   order — [Dataset.by_member]'s order — without a scan per group. *)
let scan dataset wanted =
  let store = Dataset.store dataset in
  let n = List.fold_left (fun n (g, _) -> max n (Dataset.id g + 1)) 0 wanted in
  let want = Array.make n false and cells = Array.make n [] in
  List.iter (fun (g, _) -> want.(Dataset.id g) <- true) wanted;
  List.map (fun (g, _) -> let ty, _, _ = Dataset.key g in ty) wanted
  |> List.sort_uniq String.compare
  |> List.iter (fun ty ->
         List.iter
           (fun (o : Dataset.obs) ->
             let id = Dataset.id o.Dataset.o_group in
             if id < n && want.(id) then cells.(id) <- o :: cells.(id))
           (Dataset.observations_rev dataset ty));
  List.map
    (fun (g, m) -> List.filter_map (check store m) cells.(Dataset.id g))
    wanted

let find ?jobs:_ dataset mined =
  let wanted =
    List.filter_map
      (fun (m : Derivator.mined) ->
        if not (applies m) then None
        else
          Dataset.find_group dataset
            (m.Derivator.m_type, m.Derivator.m_member, m.Derivator.m_kind)
          |> Option.map (fun g -> (g, m)))
      mined
  in
  let out = List.concat (scan dataset wanted) in
  note ~rules:(List.length mined) ~found:(List.length out);
  out

type summary = {
  vs_type : string;
  vs_events : int;
  vs_members : int;
  vs_contexts : int;
}

let contexts violations =
  List.map (fun v -> (v.v_loc, v.v_stack)) violations
  |> List.sort_uniq compare

let summarise violations ty =
  let rows = List.filter (fun v -> v.v_type = ty) violations in
  {
    vs_type = ty;
    vs_events = List.fold_left (fun acc v -> acc + v.v_events) 0 rows;
    vs_members =
      List.length (List.sort_uniq compare (List.map (fun v -> v.v_member) rows));
    vs_contexts = List.length (contexts rows);
  }
