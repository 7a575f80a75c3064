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

let find ?jobs:_ dataset mined =
  let store = Dataset.store dataset in
  Obs.add c_groups (List.length mined);
  let out =
    List.concat_map
    (fun (m : Derivator.mined) ->
      if
        Rule.equal m.Derivator.m_winner Rule.no_lock
        || m.Derivator.m_support.Hypothesis.sr >= 1.
      then []
      else
        Dataset.by_member dataset m.Derivator.m_type
          ~member:m.Derivator.m_member ~kind:m.Derivator.m_kind
        |> List.filter_map (fun (o : Dataset.obs) ->
               if Rule.complies ~rule:m.Derivator.m_winner ~held:o.Dataset.o_locks
               then None
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
                   }))
      mined
  in
  Obs.add c_found (List.length out);
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
