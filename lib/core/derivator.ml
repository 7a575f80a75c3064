module Obs = Lockdoc_obs.Obs

let c_groups = Obs.counter "derive.groups"
let c_hypotheses = Obs.counter "derive.hypotheses"
let c_observations = Obs.counter "derive.observations"

type mined = {
  m_type : string;
  m_member : string;
  m_kind : Rule.access;
  m_total : int;
  m_winner : Rule.t;
  m_support : Hypothesis.support;
  m_hypotheses : Hypothesis.scored list;
}

let default_tac = 0.9

let derive_combos ?strategy ?(tac = default_tac) (ty, member, kind) combos =
  let hypotheses = Hypothesis.score combos in
  let total = Hypothesis.total combos in
  Obs.incr c_groups;
  Obs.add c_hypotheses (List.length hypotheses);
  Obs.add c_observations total;
  let winner = Selection.select ?strategy ~tac hypotheses in
  {
    m_type = ty;
    m_member = member;
    m_kind = kind;
    m_total = total;
    m_winner = winner.Hypothesis.rule;
    m_support = winner.Hypothesis.support;
    m_hypotheses = hypotheses;
  }

let derive_group ?strategy ?tac key group =
  derive_combos ?strategy ?tac key (Dataset.combos group)

let derive_member ?strategy ?tac dataset key ~member ~kind =
  derive_combos ?strategy ?tac (key, member, kind)
    (Dataset.combos_of dataset (key, member, kind))

let derive_merged ?strategy ?tac dataset base =
  List.map
    (fun ((member, kind), combos) ->
      derive_combos ?strategy ?tac (base, member, kind) combos)
    (Dataset.merged dataset base)

(* Groups come in canonical order (type keys, then (member, kind),
   ascending), and the rules keep it. *)
let derive_groups ?strategy ?tac groups =
  List.map (fun (key, g) -> derive_group ?strategy ?tac key g) groups

let derive_type ?strategy ?tac dataset ty =
  Dataset.groups dataset
  |> List.filter (fun ((key, _, _), _) -> key = ty)
  |> derive_groups ?strategy ?tac

let derive_all ?strategy ?tac ?jobs:_ dataset =
  derive_groups ?strategy ?tac (Dataset.groups dataset)

let needs_no_lock mined = Rule.equal mined.m_winner Rule.no_lock
