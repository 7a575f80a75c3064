module Pool = Lockdoc_util.Pool
module Store = Lockdoc_db.Store
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

(* Workers only read the dataset (and through it the store). Seal the
   store before fanning out so any later mutation attempt fails loudly
   instead of racing — see DESIGN.md 5d. *)
let seal_for ~jobs dataset =
  if jobs > 1 then Store.seal (Dataset.store dataset)

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

let derive_merged ?strategy ?tac ?(jobs = 1) dataset base =
  seal_for ~jobs dataset;
  Pool.map ~jobs
    (fun ((member, kind), combos) ->
      derive_combos ?strategy ?tac (base, member, kind) combos)
    (Dataset.merged dataset base)

(* Groups come in canonical order (type keys, then (member, kind),
   ascending). That order is both the sharding unit and the merge order
   of the parallel path, which is what makes [derive_all ~jobs:n]
   bit-identical to the sequential left-to-right map for every [n]. *)
let derive_groups ?strategy ?tac ~jobs dataset groups =
  seal_for ~jobs dataset;
  Pool.map ~jobs (fun (key, g) -> derive_group ?strategy ?tac key g) groups

let derive_type ?strategy ?tac ?(jobs = 1) dataset ty =
  Dataset.groups dataset
  |> List.filter (fun ((key, _, _), _) -> key = ty)
  |> derive_groups ?strategy ?tac ~jobs dataset

let derive_all ?strategy ?tac ?(jobs = 1) dataset =
  derive_groups ?strategy ?tac ~jobs dataset (Dataset.groups dataset)

let needs_no_lock mined = Rule.equal mined.m_winner Rule.no_lock
