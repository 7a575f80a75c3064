module Obs = Lockdoc_obs.Obs

let c_specs = Obs.counter "check.specs"

type verdict = Correct | Ambivalent | Incorrect | Unobserved

type checked = {
  c_type : string;
  c_member : string;
  c_kind : Rule.access;
  c_rule : Rule.t;
  c_support : Hypothesis.support;
  c_verdict : verdict;
}

let verdict_to_string = function
  | Correct -> "correct"
  | Ambivalent -> "ambivalent"
  | Incorrect -> "incorrect"
  | Unobserved -> "unobserved"

let check_rule dataset ~ty ~member ~kind rule =
  let combos =
    Option.value ~default:[]
      (List.assoc_opt (member, kind) (Dataset.merged dataset ty))
  in
  let support = Hypothesis.support_of rule combos in
  let verdict =
    if combos = [] then Unobserved
    else if support.Hypothesis.sr >= 1. then Correct
    else if support.Hypothesis.sa = 0 then Incorrect
    else Ambivalent
  in
  { c_type = ty; c_member = member; c_kind = kind; c_rule = rule;
    c_support = support; c_verdict = verdict }

type spec = {
  sp_type : string;
  sp_member : string;
  sp_kind : Rule.access;
  sp_rule : Rule.t;
}

let check_many dataset specs =
  Obs.add c_specs (List.length specs);
  List.map
    (fun s ->
      check_rule dataset ~ty:s.sp_type ~member:s.sp_member ~kind:s.sp_kind
        s.sp_rule)
    specs

type summary = {
  s_type : string;
  s_rules : int;
  s_unobserved : int;
  s_observed : int;
  s_correct : int;
  s_ambivalent : int;
  s_incorrect : int;
}

let summarise checked ty =
  let rows = List.filter (fun c -> c.c_type = ty) checked in
  let count verdict =
    List.length (List.filter (fun c -> c.c_verdict = verdict) rows)
  in
  let unobserved = count Unobserved in
  {
    s_type = ty;
    s_rules = List.length rows;
    s_unobserved = unobserved;
    s_observed = List.length rows - unobserved;
    s_correct = count Correct;
    s_ambivalent = count Ambivalent;
    s_incorrect = count Incorrect;
  }
