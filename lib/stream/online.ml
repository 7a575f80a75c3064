module Import = Lockdoc_db.Import
module Store = Lockdoc_db.Store
module Dataset = Lockdoc_core.Dataset
module Selection = Lockdoc_core.Selection
module Derivator = Lockdoc_core.Derivator
module Report = Lockdoc_core.Report
module Obs = Lockdoc_obs.Obs

let c_absorbed = Obs.counter "stream.online.accesses"
let c_flips = Obs.counter "stream.online.flips"
let c_freezes = Obs.counter "stream.online.freezes"
let c_rescored = Obs.counter "stream.online.rescored"

(* A group's last freeze result, valid while the group keeps the stamp
   it had then and for one (strategy, tac) pair: the mined rule and its
   [Report.mined_rule_to_json] object. *)
type memo = {
  mm_stamp : int;
  mm_strategy : Selection.strategy option;
  mm_tac : float;
  mm_rule : Derivator.mined * string;
}

type t = {
  eng : Import.engine;
  st : Store.t;
  ds : Dataset.t;
  memos : (Dataset.key, memo) Hashtbl.t;
  mutable seen : int;  (* access rows absorbed so far *)
}

let create layouts =
  let eng = Import.engine layouts in
  let st = Import.engine_store eng in
  {
    eng;
    st;
    ds = Dataset.create st;
    memos = Hashtbl.create 64;
    seen = Store.n_accesses st;
  }

let engine t = t.eng
let store t = t.st
let dataset t = t.ds
let position t = Import.position t.eng
let stats t = Import.stats t.eng

let drain t =
  let n = Store.n_accesses t.st in
  if t.seen < n then begin
    let flips = Dataset.flips t.ds in
    for id = t.seen to n - 1 do
      Dataset.absorb t.ds (Store.access t.st id)
    done;
    Obs.add c_absorbed (n - t.seen);
    Obs.add c_flips (Dataset.flips t.ds - flips);
    t.seen <- n
  end

let feed t ev =
  Import.feed t.eng ev;
  drain t

let finalize t =
  let stats = Import.finalize t.eng in
  drain t;
  stats

let freeze_json ?strategy ?(tac = Derivator.default_tac) t =
  Obs.incr c_freezes;
  let live = Dataset.groups t.ds in
  let rule (key, g) =
    match Hashtbl.find_opt t.memos key with
    | Some mm
      when mm.mm_stamp = Dataset.stamp g
           && mm.mm_strategy = strategy
           && Float.equal mm.mm_tac tac ->
        mm.mm_rule
    | _ ->
        Obs.incr c_rescored;
        let m = Derivator.derive_group ?strategy ~tac key g in
        let rule = (m, Report.mined_rule_to_json m) in
        Hashtbl.replace t.memos key
          { mm_stamp = Dataset.stamp g; mm_strategy = strategy; mm_tac = tac;
            mm_rule = rule };
        rule
  in
  (t.ds, List.map rule live)

let freeze ?strategy ?tac t =
  let dataset, rules = freeze_json ?strategy ?tac t in
  (dataset, List.map fst rules)
