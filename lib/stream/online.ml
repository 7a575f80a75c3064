module Import = Lockdoc_db.Import
module Store = Lockdoc_db.Store
module Dataset = Lockdoc_core.Dataset
module Selection = Lockdoc_core.Selection
module Derivator = Lockdoc_core.Derivator
module Report = Lockdoc_core.Report
module Rule = Lockdoc_core.Rule
module Violation = Lockdoc_core.Violation
module Vec = Lockdoc_util.Vec
module Obs = Lockdoc_obs.Obs

let c_absorbed = Obs.counter "stream.online.accesses"
let c_flips = Obs.counter "stream.online.flips"
let c_freezes = Obs.counter "stream.online.freezes"
let c_rescored = Obs.counter "stream.online.rescored"

(* A group's last scored rule and its [Report.add_mined_rule] object,
   valid while the group keeps the stamp it had then and for one
   (strategy, tac) pair. *)
type memo = {
  mm_stamp : int;
  mm_strategy : Selection.strategy option;
  mm_tac : float;
  mm_rule : Derivator.mined * string;
}

(* A group's violations of one rule and their objects joined by commas
   ("" for none), valid while the group keeps its touched counter. *)
type vmemo = {
  vm_touched : int;
  vm_rule : Rule.t;
  vm_list : Violation.violation list;
  vm_json : string;
}

type t = {
  eng : Import.engine;
  st : Store.t;
  ds : Dataset.t;
  strings : Report.strings;  (* rendered rules, shared by every freeze *)
  buf : Buffer.t;  (* scratch for one group's objects *)
  (* Per-group tables, by [Dataset.id]: *)
  memos : memo option Vec.t;
  vmemos : vmemo option Vec.t;
  mutable params : (Selection.strategy option * float) option;
      (* of the last freeze: with the same, only dirty groups can have
         a stale memo *)
  mutable seen : int;  (* access rows absorbed so far *)
}

let create layouts =
  let eng = Import.engine layouts in
  let st = Import.engine_store eng in
  {
    eng;
    st;
    ds = Dataset.create st;
    strings = Report.strings ();
    buf = Buffer.create 4096;
    memos = Vec.create ();
    vmemos = Vec.create ();
    params = None;
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
      Dataset.absorb t.ds id
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

let slot v g =
  let id = Dataset.id g in
  while Vec.length v <= id do
    ignore (Vec.push v None)
  done;
  id

(* Bring every live group's rule memo up to date and return the live
   groups with their memos, in canonical order. With the parameters of
   the last freeze, a group that is not dirty kept its stamp, hence its
   memo; otherwise every live group is checked. *)
let freeze_groups ?strategy ~tac t =
  Obs.incr c_freezes;
  let fresh g id =
    match Vec.get t.memos id with
    | Some mm ->
        mm.mm_stamp = Dataset.stamp g
        && mm.mm_strategy = strategy
        && Float.equal mm.mm_tac tac
    | None -> false
  in
  let refresh g =
    let id = slot t.memos g in
    if not (fresh g id) then begin
      Obs.incr c_rescored;
      let m = Derivator.derive_group ?strategy ~tac (Dataset.key g) g in
      let json = Report.fill t.buf (fun b -> Report.add_mined_rule t.strings b m) in
      Vec.set t.memos id
        (Some
           { mm_stamp = Dataset.stamp g; mm_strategy = strategy; mm_tac = tac;
             mm_rule = (m, json) })
    end
  in
  let dirty = Dataset.take_dirty t.ds in
  let live = Dataset.groups t.ds in
  if t.params = Some (strategy, tac) then List.iter refresh dirty
  else List.iter (fun (_, g) -> refresh g) live;
  t.params <- Some (strategy, tac);
  List.map
    (fun (_, g) ->
      match Vec.get t.memos (Dataset.id g) with
      | Some mm -> (g, mm.mm_rule)
      | None -> assert false)
    live

let freeze_json ?strategy ?(tac = Derivator.default_tac) t =
  (t.ds, List.map snd (freeze_groups ?strategy ~tac t))

let freeze ?strategy ?tac t =
  let dataset, rules = freeze_json ?strategy ?tac t in
  (dataset, List.map fst rules)

(* The violations of every live group whose rule can be violated, from
   its memo while the group's touched counter and rule are unchanged;
   the stale groups go through one [Violation.scan]. *)
let violations t rules =
  let fresh g (m : Derivator.mined) id =
    match Vec.get t.vmemos id with
    | Some vm ->
        vm.vm_touched = Dataset.touched g
        && (vm.vm_rule == m.Derivator.m_winner
           || Rule.equal vm.vm_rule m.Derivator.m_winner)
    | None -> false
  in
  let stale =
    List.filter_map
      (fun (g, (m, _)) ->
        let id = slot t.vmemos g in
        if Violation.applies m && not (fresh g m id) then Some (g, m) else None)
      rules
  in
  List.iter2
    (fun (g, (m : Derivator.mined)) list ->
      let json =
        Report.fill t.buf (fun b ->
            Report.add_joined (Report.add_violation t.strings) b list)
      in
      Vec.set t.vmemos (Dataset.id g)
        (Some
           { vm_touched = Dataset.touched g; vm_rule = m.Derivator.m_winner;
             vm_list = list; vm_json = json }))
    stale
    (Violation.scan t.ds stale);
  let out =
    List.filter_map
      (fun (g, (m, _)) ->
        if not (Violation.applies m) then None
        else
          match Vec.get t.vmemos (Dataset.id g) with
          | Some { vm_list = []; _ } | None -> None
          | Some vm -> Some (vm.vm_list, vm.vm_json))
      rules
  in
  Violation.note ~rules:(List.length rules)
    ~found:(List.fold_left (fun n (list, _) -> n + List.length list) 0 out);
  out

let freeze_report ?strategy ?(tac = Derivator.default_tac) t =
  let rules = freeze_groups ?strategy ~tac t in
  (List.map snd rules, violations t rules)
