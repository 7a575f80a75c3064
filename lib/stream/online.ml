module Import = Lockdoc_db.Import
module Store = Lockdoc_db.Store
module Schema = Lockdoc_db.Schema
module Event = Lockdoc_trace.Event
module Dataset = Lockdoc_core.Dataset
module Rule = Lockdoc_core.Rule
module Lockdesc = Lockdoc_core.Lockdesc
module Hypothesis = Lockdoc_core.Hypothesis
module Selection = Lockdoc_core.Selection
module Derivator = Lockdoc_core.Derivator
module Report = Lockdoc_core.Report
module Pool = Lockdoc_util.Pool
module Obs = Lockdoc_obs.Obs

let c_absorbed = Obs.counter "stream.online.accesses"
let c_flips = Obs.counter "stream.online.flips"
let c_freezes = Obs.counter "stream.online.freezes"
let c_rescored = Obs.counter "stream.online.rescored"

(* One observation cell: the unit the batch dataset folds accesses
   into, keyed (allocation, member, transaction) — or the access's own
   id for lock-free accesses, which are singletons. The lock list is
   fixed at creation: every access folded into the cell shares the
   transaction, and {!Dataset.locks_of_txn} reads only immutable store
   rows, so computing it at first-access time equals computing it at
   batch dataset-build time. Only the write-over-read kind can change
   (R -> W, never back). *)
type cell = {
  c_member : string;
  c_locks : Lockdesc.t list;
  mutable c_kind : Rule.access;
  mutable c_rev_accesses : int list;
}

type counter = { mutable sa : int; mutable contrib : int }
(* [sa]: cells in the group complying with the rule — maintained for
   every entry, including those with [contrib = 0], so a rule that
   loses its last generating cell (an R-group cell flipping to W) and
   later regains one still carries the correct support.
   [contrib]: cells currently in the group whose lock list generates
   the rule as one of its ordered subsequences. [contrib > 0] is
   exactly "the rule is in the batch candidate set of this group". *)

(* A group's last freeze result, valid for one (strategy, tac) pair:
   the mined rule and its [Report.mined_rule_to_json] object. *)
type memo = {
  mm_strategy : Selection.strategy option;
  mm_tac : float;
  mm_rule : Derivator.mined * string;
}

type group = {
  mutable g_cells : cell list;  (* unordered; order comes from [order] *)
  mutable g_total : int;  (* [List.length g_cells] *)
  g_rules : (Rule.t, counter) Hashtbl.t;
  mutable g_memo : memo option;
      (* cleared by [group_add] / [group_remove], the only mutators of
         [g_cells] and the counters: a rule depends on its own group
         alone (paper Sec. 5.4), so an untouched group freezes to the
         same bytes. *)
}

type t = {
  eng : Import.engine;
  st : Store.t;
  cells : (int * string * int, cell) Hashtbl.t;
  order : (string, cell list ref) Hashtbl.t;
      (* type key -> cells, newest first (reversed first-access order) *)
  groups : (string * string * Rule.access, group) Hashtbl.t;
  mutable seen : int;  (* access rows absorbed so far *)
}

let create ?filter ?irq_mode ?mode layouts =
  let eng = Import.engine ?filter ?irq_mode ?mode layouts in
  {
    eng;
    st = Import.engine_store eng;
    cells = Hashtbl.create 1024;
    order = Hashtbl.create 32;
    groups = Hashtbl.create 64;
    seen = Store.n_accesses (Import.engine_store eng);
  }

let engine t = t.eng
let store t = t.st
let position t = Import.position t.eng
let stats t = Import.stats t.eng

let group_of t key member kind =
  let gkey = (key, member, kind) in
  match Hashtbl.find_opt t.groups gkey with
  | Some g -> g
  | None ->
      let g =
        { g_cells = []; g_total = 0; g_rules = Hashtbl.create 16; g_memo = None }
      in
      Hashtbl.replace t.groups gkey g;
      g

let group_add g cell =
  let held = cell.c_locks in
  (* Existing rules first: one more cell may comply with them. Then put
     the cell in so that brand-new rules compute their support over the
     full group, the new cell included (it complies with every
     subsequence of its own locks by construction). *)
  Hashtbl.iter
    (fun rule c -> if Rule.complies ~rule ~held then c.sa <- c.sa + 1)
    g.g_rules;
  g.g_cells <- cell :: g.g_cells;
  g.g_total <- g.g_total + 1;
  g.g_memo <- None;
  List.iter
    (fun rule ->
      match Hashtbl.find_opt g.g_rules rule with
      | Some c -> c.contrib <- c.contrib + 1
      | None ->
          let sa =
            List.fold_left
              (fun acc other ->
                if Rule.complies ~rule ~held:other.c_locks then acc + 1
                else acc)
              0 g.g_cells
          in
          Hashtbl.replace g.g_rules rule { sa; contrib = 1 })
    (Rule.subsequences held)

let group_remove g cell =
  let held = cell.c_locks in
  g.g_cells <- List.filter (fun c -> c != cell) g.g_cells;
  g.g_total <- g.g_total - 1;
  g.g_memo <- None;
  Hashtbl.iter
    (fun rule c -> if Rule.complies ~rule ~held then c.sa <- c.sa - 1)
    g.g_rules;
  List.iter
    (fun rule ->
      match Hashtbl.find_opt g.g_rules rule with
      | Some c -> c.contrib <- c.contrib - 1
      | None -> assert false (* inserted when the cell joined *))
    (Rule.subsequences held)

let absorb t (a : Schema.access) =
  Obs.incr c_absorbed;
  let alloc = a.Schema.ac_alloc in
  let al = Store.allocation t.st alloc in
  let key = Schema.type_key (Store.data_type t.st al.Schema.al_type) al in
  let member = a.Schema.ac_member in
  let kind =
    match a.Schema.ac_kind with Event.Read -> Rule.R | Event.Write -> Rule.W
  in
  let ckey =
    match a.Schema.ac_txn with
    | Some txn -> (alloc, member, txn)
    | None -> (alloc, member, -1 - a.Schema.ac_id)
  in
  match Hashtbl.find_opt t.cells ckey with
  | None ->
      let locks =
        match a.Schema.ac_txn with
        | Some txn -> Dataset.locks_of_txn t.st ~accessed_alloc:alloc txn
        | None -> []
      in
      let cell =
        {
          c_member = member;
          c_locks = locks;
          c_kind = kind;
          c_rev_accesses = [ a.Schema.ac_id ];
        }
      in
      Hashtbl.replace t.cells ckey cell;
      (match Hashtbl.find_opt t.order key with
      | Some l -> l := cell :: !l
      | None -> Hashtbl.replace t.order key (ref [ cell ]));
      group_add (group_of t key member kind) cell
  | Some cell ->
      cell.c_rev_accesses <- a.Schema.ac_id :: cell.c_rev_accesses;
      (* Write-over-read: a single write makes the observation a write.
         The cell moves between groups; its position in the type key's
         first-access order is unchanged, matching the batch fold. *)
      if cell.c_kind = Rule.R && kind = Rule.W then begin
        Obs.incr c_flips;
        group_remove (group_of t key member Rule.R) cell;
        cell.c_kind <- Rule.W;
        group_add (group_of t key member Rule.W) cell
      end

let drain t =
  let n = Store.n_accesses t.st in
  while t.seen < n do
    absorb t (Store.access t.st t.seen);
    t.seen <- t.seen + 1
  done

let feed t ev =
  Import.feed t.eng ev;
  drain t

let finalize t =
  let stats = Import.finalize t.eng in
  drain t;
  stats

let dataset t =
  let obs_of cell =
    {
      Dataset.o_member = cell.c_member;
      o_kind = cell.c_kind;
      o_locks = cell.c_locks;
      o_accesses = List.rev cell.c_rev_accesses;
    }
  in
  let assoc =
    Hashtbl.fold
      (fun key cells acc -> (key, List.rev_map obs_of !cells) :: acc)
      t.order []
  in
  Dataset.of_groups t.st assoc

(* Re-score one group from its counters: the same [mined] value
   [Derivator.derive_member] computes from the group's observations. *)
let mine ?strategy ~tac (key, member, kind) g =
  let total = g.g_total in
  let scored =
    Hashtbl.fold
      (fun rule c acc ->
        if c.contrib > 0 then
          {
            Hypothesis.rule;
            support =
              {
                Hypothesis.sa = c.sa;
                sr = float_of_int c.sa /. float_of_int total;
              };
          }
          :: acc
        else acc)
      g.g_rules []
  in
  (* [sort_scored] is a total order over distinct rules, so the
     arbitrary Hashtbl fold order above sorts to exactly the list
     [Hypothesis.enumerate] would have produced. *)
  let hypotheses = Hypothesis.sort_scored scored in
  let winner = Selection.select ?strategy ~tac hypotheses in
  let m =
    {
      Derivator.m_type = key;
      m_member = member;
      m_kind = kind;
      m_total = total;
      m_winner = winner.Hypothesis.rule;
      m_support = winner.Hypothesis.support;
      m_hypotheses = hypotheses;
    }
  in
  (m, Report.mined_rule_to_json m)

let freeze_json ?strategy ?(tac = Derivator.default_tac) ?(jobs = 1) t =
  Obs.incr c_freezes;
  (* The non-empty groups in [Derivator.groups] order: type keys, then
     (member, kind), ascending — structural order on the triple. *)
  let live =
    Hashtbl.fold
      (fun gkey g acc -> if g.g_total > 0 then (gkey, g) :: acc else acc)
      t.groups []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let fresh (_, g) =
    match g.g_memo with
    | Some mm -> mm.mm_strategy = strategy && Float.equal mm.mm_tac tac
    | None -> false
  in
  let dirty = List.filter (fun e -> not (fresh e)) live in
  Obs.add c_rescored (List.length dirty);
  (* Workers only read the counters; memos are written back here, on
     the calling domain. *)
  let rules =
    Pool.map ~jobs (fun (gkey, g) -> mine ?strategy ~tac gkey g) dirty
  in
  List.iter2
    (fun (_, g) rule ->
      g.g_memo <- Some { mm_strategy = strategy; mm_tac = tac; mm_rule = rule })
    dirty rules;
  ( dataset t,
    List.map
      (fun (_, g) ->
        match g.g_memo with Some mm -> mm.mm_rule | None -> assert false)
      live )

let freeze ?strategy ?tac ?jobs t =
  let dataset, rules = freeze_json ?strategy ?tac ?jobs t in
  (dataset, List.map fst rules)
