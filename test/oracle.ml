(* A brute-force LockDoc miner: the oracle the derivation engine
   ([Dataset] + [Hypothesis.score] + [Selection]) is compared against.

   It follows the paper's definitions literally (Sec. 4.2, 4.3, 5.4)
   and shares none of the engine's bookkeeping:

   - fold the store's access rows into observations keyed (allocation,
     member, transaction) — lock-free accesses stay singletons — with
     write-over-read settled on the cell itself, never by moving counts
     between groups;
   - per (type key, member, access kind), list the ordered subsets of
     every observation's locks, one observation at a time;
   - score each candidate by checking every observation one by one;
   - select with the Lockdoc and Naive strategies.

   Only the positional lock classification ([Dataset.locks_of_txn]),
   the canonical rule order ([Rule.compare]) and the report encoders
   are borrowed, so outputs can be compared byte for byte. *)

module Schema = Lockdoc_db.Schema
module Store = Lockdoc_db.Store
module Event = Lockdoc_trace.Event
module Dataset = Lockdoc_core.Dataset
module Rule = Lockdoc_core.Rule
module Hypothesis = Lockdoc_core.Hypothesis
module Selection = Lockdoc_core.Selection
module Derivator = Lockdoc_core.Derivator
module Violation = Lockdoc_core.Violation

type obs = {
  ty : string;
  member : string;
  mutable kind : Rule.access;
  locks : Lockdoc_core.Lockdesc.t list;
  first : int;
  mutable events : int;
}

(* Observations in first-access order. *)
let fold ?(wor = true) ?(side_sensitive = false) store =
  let cells = Hashtbl.create 256 and order = ref [] in
  for id = 0 to Store.n_accesses store - 1 do
    let a = Store.access store id in
    let kind = if a.Schema.ac_kind = Event.Write then Rule.W else Rule.R in
    let cell =
      ( a.Schema.ac_alloc,
        a.Schema.ac_member,
        match a.Schema.ac_txn with Some txn -> txn | None -> -1 - id )
    in
    match Hashtbl.find_opt cells cell with
    | Some o ->
        o.events <- o.events + 1;
        if wor && kind = Rule.W then o.kind <- Rule.W
    | None ->
        let al = Store.allocation store a.Schema.ac_alloc in
        let o =
          {
            ty = Schema.type_key (Store.data_type store al.Schema.al_type) al;
            member = a.Schema.ac_member;
            kind;
            locks =
              (match a.Schema.ac_txn with
              | Some txn ->
                  Dataset.locks_of_txn ~side_sensitive store
                    ~accessed_alloc:a.Schema.ac_alloc txn
              | None -> []);
            first = id;
            events = 1;
          }
        in
        Hashtbl.replace cells cell o;
        order := o :: !order
  done;
  List.rev !order

(* A held list may name a lock twice (recursive re-acquisition); its
   hypotheses use the first occurrence. *)
let rec dedup = function
  | [] -> []
  | l :: rest -> l :: dedup (List.filter (fun x -> x <> l) rest)

let rec ordered_subsets = function
  | [] -> [ [] ]
  | l :: rest ->
      let subs = ordered_subsets rest in
      List.map (fun s -> l :: s) subs @ subs

let rec complies rule held =
  match (rule, held) with
  | [], _ -> true
  | _, [] -> false
  | r :: rrest, h :: hrest ->
      if r = h then complies rrest hrest else complies rule hrest

let hypotheses observations =
  let total = List.length observations in
  List.concat_map (fun o -> ordered_subsets (dedup o.locks)) observations
  |> List.sort_uniq Rule.compare
  |> List.map (fun rule ->
         let sa =
           List.length (List.filter (fun o -> complies rule o.locks) observations)
         in
         {
           Hypothesis.rule;
           support =
             { Hypothesis.sa; sr = float_of_int sa /. float_of_int total };
         })
  |> List.sort (fun a b ->
         compare
           (-a.Hypothesis.support.Hypothesis.sa, -List.length a.Hypothesis.rule)
           (-b.Hypothesis.support.Hypothesis.sa, -List.length b.Hypothesis.rule)
         |> function
         | 0 -> Rule.compare a.Hypothesis.rule b.Hypothesis.rule
         | c -> c)

(* Lockdoc: the lowest sr at or above tac, ties to more locks. Naive:
   the highest sr among rules with locks if it clears tac, ties to the
   earlier hypothesis; otherwise "no lock". *)
let select strategy ~tac scored =
  let sr s = s.Hypothesis.support.Hypothesis.sr in
  let locks s = List.length s.Hypothesis.rule in
  let accepted = List.filter (fun s -> sr s >= tac) scored in
  let first_of cmp l =
    match List.stable_sort cmp l with
    | s :: _ -> s
    | [] -> List.find (fun s -> s.Hypothesis.rule = Rule.no_lock) scored
  in
  match strategy with
  | Selection.Lockdoc ->
      first_of
        (fun a b ->
          match compare (sr a, -locks a) (sr b, -locks b) with
          | 0 -> Rule.compare a.Hypothesis.rule b.Hypothesis.rule
          | c -> c)
        accepted
  | Selection.Naive ->
      first_of
        (fun a b -> compare (sr b) (sr a))
        (List.filter (fun s -> s.Hypothesis.rule <> Rule.no_lock) accepted)

(* The groups of a fold, in canonical (type key, member, kind) order,
   each with its observations in first-access order. *)
let groups observations =
  List.map (fun o -> (o.ty, o.member, o.kind)) observations
  |> List.sort_uniq compare
  |> List.map (fun ((ty, member, kind) as key) ->
         ( key,
           List.filter
             (fun o -> o.ty = ty && o.member = member && o.kind = kind)
             observations ))

let mine strategy ~tac observations =
  List.map
    (fun ((ty, member, kind), obs) ->
      let scored = hypotheses obs in
      let winner = select strategy ~tac scored in
      ( {
          Derivator.m_type = ty;
          m_member = member;
          m_kind = kind;
          m_total = List.length obs;
          m_winner = winner.Hypothesis.rule;
          m_support = winner.Hypothesis.support;
          m_hypotheses = scored;
        },
        obs ))
    (groups observations)

let violations store mined =
  List.concat_map
    (fun ((m : Derivator.mined), obs) ->
      if m.Derivator.m_winner = Rule.no_lock || m.Derivator.m_support.Hypothesis.sr >= 1.
      then []
      else
        List.filter_map
          (fun o ->
            if complies m.Derivator.m_winner o.locks then None
            else
              let a = Store.access store o.first in
              Some
                {
                  Violation.v_type = o.ty;
                  v_member = o.member;
                  v_kind = o.kind;
                  v_rule = m.Derivator.m_winner;
                  v_held = o.locks;
                  v_events = o.events;
                  v_loc = a.Schema.ac_loc;
                  v_stack = Store.stack store a.Schema.ac_stack;
                })
          obs)
    mined

(* The (rules JSON, violations JSON) pair the engine must reproduce. *)
let outputs ?wor ?side_sensitive ~strategy ~tac store =
  let mined = mine strategy ~tac (fold ?wor ?side_sensitive store) in
  ( Lockdoc_core.Report.mined_to_json (List.map fst mined),
    Lockdoc_core.Report.violations_to_json (violations store mined) )
