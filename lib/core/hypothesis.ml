type support = { sa : int; sr : float }

type scored = { rule : Rule.t; support : support }

type combos = (Lockdesc.t list * int) list

let total combos = List.fold_left (fun acc (_, n) -> acc + n) 0 combos

let support_in ~total rule combos =
  let sa =
    List.fold_left
      (fun acc (held, n) -> if Rule.complies ~rule ~held then acc + n else acc)
      0 combos
  in
  { sa; sr = (if total = 0 then 0. else float_of_int sa /. float_of_int total) }

let support_of rule combos = support_in ~total:(total combos) rule combos

let sort_scored scored =
  List.sort
    (fun a b ->
      match Int.compare b.support.sa a.support.sa with
      | 0 -> (
          match Int.compare (List.length b.rule) (List.length a.rule) with
          | 0 -> Rule.compare a.rule b.rule
          | c -> c)
      | c -> c)
    scored

let score_all rules combos =
  let total = total combos in
  List.map (fun rule -> { rule; support = support_in ~total rule combos }) rules
  |> sort_scored

let score combos =
  let candidate_rules =
    List.concat_map (fun (locks, _) -> Rule.subsequences locks) combos
    |> Rule.dedup_rules
  in
  (* [Rule.subsequences] of any combination includes []; on an empty
     multiset still offer the no-lock rule. *)
  let candidate_rules =
    if candidate_rules = [] then [ Rule.no_lock ] else candidate_rules
  in
  score_all candidate_rules combos

let enumerate_exhaustive ?(max_locks = 4) combos =
  let union =
    List.concat_map fst combos |> List.sort_uniq Lockdesc.compare
  in
  if List.length union > max_locks then score combos
  else score_all (Rule.permuted_subsets union) combos
