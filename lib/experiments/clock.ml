(** Tab. 1 and Tab. 2: the shared-clock example of paper Sec. 4.

    Both tables come from one trace of the {!Lockdoc_ksim.Clock_example}
    workload: 1000 correct ticks plus one carry that forgot [min_lock]. *)

module Tablefmt = Lockdoc_util.Tablefmt
module Event = Lockdoc_trace.Event
module Schema = Lockdoc_db.Schema
module Store = Lockdoc_db.Store
module Import = Lockdoc_db.Import
module Dataset = Lockdoc_core.Dataset
module Rule = Lockdoc_core.Rule
module Hypothesis = Lockdoc_core.Hypothesis

type pipeline = { store : Store.t; dataset : Dataset.t }

let pipeline () =
  let trace = Lockdoc_ksim.Clock_example.run () in
  let store, _stats = Import.run trace in
  { store; dataset = Dataset.of_store store }

(* Classify a transaction of the clock trace: a = (sec_lock), b =
   (sec_lock -> min_lock). *)
let txn_class store txn_id =
  let txn = Store.txn store txn_id in
  let names =
    List.map
      (fun h -> (Store.lock store h.Schema.h_lock).Schema.lk_name)
      txn.Schema.tx_locks
  in
  match names with
  | [ "sec_lock" ] -> Some `A
  | [ "sec_lock"; "min_lock" ] -> Some `B
  | _ -> None

(* Raw per-transaction access counts for the last carry tick: the b
   transaction and the enclosing a transaction it nests in. *)
let representative_counts p =
  let accesses = Store.accesses_of_type p.store "clock" in
  (* Transactions of class b, in trace order, and the a transaction each
     nests in (the latest a opened before it). *)
  let b_txns =
    List.filter_map (fun a -> a.Schema.ac_txn) accesses
    |> List.sort_uniq compare
    |> List.filter (fun id -> txn_class p.store id = Some `B)
  in
  match List.rev b_txns with
  | [] -> invalid_arg "clock trace contains no carry transaction"
  | b :: _ ->
      let a_of_b =
        List.filter_map (fun acc -> acc.Schema.ac_txn) accesses
        |> List.sort_uniq compare
        |> List.filter (fun id -> id < b && txn_class p.store id = Some `A)
        |> List.fold_left max (-1)
      in
      let count txn member kind =
        List.length
          (List.filter
             (fun acc ->
               acc.Schema.ac_txn = Some txn
               && acc.Schema.ac_member = member
               && acc.Schema.ac_kind = kind)
             accesses)
      in
      (count a_of_b, count b)

let render_tab1 p =
  let count_a, count_b = representative_counts p in
  let table =
    Tablefmt.create
      ~header:
        [ "Variable"; "Access"; "Obs a"; "Obs b"; "Fold a"; "Fold b";
          "WoR a"; "WoR b" ]
  in
  Tablefmt.set_align table
    [ Tablefmt.Left; Tablefmt.Left; Tablefmt.Right; Tablefmt.Right;
      Tablefmt.Right; Tablefmt.Right; Tablefmt.Right; Tablefmt.Right ];
  let fold n = min n 1 in
  List.iter
    (fun member ->
      let ra = count_a member Event.Read and wa = count_a member Event.Write in
      let rb = count_b member Event.Read and wb = count_b member Event.Write in
      (* Write-over-read: a folded read is suppressed when the same
         transaction also wrote the variable. *)
      let wor_r n_r n_w = if fold n_w = 1 then 0 else fold n_r in
      List.iter
        (fun (kind, oa, ob, fa, fb, worA, worB) ->
          Tablefmt.add_row table
            [
              member; kind; string_of_int oa; string_of_int ob;
              string_of_int fa; string_of_int fb; string_of_int worA;
              string_of_int worB;
            ])
        [
          ("r", ra, rb, fold ra, fold rb, wor_r ra wa, wor_r rb wb);
          ("w", wa, wb, fold wa, fold wb, fold wa, fold wb);
        ])
    [ "seconds"; "minutes" ];
  "Table 1 — clock-example accesses by transaction (Observed / Folded / WoR)\n"
  ^ Tablefmt.render table

let render_tab2 p =
  let combos = Dataset.combos_of p.dataset ("clock", "minutes", Rule.W) in
  let scored = Hypothesis.enumerate_exhaustive combos in
  (* Order as in the paper's Tab. 2: #0 no lock, then by notation. *)
  let ordered =
    List.sort
      (fun a b ->
        Int.compare (List.length a.Hypothesis.rule) (List.length b.Hypothesis.rule)
        |> function
        | 0 -> Rule.compare a.Hypothesis.rule b.Hypothesis.rule
        | c -> c)
      scored
  in
  let table = Tablefmt.create ~header:[ "ID"; "Locking Hypothesis"; "sa"; "sr" ] in
  Tablefmt.set_align table
    [ Tablefmt.Left; Tablefmt.Left; Tablefmt.Right; Tablefmt.Right ];
  List.iteri
    (fun i s ->
      let rule_str =
        if Rule.equal s.Hypothesis.rule Rule.no_lock then "no lock needed"
        else Rule.to_string s.Hypothesis.rule
      in
      Tablefmt.add_row table
        [
          Printf.sprintf "#%d" i;
          rule_str;
          string_of_int s.Hypothesis.support.Hypothesis.sa;
          Printf.sprintf "%.2f%%" (100. *. s.Hypothesis.support.Hypothesis.sr);
        ])
    ordered;
  Printf.sprintf
    "Table 2 — hypotheses for writes to `minutes' (%d observations)\n%s"
    (Hypothesis.total combos) (Tablefmt.render table)

let render () =
  let p = pipeline () in
  render_tab1 p ^ "\n\n" ^ render_tab2 p

let render_tab1_only () = render_tab1 (pipeline ())
let render_tab2_only () = render_tab2 (pipeline ())
