module Event = Lockdoc_trace.Event
module Layout = Lockdoc_trace.Layout
module Trace = Lockdoc_trace.Trace
module Import = Lockdoc_db.Import
module Filter = Lockdoc_db.Filter
module Rule = Lockdoc_core.Rule
module Lockdesc = Lockdoc_core.Lockdesc
module Dataset = Lockdoc_core.Dataset
module Derivator = Lockdoc_core.Derivator
module Lockdep = Lockdoc_core.Lockdep
module Report = Lockdoc_core.Report
module Tablefmt = Lockdoc_util.Tablefmt
module Structs = Lockdoc_ksim.Structs
module Skeleton = Lockdoc_ksim.Skeleton

(* Referencing Run forces the whole ksim library — and with it every
   skeleton registration initialiser — to be linked. *)
let () = ignore Lockdoc_ksim.Run.workload_names

type violation = {
  v_site : Summary.site;
  v_rule : Rule.t;
  v_held : Lockdesc.t list;
  v_support : float;
  v_witness : string list;
}

type unprotected = {
  u_site : Summary.site;
  u_rule : Rule.t option;
  u_witness : string list;
}

type gap = {
  g_ty : string;
  g_member : string;
  g_kind : Event.access_kind;
  g_subsystem : string;
  g_fns : string list;
}

type order_check = {
  oc_confirmed : int;
  oc_dynamic_only : (string * string) list;
  oc_static_only : int;
  oc_cycles_covered : int;
  oc_cycles_uncovered : string list list;
}

type t = {
  workload : string;
  summary : Summary.t;
  import_stats : Import.stats;
  mined_rules : int;
  violations : violation list;
  unprotected : unprotected list;
  gaps : gap list;
  order : order_check;
}

let base_type name =
  match String.index_opt name ':' with
  | Some i -> String.sub name 0 i
  | None -> name

let access_of_rule = function Rule.R -> Event.Read | Rule.W -> Event.Write

let kind_str = function Event.Read -> "r" | Event.Write -> "w"

(* A static held lock, classified relative to the accessed object the
   way {!Lockdesc.classify} classifies a dynamic one: the site's own
   variable yields an embedded-same lock, everything else an
   embedded-other or global. *)
let desc_of_held ~ty ~var (h : Summary.held) =
  match h.Summary.h_lock with
  | Summary.Sg n -> Lockdesc.Global n
  | Summary.Sm { ty = lty; var = lvar; member } ->
      if lvar = var && lty = ty then Lockdesc.Es member
      else Lockdesc.Eo (member, lty)

let protective (h : Summary.held) =
  match h.Summary.h_kind with
  | Event.Pseudo -> false
  | Event.Rcu -> h.Summary.h_side = Event.Exclusive
  | _ -> true

(* Data members only, minus the importer's member blacklist — the same
   site universe the dynamic pipeline keeps. *)
let kept_site (s : Summary.site) =
  (not
     (Filter.member_blacklisted Filter.default ~ty:s.Summary.st_ty
        ~member:s.Summary.st_member))
  &&
  match
    List.find_opt
      (fun (l : Layout.t) -> l.Layout.ty_name = s.Summary.st_ty)
      Structs.all
  with
  | None -> false
  | Some l -> (
      match Layout.find_member l s.Summary.st_member with
      | m -> m.Layout.m_kind = Layout.Data
      | exception Not_found -> false)

let run ?jobs:_ ~workload trace =
  (* Dynamic side 1: the paper's pipeline — import (irq inheritance on)
     and mine rules per merged base type. *)
  let store, stats = Import.run trace in
  let dataset = Dataset.of_store store in
  let bases =
    List.sort_uniq compare (List.map base_type (Dataset.type_keys dataset))
  in
  let mined =
    List.concat_map
      (fun base ->
        List.map
          (fun (m : Derivator.mined) ->
            ((base, m.Derivator.m_member, access_of_rule m.Derivator.m_kind), m))
          (Derivator.derive_merged dataset base))
      bases
  in
  let find_mined ty member kind = List.assoc_opt (ty, member, kind) mined in
  (* Dynamic side 2: lock order with irq flows accounted separately —
     inheritance creates cross-flow edges no static path can produce. *)
  let store_sep, _ = Import.run ~irq_mode:Import.Separate trace in
  let dyn_order = Lockdep.analyse store_sep in
  (* Static side. *)
  let summary = Summary.analyse () in
  let sites = List.filter kept_site summary.Summary.sites in
  let violations =
    List.filter_map
      (fun (s : Summary.site) ->
        match find_mined s.Summary.st_ty s.Summary.st_member s.Summary.st_kind with
        | None -> None
        | Some m ->
            let held =
              List.map
                (desc_of_held ~ty:s.Summary.st_ty ~var:s.Summary.st_var)
                s.Summary.st_must
            in
            if Rule.complies ~rule:m.Derivator.m_winner ~held then None
            else
              Some
                {
                  v_site = s;
                  v_rule = m.Derivator.m_winner;
                  v_held = held;
                  v_support = m.Derivator.m_support.Lockdoc_core.Hypothesis.sr;
                  v_witness = Summary.witness summary s.Summary.st_fn;
                })
      sites
  in
  let unprotected =
    List.filter_map
      (fun (s : Summary.site) ->
        if
          s.Summary.st_kind = Event.Write
          && not (List.exists protective s.Summary.st_must)
        then
          Some
            {
              u_site = s;
              u_rule =
                Option.map
                  (fun (m : Derivator.mined) -> m.Derivator.m_winner)
                  (find_mined s.Summary.st_ty s.Summary.st_member Event.Write);
              u_witness = Summary.witness summary s.Summary.st_fn;
            }
        else None)
      sites
  in
  (* Coverage gaps: static triples never observed in the trace. *)
  let observed = Hashtbl.create 256 in
  List.iter
    (fun ((key, member, kind), _) ->
      Hashtbl.replace observed (base_type key, member, access_of_rule kind) ())
    (Dataset.groups dataset);
  let gap_tbl : (string * string * Event.access_kind, string list * string list)
      Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun (s : Summary.site) ->
      let k = (s.Summary.st_ty, s.Summary.st_member, s.Summary.st_kind) in
      if not (Hashtbl.mem observed k) then begin
        let fns, subs =
          Option.value ~default:([], []) (Hashtbl.find_opt gap_tbl k)
        in
        Hashtbl.replace gap_tbl k
          (s.Summary.st_fn :: fns, s.Summary.st_subsystem :: subs)
      end)
    sites;
  let gaps =
    Hashtbl.fold
      (fun (ty, member, kind) (fns, subs) acc ->
        {
          g_ty = ty;
          g_member = member;
          g_kind = kind;
          g_subsystem = String.concat "," (List.sort_uniq compare subs);
          g_fns = List.sort_uniq compare fns;
        }
        :: acc)
      gap_tbl []
    |> List.sort (fun a b ->
           compare (a.g_ty, a.g_member, kind_str a.g_kind)
             (b.g_ty, b.g_member, kind_str b.g_kind))
  in
  (* Acquisition-order diff, restricted to classes the IR models. *)
  let cs = Lockdep.class_to_string in
  let universe = Hashtbl.create 64 in
  List.iter
    (fun (a : Summary.acq) -> Hashtbl.replace universe (cs a.Summary.aq_class) ())
    summary.Summary.acquires;
  let static_edges = Hashtbl.create 128 in
  List.iter
    (fun (e : Summary.sedge) ->
      Hashtbl.replace static_edges (cs e.Summary.sd_from, cs e.Summary.sd_to) ())
    (summary.Summary.edges @ summary.Summary.self_edges);
  let dyn_edges =
    List.map
      (fun (e : Lockdep.edge) -> (cs e.Lockdep.e_from, cs e.Lockdep.e_to))
      (dyn_order.Lockdep.edges @ dyn_order.Lockdep.self_nesting)
    |> List.sort_uniq compare
  in
  let in_universe c = Hashtbl.mem universe c in
  let dyn_in_scope =
    List.filter (fun (f, t) -> in_universe f && in_universe t) dyn_edges
  in
  let dynamic_only =
    List.filter (fun e -> not (Hashtbl.mem static_edges e)) dyn_in_scope
  in
  let confirmed = List.length dyn_in_scope - List.length dynamic_only in
  let dyn_edge_set = Hashtbl.create 128 in
  List.iter (fun e -> Hashtbl.replace dyn_edge_set e ()) dyn_edges;
  let static_only =
    Hashtbl.fold
      (fun e () acc -> if Hashtbl.mem dyn_edge_set e then acc else acc + 1)
      static_edges 0
  in
  let cycle_pairs classes =
    match classes with
    | [] -> []
    | first :: _ ->
        let rec pairs = function
          | [] -> []
          | [ last ] -> [ (cs last, cs first) ]
          | a :: (b :: _ as rest) -> (cs a, cs b) :: pairs rest
        in
        pairs classes
  in
  let covered, uncovered =
    List.fold_left
      (fun (cov, unc) cycle ->
        if List.for_all (fun c -> in_universe (cs c)) cycle then
          if
            List.for_all
              (fun p -> Hashtbl.mem static_edges p)
              (cycle_pairs cycle)
          then (cov + 1, unc)
          else (cov, List.map cs cycle :: unc)
        else (cov, unc))
      (0, []) dyn_order.Lockdep.cycles
  in
  {
    workload;
    summary;
    import_stats = stats;
    mined_rules = List.length mined;
    violations;
    unprotected;
    gaps;
    order =
      {
        oc_confirmed = confirmed;
        oc_dynamic_only = dynamic_only;
        oc_static_only = static_only;
        oc_cycles_covered = covered;
        oc_cycles_uncovered = List.rev uncovered;
      };
  }

(* ---- rendering ----------------------------------------------------- *)

let site_str (s : Summary.site) =
  Printf.sprintf "%s.%s:%s in %s" s.Summary.st_ty s.Summary.st_member
    (kind_str s.Summary.st_kind)
    s.Summary.st_fn

let held_str = function
  | [] -> "(no locks)"
  | held -> String.concat ", " (List.map Summary.held_to_string held)

let buf_add = Buffer.add_string

let render t =
  let b = Buffer.create 4096 in
  let s = t.summary in
  buf_add b
    (Printf.sprintf
       "lockdoc lint: %s — %d functions (%d wild), %d IR nodes, %d roots\n"
       t.workload s.Summary.functions s.Summary.wild_functions
       s.Summary.ir_nodes
       (List.length s.Summary.roots));
  buf_add b
    (Printf.sprintf
       "fixpoints: %d effect rounds, %d entry rounds; %d access sites, %d \
        acquisition sites\n"
       s.Summary.effect_rounds s.Summary.entry_rounds
       (List.length s.Summary.sites)
       (List.length s.Summary.acquires));
  buf_add b
    (Printf.sprintf "mined %d rules from %d trace events\n\n" t.mined_rules
       t.import_stats.Import.total_events);
  let tbl = Tablefmt.create ~header:[ "check"; "count"; "status" ] in
  Tablefmt.set_align tbl [ Tablefmt.Left; Tablefmt.Right; Tablefmt.Left ];
  let row name n bad =
    Tablefmt.add_row tbl
      [ name; string_of_int n; (if n = 0 then "ok" else bad) ]
  in
  row "rule violations (must-held)" (List.length t.violations) "FINDINGS";
  row "unprotected writes" (List.length t.unprotected) "FINDINGS";
  row "static ABBA cycles" (List.length s.Summary.cycles) "FINDINGS";
  row "sleep-in-atomic" (List.length s.Summary.sleeps) "FINDINGS";
  row "irq-unsafe acquisitions" (List.length s.Summary.irq_unsafe) "FINDINGS";
  row "coverage gaps" (List.length t.gaps) "untested";
  row "order edges: dynamic-only"
    (List.length t.order.oc_dynamic_only)
    "MODEL DRIFT";
  buf_add b (Tablefmt.render tbl);
  buf_add b "\n";
  buf_add b
    (Printf.sprintf
       "lock order: %d dynamic edges confirmed statically, %d static-only; \
        %d/%d dynamic cycles covered\n"
       t.order.oc_confirmed t.order.oc_static_only t.order.oc_cycles_covered
       (t.order.oc_cycles_covered + List.length t.order.oc_cycles_uncovered));
  if t.violations <> [] then begin
    buf_add b "\nrule violations:\n";
    List.iter
      (fun v ->
        buf_add b
          (Printf.sprintf "  %s\n    rule %s (sr %.2f) vs held %s\n    via %s\n"
             (site_str v.v_site) (Rule.to_string v.v_rule) v.v_support
             (match v.v_held with
             | [] -> "(no locks)"
             | h -> String.concat ", " (List.map Lockdesc.to_string h))
             (String.concat " -> " v.v_witness)))
      t.violations
  end;
  if t.unprotected <> [] then begin
    buf_add b "\nunprotected writes:\n";
    List.iter
      (fun u ->
        buf_add b
          (Printf.sprintf "  %s%s\n    via %s\n" (site_str u.u_site)
             (match u.u_rule with
             | Some r when r <> Rule.no_lock ->
                 Printf.sprintf " (mined rule: %s)" (Rule.to_string r)
             | _ -> "")
             (String.concat " -> " u.u_witness)))
      t.unprotected
  end;
  if s.Summary.cycles <> [] then begin
    buf_add b "\nstatic lock-order cycles:\n";
    List.iter
      (fun c ->
        buf_add b
          (Printf.sprintf "  %s\n"
             (String.concat " -> "
                (List.map Lockdep.class_to_string (c @ [ List.hd c ])))))
      s.Summary.cycles
  end;
  if s.Summary.sleeps <> [] then begin
    buf_add b "\nsleep-in-atomic:\n";
    List.iter
      (fun (f : Summary.sleep_finding) ->
        buf_add b
          (Printf.sprintf "  %s: %s with %s held%s\n" f.Summary.sl_fn
             f.Summary.sl_what
             (held_str f.Summary.sl_held)
             (if f.Summary.sl_must then "" else " (some path)")))
      s.Summary.sleeps
  end;
  if s.Summary.irq_unsafe <> [] then begin
    buf_add b "\nirq-unsafe acquisitions:\n";
    List.iter
      (fun (f : Summary.irq_finding) ->
        buf_add b
          (Printf.sprintf "  %s taken unmasked in %s, also in irq by %s\n    via %s\n"
             (Lockdep.class_to_string f.Summary.iq_class)
             f.Summary.iq_fn f.Summary.iq_irq_fn
             (String.concat " -> " f.Summary.iq_witness)))
      s.Summary.irq_unsafe
  end;
  if t.order.oc_dynamic_only <> [] then begin
    buf_add b "\ndynamic-only order edges (model drift):\n";
    List.iter
      (fun (f, to_) -> buf_add b (Printf.sprintf "  %s -> %s\n" f to_))
      t.order.oc_dynamic_only
  end;
  if t.gaps <> [] then begin
    buf_add b "\ncoverage gaps (statically reachable, never observed):\n";
    List.iter
      (fun g ->
        buf_add b
          (Printf.sprintf "  %s.%s:%s [%s] in %s\n" g.g_ty g.g_member
             (kind_str g.g_kind) g.g_subsystem
             (String.concat ", " g.g_fns)))
      t.gaps
  end;
  Buffer.contents b

let to_json t =
  let s = t.summary in
  let open Report in
  let held_j h = L (List.map (fun x -> S (Summary.held_to_string x)) h) in
  let site_j (st : Summary.site) =
    O
      [
        ("fn", S st.Summary.st_fn);
        ("subsystem", S st.Summary.st_subsystem);
        ("type", S st.Summary.st_ty);
        ("member", S st.Summary.st_member);
        ("kind", S (kind_str st.Summary.st_kind));
        ("must_held", held_j st.Summary.st_must);
        ("may_held", held_j st.Summary.st_may);
      ]
  in
  let witness_j w = L (List.map (fun f -> S f) w) in
  O
    [
      ("workload", S t.workload);
      ( "summary",
        O
          [
            ("functions", I s.Summary.functions);
            ("wild_functions", I s.Summary.wild_functions);
            ("ir_nodes", I s.Summary.ir_nodes);
            ("roots", I (List.length s.Summary.roots));
            ("effect_rounds", I s.Summary.effect_rounds);
            ("entry_rounds", I s.Summary.entry_rounds);
            ("access_sites", I (List.length s.Summary.sites));
            ("acquire_sites", I (List.length s.Summary.acquires));
            ("order_edges", I (List.length s.Summary.edges));
          ] );
      ("mined_rules", I t.mined_rules);
      ( "violations",
        L
          (List.map
             (fun v ->
               O
                 [
                   ("site", site_j v.v_site);
                   ("rule", S (Rule.to_string v.v_rule));
                   ("support", F v.v_support);
                   ( "held",
                     L (List.map (fun d -> S (Lockdesc.to_string d)) v.v_held)
                   );
                   ("witness", witness_j v.v_witness);
                 ])
             t.violations) );
      ( "unprotected_writes",
        L
          (List.map
             (fun u ->
               O
                 [
                   ("site", site_j u.u_site);
                   ( "mined_rule",
                     match u.u_rule with
                     | Some r -> S (Rule.to_string r)
                     | None -> S "" );
                   ("witness", witness_j u.u_witness);
                 ])
             t.unprotected) );
      ( "cycles",
        L
          (List.map
             (fun c ->
               L (List.map (fun x -> S (Lockdep.class_to_string x)) c))
             s.Summary.cycles) );
      ( "sleep_in_atomic",
        L
          (List.map
             (fun (f : Summary.sleep_finding) ->
               O
                 [
                   ("fn", S f.Summary.sl_fn);
                   ("what", S f.Summary.sl_what);
                   ("held", held_j f.Summary.sl_held);
                   ("must", S (if f.Summary.sl_must then "yes" else "no"));
                 ])
             s.Summary.sleeps) );
      ( "irq_unsafe",
        L
          (List.map
             (fun (f : Summary.irq_finding) ->
               O
                 [
                   ("class", S (Lockdep.class_to_string f.Summary.iq_class));
                   ("fn", S f.Summary.iq_fn);
                   ("irq_fn", S f.Summary.iq_irq_fn);
                   ("witness", witness_j f.Summary.iq_witness);
                 ])
             s.Summary.irq_unsafe) );
      ( "gaps",
        L
          (List.map
             (fun g ->
               O
                 [
                   ("type", S g.g_ty);
                   ("member", S g.g_member);
                   ("kind", S (kind_str g.g_kind));
                   ("subsystem", S g.g_subsystem);
                   ("fns", L (List.map (fun f -> S f) g.g_fns));
                 ])
             t.gaps) );
      ( "order",
        O
          [
            ("confirmed", I t.order.oc_confirmed);
            ( "dynamic_only",
              L
                (List.map
                   (fun (f, to_) -> L [ S f; S to_ ])
                   t.order.oc_dynamic_only) );
            ("static_only", I t.order.oc_static_only);
            ("cycles_covered", I t.order.oc_cycles_covered);
            ( "cycles_uncovered",
              L
                (List.map
                   (fun c -> L (List.map (fun x -> S x) c))
                   t.order.oc_cycles_uncovered) );
          ] );
    ]
