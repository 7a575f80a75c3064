module Json = Lockdoc_obs.Json

let add_string = Json.add_string

let add_int buf n = Buffer.add_string buf (Int.to_string n)

(* Elements joined by bare commas, and the same inside brackets: a JSON
   array. *)
let add_joined add buf items =
  List.iteri
    (fun i item ->
      if i > 0 then Buffer.add_char buf ',';
      add buf item)
    items

let add_array add buf items =
  Buffer.add_char buf '[';
  add_joined add buf items;
  Buffer.add_char buf ']'

let fill buf write =
  Buffer.clear buf;
  write buf;
  Buffer.contents buf

(* [Printf.sprintf "%.6f"] without the format interpreter, for the
   values the reports print (supports in [0, 1], mean hold times). Below
   1e6, [x = f *. 1e6] is below 2^40, so it is within 2^-14 of the
   exact decimal value f·10^6 and its fraction is exact; unless that
   fraction is within 1e-3 of one half, rounding [x] to the nearest
   integer rounds f·10^6 the way [Printf] does. Everything else — ties
   and near-ties, negatives and -0, NaN, infinities, large values —
   goes to [Printf]. *)
let add_fixed6 buf f =
  if f < 1e6 && not (Float.sign_bit f) then begin
    let x = f *. 1e6 in
    let whole = Float.of_int (Float.to_int x) in
    let frac = x -. whole in
    if Float.abs (frac -. 0.5) < 1e-3 then
      Buffer.add_string buf (Printf.sprintf "%.6f" f)
    else begin
      let n = Float.to_int whole + if frac > 0.5 then 1 else 0 in
      add_int buf (n / 1_000_000);
      Buffer.add_char buf '.';
      let d = ref 100_000 and r = n mod 1_000_000 in
      while !d > 0 do
        Buffer.add_char buf (Char.unsafe_chr (48 + (r / !d mod 10)));
        d := !d / 10
      done
    end
  end
  else Buffer.add_string buf (Printf.sprintf "%.6f" f)

type json =
  | S of string
  | I of int
  | F of float
  | L of json list
  | O of (string * json) list

let rec encode buf = function
  | S s -> add_string buf s
  | I i -> add_int buf i
  | F f -> add_fixed6 buf f
  | L items -> add_array encode buf items
  | O fields ->
      Buffer.add_char buf '{';
      add_joined
        (fun buf (key, value) ->
          add_string buf key;
          Buffer.add_char buf ':';
          encode buf value)
        buf fields;
      Buffer.add_char buf '}'

let to_string json =
  let buf = Buffer.create 1024 in
  encode buf json;
  Buffer.contents buf

let rule_json rule = S (Rule.to_string rule)

let support_json (s : Hypothesis.support) =
  O [ ("sa", I s.Hypothesis.sa); ("sr", F s.Hypothesis.sr) ]

(* ---- Direct writers ------------------------------------------------ *)

(* The rule and violation objects are written straight into a buffer,
   in the field order of the tree encoder above. Rendering a rule
   (descriptor names through [Printf]) costs more than the rest of its
   hypothesis object, and the same few rules recur in every group of a
   type, so each distinct lock list is rendered once per table: as a
   rule string literal, and as a held-lock array. *)
type strings = {
  rules : (Rule.t, string) Hashtbl.t;
  held : (Lockdesc.t list, string) Hashtbl.t;
}

let strings () = { rules = Hashtbl.create 64; held = Hashtbl.create 64 }

let interned tbl render buf key =
  match Hashtbl.find_opt tbl key with
  | Some s -> Buffer.add_string buf s
  | None ->
      let b = Buffer.create 64 in
      render b key;
      let s = Buffer.contents b in
      Hashtbl.add tbl key s;
      Buffer.add_string buf s

let add_rule st = interned st.rules (fun b r -> add_string b (Rule.to_string r))

let add_held st =
  interned st.held
    (add_array (fun b d -> add_string b (Lockdesc.to_string d)))

let add_support buf (s : Hypothesis.support) =
  Buffer.add_string buf {|{"sa":|};
  add_int buf s.Hypothesis.sa;
  Buffer.add_string buf {|,"sr":|};
  add_fixed6 buf s.Hypothesis.sr;
  Buffer.add_char buf '}'

let add_head buf ty member kind =
  Buffer.add_string buf {|{"type":|};
  add_string buf ty;
  Buffer.add_string buf {|,"member":|};
  add_string buf member;
  Buffer.add_string buf
    (match kind with Rule.R -> {|,"access":"r"|} | Rule.W -> {|,"access":"w"|})

let add_mined_rule st buf (m : Derivator.mined) =
  add_head buf m.Derivator.m_type m.Derivator.m_member m.Derivator.m_kind;
  Buffer.add_string buf {|,"observations":|};
  add_int buf m.Derivator.m_total;
  Buffer.add_string buf {|,"rule":|};
  add_rule st buf m.Derivator.m_winner;
  Buffer.add_string buf {|,"support":|};
  add_support buf m.Derivator.m_support;
  Buffer.add_string buf {|,"hypotheses":|};
  add_array
    (fun buf (h : Hypothesis.scored) ->
      Buffer.add_string buf {|{"rule":|};
      add_rule st buf h.Hypothesis.rule;
      Buffer.add_string buf {|,"support":|};
      add_support buf h.Hypothesis.support;
      Buffer.add_char buf '}')
    buf m.Derivator.m_hypotheses;
  Buffer.add_char buf '}'

let add_violation st buf (v : Violation.violation) =
  add_head buf v.Violation.v_type v.Violation.v_member v.Violation.v_kind;
  Buffer.add_string buf {|,"rule":|};
  add_rule st buf v.Violation.v_rule;
  Buffer.add_string buf {|,"held":|};
  add_held st buf v.Violation.v_held;
  Buffer.add_string buf {|,"events":|};
  add_int buf v.Violation.v_events;
  (* [Srcloc.to_string] is "file:line", and only the file can need
     escaping: write the file's literal, then reopen it for the line. *)
  let loc = v.Violation.v_loc in
  Buffer.add_string buf {|,"location":|};
  add_string buf loc.Lockdoc_trace.Srcloc.file;
  Buffer.truncate buf (Buffer.length buf - 1);
  Buffer.add_char buf ':';
  add_int buf loc.Lockdoc_trace.Srcloc.line;
  Buffer.add_string buf {|","stack":|};
  add_array add_string buf v.Violation.v_stack;
  Buffer.add_char buf '}'

(* Sized from the object count, a little above the average object (on
   the benchmark mix, rules average about 390 bytes and violations about
   230), so a report is usually written without regrowing the buffer
   and without a large unused tail: both are allocated on the major
   heap. *)
let array_to_string ~object_bytes add items =
  let st = strings () in
  let buf = Buffer.create (object_bytes * (List.length items + 1)) in
  add_array (add st) buf items;
  Buffer.contents buf

let mined_rule_to_json m =
  let buf = Buffer.create 1024 in
  add_mined_rule (strings ()) buf m;
  Buffer.contents buf

let mined_to_json = array_to_string ~object_bytes:448 add_mined_rule
let violations_to_json = array_to_string ~object_bytes:288 add_violation

let checked_to_json checked =
  to_string
    (L
       (List.map
          (fun (c : Checker.checked) ->
            O
              [
                ("type", S c.Checker.c_type);
                ("member", S c.Checker.c_member);
                ("access", S (Rule.access_to_string c.Checker.c_kind));
                ("rule", rule_json c.Checker.c_rule);
                ("support", support_json c.Checker.c_support);
                ("verdict", S (Checker.verdict_to_string c.Checker.c_verdict));
              ])
          checked))

let lockdep_to_json (r : Lockdep.report) =
  let cls c = S (Lockdep.class_to_string c) in
  let edge (e : Lockdep.edge) =
    O
      [
        ("from", cls e.Lockdep.e_from);
        ("to", cls e.Lockdep.e_to);
        ("count", I e.Lockdep.e_count);
        ("example", S (Lockdoc_trace.Srcloc.to_string e.Lockdep.e_example));
      ]
  in
  to_string
    (O
       [
         ("classes", L (List.map cls r.Lockdep.classes));
         ("edges", L (List.map edge r.Lockdep.edges));
         ( "cycles",
           L (List.map (fun c -> L (List.map cls c)) r.Lockdep.cycles) );
         ("self_nesting", L (List.map edge r.Lockdep.self_nesting));
       ])

let lockmeter_to_json stats =
  to_string
    (L
       (List.map
          (fun (s : Lockmeter.stat) ->
            O
              [
                ("class", S (Lockdep.class_to_string s.Lockmeter.s_class));
                ("acquisitions", I s.Lockmeter.s_acquisitions);
                ("reader_acquisitions", I s.Lockmeter.s_reader_acquisitions);
                ("instances", I s.Lockmeter.s_instances);
                ("total_hold", I s.Lockmeter.s_total_hold);
                ("max_hold", I s.Lockmeter.s_max_hold);
                ("mean_hold", F (Lockmeter.mean_hold s));
                ("accesses_under", I s.Lockmeter.s_accesses_under);
              ])
          stats))
