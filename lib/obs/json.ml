type t =
  | Null
  | B of bool
  | I of int
  | F of float
  | S of string
  | L of t list
  | O of (string * t) list

(* ---- Encoding ----------------------------------------------------- *)

(* Bytes passed through whole: everything but the quote, the backslash
   and the control characters. A string with none of those is added in
   one piece; otherwise the runs between escapes are. *)
let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let add_escape buf c =
  match c with
  | '"' -> Buffer.add_string buf "\\\""
  | '\\' -> Buffer.add_string buf "\\\\"
  | '\n' -> Buffer.add_string buf "\\n"
  | '\r' -> Buffer.add_string buf "\\r"
  | '\t' -> Buffer.add_string buf "\\t"
  | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))

let add_string buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let start = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if needs_escape c then begin
      Buffer.add_substring buf s !start (i - !start);
      add_escape buf c;
      start := i + 1
    end
  done;
  Buffer.add_substring buf s !start (n - !start);
  Buffer.add_char buf '"'

(* %.17g is the shortest format guaranteed to round-trip every finite
   double; NaN/inf are not valid JSON, so clamp them to null. *)
let add_float buf f =
  if not (Float.is_finite f) then Buffer.add_string buf "null"
  else begin
    let s = Printf.sprintf "%.17g" f in
    Buffer.add_string buf s;
    (* Keep the float/int distinction visible in the output. *)
    if String.for_all (fun c -> c = '-' || (c >= '0' && c <= '9')) s then
      Buffer.add_string buf ".0"
  end

let rec encode buf = function
  | Null -> Buffer.add_string buf "null"
  | B b -> Buffer.add_string buf (if b then "true" else "false")
  | I i -> Buffer.add_string buf (string_of_int i)
  | F f -> add_float buf f
  | S s -> add_string buf s
  | L items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          encode buf item)
        items;
      Buffer.add_char buf ']'
  | O fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (key, value) ->
          if i > 0 then Buffer.add_char buf ',';
          add_string buf key;
          Buffer.add_char buf ':';
          encode buf value)
        fields;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  encode buf j;
  Buffer.contents buf

(* ---- Parsing ------------------------------------------------------ *)

exception Bad of int * string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (if !pos >= n then fail "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char buf '"'; advance ()
               | '\\' -> Buffer.add_char buf '\\'; advance ()
               | '/' -> Buffer.add_char buf '/'; advance ()
               | 'b' -> Buffer.add_char buf '\b'; advance ()
               | 'f' -> Buffer.add_char buf '\012'; advance ()
               | 'n' -> Buffer.add_char buf '\n'; advance ()
               | 'r' -> Buffer.add_char buf '\r'; advance ()
               | 't' -> Buffer.add_char buf '\t'; advance ()
               | 'u' ->
                   advance ();
                   if !pos + 4 > n then fail "short \\u escape";
                   let hex = String.sub s !pos 4 in
                   let code =
                     try int_of_string ("0x" ^ hex)
                     with Failure _ -> fail "bad \\u escape"
                   in
                   pos := !pos + 4;
                   (* The snapshot encoder only emits \u for control
                      characters; decode the Latin-1 subset and map the
                      rest to '?' rather than carrying a UTF-8 encoder. *)
                   Buffer.add_char buf
                     (if code < 0x100 then Char.chr code else '?')
               | c -> fail (Printf.sprintf "bad escape \\%C" c));
            go ()
        | c -> Buffer.add_char buf c; advance (); go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok then
      match float_of_string_opt tok with
      | Some f -> F f
      | None -> fail (Printf.sprintf "bad number %S" tok)
    else
      match int_of_string_opt tok with
      | Some i -> I i
      | None -> (
          (* Integer too wide for an int: fall back to float. *)
          match float_of_string_opt tok with
          | Some f -> F f
          | None -> fail (Printf.sprintf "bad number %S" tok))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> S (parse_string ())
    | Some 't' -> literal "true" (B true)
    | Some 'f' -> literal "false" (B false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          L []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          L (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          O []
        end
        else begin
          let field () =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let value = parse_value () in
            (key, value)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          O (List.rev !fields)
        end
    | Some c when c = '-' || (c >= '0' && c <= '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing bytes after value";
    v
  with
  | v -> Ok v
  | exception Bad (at, msg) ->
      Error (Printf.sprintf "json parse error at byte %d: %s" at msg)

let member key = function
  | O fields -> List.assoc_opt key fields
  | _ -> None

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | B a, B b -> a = b
  | I a, I b -> a = b
  | F a, F b -> Float.equal a b
  | S a, S b -> String.equal a b
  | L a, L b -> List.equal equal a b
  | O a, O b ->
      List.equal
        (fun (ka, va) (kb, vb) -> String.equal ka kb && equal va vb)
        a b
  | _ -> false
