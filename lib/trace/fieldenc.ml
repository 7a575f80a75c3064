let must_escape c =
  c = '\\' || c = '\t' || c = '\n' || c = '\r' || c = ';' || c = ','

(* [must_escape] as one load per byte. *)
let escaped =
  String.init 256 (fun i -> if must_escape (Char.chr i) then '\001' else '\000')

(* The index of the first byte of [s] from [i] on that needs escaping,
   or [n] (its length). Top-level, so a call allocates no closure. *)
let rec first_escape s n i =
  if i = n || String.unsafe_get escaped (Char.code (String.unsafe_get s i)) <> '\000'
  then i
  else first_escape s n (i + 1)

(* Both directions copy the runs between escapes whole instead of
   pushing every byte through the buffer. *)
let encode s =
  let n = String.length s in
  let i = first_escape s n 0 in
  if i = n then s
  else begin
    let b = Buffer.create (n + 8) in
    let rec go start i =
      Buffer.add_substring b s start (i - start);
      if i < n then begin
        Buffer.add_char b '\\';
        Buffer.add_char b
          (match String.unsafe_get s i with
          | '\t' -> 't'
          | '\n' -> 'n'
          | '\r' -> 'r'
          | c -> c);
        go (i + 1) (first_escape s n (i + 1))
      end
    in
    go 0 i;
    Buffer.contents b
  end

let decode s =
  match String.index_opt s '\\' with
  | None -> s
  | Some i ->
      let n = String.length s in
      let b = Buffer.create n in
      (* [i] is the index of a backslash; [start] the first byte not yet
         copied. *)
      let rec go start i =
        Buffer.add_substring b s start (i - start);
        if i + 1 >= n then
          failwith ("Fieldenc.decode: trailing backslash in " ^ s);
        Buffer.add_char b
          (match s.[i + 1] with
          | '\\' -> '\\'
          | 't' -> '\t'
          | 'n' -> '\n'
          | 'r' -> '\r'
          | (';' | ',' | '-') as c -> c
          | c ->
              failwith
                (Printf.sprintf "Fieldenc.decode: bad escape \\%c in %s" c s));
        match String.index_from_opt s (i + 2) '\\' with
        | Some j -> go (i + 2) j
        | None -> Buffer.add_substring b s (i + 2) (n - i - 2)
      in
      go 0 i;
      Buffer.contents b

let split_escaped sep s =
  let parts = ref [] and b = Buffer.create 16 in
  let n = String.length s in
  let rec go i =
    if i >= n then parts := Buffer.contents b :: !parts
    else if s.[i] = '\\' && i + 1 < n then begin
      Buffer.add_char b '\\';
      Buffer.add_char b s.[i + 1];
      go (i + 2)
    end
    else if s.[i] = sep then begin
      parts := Buffer.contents b :: !parts;
      Buffer.clear b;
      go (i + 1)
    end
    else begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
  in
  go 0;
  List.rev !parts
