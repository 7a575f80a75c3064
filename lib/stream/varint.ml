(* OCaml ints are 63-bit; [lsr] gives the logical shift of that bit
   pattern, so the encoding below is a bijection on all of [int],
   including min_int/max_int. 63 bits / 7 bits-per-byte = exactly 9
   bytes worst case; a 10th continuation byte is an overlong encoding
   and rejected (canonicity matters: the codec round-trip tests compare
   re-encoded bytes for identity). *)

let zigzag n = (n lsl 1) lxor (n asr 62)

let unzigzag u = (u lsr 1) lxor (- (u land 1))

let write_uint buf n =
  let n = ref n in
  let continue = ref true in
  while !continue do
    let b = !n land 0x7f in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char buf (Char.chr b);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (b lor 0x80))
  done

let write_int buf n = write_uint buf (zigzag n)

(* A top-level loop with explicit arguments: a local closure would be
   allocated on every call. *)
let rec read_from s lim pos acc shift p =
  if p >= lim then failwith "varint: truncated"
  else if shift > 56 then failwith "varint: overlong encoding"
  else
    let b = Char.code (String.unsafe_get s p) in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then begin
      pos := p + 1;
      acc
    end
    else read_from s lim pos acc (shift + 7) (p + 1)

let read_uint_at s ~lim pos = read_from s lim pos 0 0 !pos

let read_int_at s ~lim pos = unzigzag (read_uint_at s ~lim pos)

let read_uint s pos =
  let next = ref pos in
  let v = read_uint_at s ~lim:(String.length s) next in
  (v, !next)

let read_int s pos =
  let u, next = read_uint s pos in
  (unzigzag u, next)
