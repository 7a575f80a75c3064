type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }

let length t = t.len

let grow t x =
  let cap = Array.length t.data in
  let new_cap = max 8 (cap * 2) in
  let data = Array.make new_cap x in
  Array.blit t.data 0 data 0 t.len;
  t.data <- data

let push t x =
  if t.len = Array.length t.data then grow t x;
  t.data.(t.len) <- x;
  t.len <- t.len + 1;
  t.len - 1

let check t i =
  if i < 0 || i >= t.len then invalid_arg "Vec: index out of bounds"

let get t i =
  check t i;
  t.data.(i)

let set t i x =
  check t i;
  t.data.(i) <- x

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let fold f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let to_list t = List.init t.len (fun i -> t.data.(i))

let exists p t =
  let rec go i = i < t.len && (p t.data.(i) || go (i + 1)) in
  go 0

let find_opt p t =
  let rec go i =
    if i >= t.len then None
    else if p t.data.(i) then Some t.data.(i)
    else go (i + 1)
  in
  go 0
