let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let percentage part whole =
  if whole = 0 then 0. else 100. *. float_of_int part /. float_of_int whole

let percentile p xs =
  match List.sort compare xs with
  | [] -> invalid_arg "Stats.percentile: empty list"
  | sorted ->
      let n = List.length sorted in
      let rank = int_of_float (ceil (p *. float_of_int n)) in
      let rank = max 1 (min n rank) in
      List.nth sorted (rank - 1)

type counter = (string, int) Hashtbl.t

let counter () = Hashtbl.create 16

let add c key n =
  let cur = Option.value ~default:0 (Hashtbl.find_opt c key) in
  Hashtbl.replace c key (cur + n)

let incr c key = add c key 1

let count c key = Option.value ~default:0 (Hashtbl.find_opt c key)

let total c = Hashtbl.fold (fun _ n acc -> acc + n) c 0

let to_alist c =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) c []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
