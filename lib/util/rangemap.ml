(* An AVL tree like Stdlib's [Map], keyed by [lo], where each node also
   keeps [top], the greatest [hi] in its subtree, so that an overlap
   query can skip every subtree whose ranges all end at or below it. *)
type 'a t =
  | Empty
  | Node of { l : 'a t; lo : int; hi : int; v : 'a; r : 'a t; h : int; top : int }

let empty = Empty
let height = function Empty -> 0 | Node n -> n.h
let top = function Empty -> min_int | Node n -> n.top

let create l lo hi v r =
  let hl = height l and hr = height r in
  Node
    { l; lo; hi; v; r; h = (if hl >= hr then hl + 1 else hr + 1);
      top = max hi (max (top l) (top r)) }

(* Rebalance after one insertion or removal, as [Map.bal] does. *)
let bal l lo hi v r =
  let hl = height l and hr = height r in
  if hl > hr + 2 then
    match l with
    | Node { l = ll; lo = llo; hi = lhi; v = lv; r = lr; _ } ->
        if height ll >= height lr then create ll llo lhi lv (create lr lo hi v r)
        else (
          match lr with
          | Node { l = lrl; lo = lrlo; hi = lrhi; v = lrv; r = lrr; _ } ->
              create (create ll llo lhi lv lrl) lrlo lrhi lrv (create lrr lo hi v r)
          | Empty -> assert false)
    | Empty -> assert false
  else if hr > hl + 2 then
    match r with
    | Node { l = rl; lo = rlo; hi = rhi; v = rv; r = rr; _ } ->
        if height rr >= height rl then create (create l lo hi v rl) rlo rhi rv rr
        else (
          match rl with
          | Node { l = rll; lo = rllo; hi = rlhi; v = rlv; r = rlr; _ } ->
              create (create l lo hi v rll) rllo rlhi rlv (create rlr rlo rhi rv rr)
          | Empty -> assert false)
    | Empty -> assert false
  else create l lo hi v r

let rec add ~lo ~hi v = function
  | Empty -> create Empty lo hi v Empty
  | Node n ->
      if lo = n.lo then create n.l lo hi v n.r
      else if lo < n.lo then bal (add ~lo ~hi v n.l) n.lo n.hi n.v n.r
      else bal n.l n.lo n.hi n.v (add ~lo ~hi v n.r)

let rec remove_min = function
  | Node { l = Empty; r; _ } -> r
  | Node n -> bal (remove_min n.l) n.lo n.hi n.v n.r
  | Empty -> assert false

let rec min_node = function
  | Node { l = Empty; _ } as t -> t
  | Node n -> min_node n.l
  | Empty -> assert false

let merge t1 t2 =
  match (t1, t2) with
  | Empty, t | t, Empty -> t
  | _ -> (
      match min_node t2 with
      | Node m -> bal t1 m.lo m.hi m.v (remove_min t2)
      | Empty -> assert false)

let rec remove x = function
  | Empty -> Empty
  | Node n as t ->
      if x = n.lo then merge n.l n.r
      else if x < n.lo then
        let l = remove x n.l in
        if l == n.l then t else bal l n.lo n.hi n.v n.r
      else
        let r = remove x n.r in
        if r == n.r then t else bal n.l n.lo n.hi n.v r

let rec find x t ~default =
  match t with
  | Empty -> default
  | Node n ->
      if x = n.lo then n.v else find x (if x < n.lo then n.l else n.r) ~default

(* The node with the greatest base at or below [x], or [best]. *)
let rec floor x t best =
  match t with
  | Empty -> best
  | Node n -> if x < n.lo then floor x n.l best else if x = n.lo then t else floor x n.r t

let covering x t ~default =
  match floor x t Empty with Node n when x < n.hi -> n.v | _ -> default

let rec overlapping ~lo ~hi acc = function
  | Empty -> acc
  | Node n ->
      if n.top <= lo then acc
      else
        let acc = overlapping ~lo ~hi acc n.l in
        if n.lo < hi then
          overlapping ~lo ~hi (if lo < n.hi then n.lo :: acc else acc) n.r
        else acc

let remove_overlapping ~lo ~hi t =
  List.fold_left (fun t x -> remove x t) t (overlapping ~lo ~hi [] t)

let rec cardinal = function Empty -> 0 | Node n -> cardinal n.l + 1 + cardinal n.r
