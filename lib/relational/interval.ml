type bound =
  | Unbounded
  | Open of Value.t
  | Closed of Value.t

type t = {
  lo : bound;
  hi : bound;
}

let top = { lo = Unbounded; hi = Unbounded }

let make lo hi = { lo; hi }

let of_condition op c =
  match op with
  | Cmp_op.Eq -> { lo = Closed c; hi = Closed c }
  | Cmp_op.Lt -> { lo = Unbounded; hi = Open c }
  | Cmp_op.Gt -> { lo = Open c; hi = Unbounded }
  | Cmp_op.Le -> { lo = Unbounded; hi = Closed c }
  | Cmp_op.Ge -> { lo = Closed c; hi = Unbounded }

(* Pick the stronger of two lower bounds. *)
let max_lo b1 b2 =
  match b1, b2 with
  | Unbounded, b | b, Unbounded -> b
  | (Open v1 | Closed v1), (Open v2 | Closed v2) when not (Value.equal v1 v2) ->
    if Value.compare v1 v2 > 0 then b1 else b2
  | Open _, _ -> b1
  | _, Open _ -> b2
  | Closed _, Closed _ -> b1

let min_hi b1 b2 =
  match b1, b2 with
  | Unbounded, b | b, Unbounded -> b
  | (Open v1 | Closed v1), (Open v2 | Closed v2) when not (Value.equal v1 v2) ->
    if Value.compare v1 v2 < 0 then b1 else b2
  | Open _, _ -> b1
  | _, Open _ -> b2
  | Closed _, Closed _ -> b1

let meet i j = { lo = max_lo i.lo j.lo; hi = min_hi i.hi j.hi }

let is_empty i =
  match i.lo, i.hi with
  | Unbounded, _ | _, Unbounded -> false
  | Closed a, Closed b -> Value.compare a b > 0
  | Closed a, Open b | Open a, Closed b -> Value.compare a b >= 0
  | Open a, Open b ->
    Value.compare a b >= 0 || Option.is_none (Value.between a b)

let is_point i =
  if is_empty i then None
  else
    match i.lo, i.hi with
    | Closed a, Closed b when Value.equal a b -> Some a
    | _ -> None

let mem v i =
  (match i.lo with
   | Unbounded -> true
   | Open a -> Value.compare v a > 0
   | Closed a -> Value.compare v a >= 0)
  && (match i.hi with
      | Unbounded -> true
      | Open b -> Value.compare v b < 0
      | Closed b -> Value.compare v b <= 0)

(* [lo_implies b1 b2]: every value satisfying lower bound [b1] also
   satisfies lower bound [b2]. *)
let lo_implies b1 b2 =
  match b1, b2 with
  | _, Unbounded -> true
  | Unbounded, _ -> false
  | Closed a, Closed b | Open a, Open b | Open a, Closed b ->
    Value.compare a b >= 0
  | Closed a, Open b -> Value.compare a b > 0

let hi_implies b1 b2 =
  match b1, b2 with
  | _, Unbounded -> true
  | Unbounded, _ -> false
  | Closed a, Closed b | Open a, Open b | Open a, Closed b ->
    Value.compare a b <= 0
  | Closed a, Open b -> Value.compare a b < 0

let subset i j = is_empty i || (lo_implies i.lo j.lo && hi_implies i.hi j.hi)

let sample i =
  if is_empty i then None
  else
    match i.lo, i.hi with
    | Closed a, _ when mem a i -> Some a
    | _, Closed b when mem b i -> Some b
    | Unbounded, Unbounded -> Some (Value.Int 0)
    | Unbounded, (Open b | Closed b) -> Some (Value.below b)
    | (Open a | Closed a), Unbounded -> Some (Value.above a)
    | (Open a | Closed a), (Open b | Closed b) -> Value.between a b

let to_conditions i =
  match is_point i with
  | Some c -> [ (Cmp_op.Eq, c) ]
  | None ->
    let lo =
      match i.lo with
      | Unbounded -> []
      | Open a -> [ (Cmp_op.Gt, a) ]
      | Closed a -> [ (Cmp_op.Ge, a) ]
    in
    let hi =
      match i.hi with
      | Unbounded -> []
      | Open b -> [ (Cmp_op.Lt, b) ]
      | Closed b -> [ (Cmp_op.Le, b) ]
    in
    lo @ hi
