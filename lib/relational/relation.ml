(* A relation is its tuples in one array, ascending by [Tuple.compare]
   and without duplicates: built once, in bulk, and never mutated after.
   Membership is a binary search; set operations are merges. *)
type t = {
  arity : int;
  tuples : Tuple.t array;
}

let empty ~arity = { arity; tuples = [||] }
let arity r = r.arity
let is_empty r = Array.length r.tuples = 0
let cardinal r = Array.length r.tuples
let tuples r = r.tuples

let arity_error ~arity t =
  invalid_arg
    (Printf.sprintf "Relation: tuple of arity %d in relation of arity %d"
       (Tuple.arity t) arity)

let rec ascending a n i =
  i >= n || (Tuple.compare a.(i - 1) a.(i) < 0 && ascending a n (i + 1))

(* The first [n] tuples of [a], sorted and without duplicates: [a]
   itself when [owned], all of [a] is taken and it is already strictly
   ascending (a parsed batch usually is), a sorted copy otherwise. [a]
   is never changed. *)
let canonical ~arity ~owned a n =
  for i = 0 to n - 1 do
    if Tuple.arity a.(i) <> arity then arity_error ~arity a.(i)
  done;
  if ascending a n 1 then
    {
      arity;
      tuples = (if owned && n = Array.length a then a else Array.sub a 0 n);
    }
  else begin
    let out = Array.sub a 0 n in
    Array.stable_sort Tuple.compare out;
    let len = ref 1 in
    for i = 1 to n - 1 do
      if Tuple.compare out.(!len - 1) out.(i) <> 0 then begin
        out.(!len) <- out.(i);
        incr len
      end
    done;
    { arity; tuples = (if !len = n then out else Array.sub out 0 !len) }
  end

let of_array ~arity a = canonical ~arity ~owned:false a (Array.length a)

let of_owned ~arity a = canonical ~arity ~owned:true a (Array.length a)
let of_list ~arity ts = of_owned ~arity (Array.of_list ts)

let of_value_lists ~arity rows =
  of_owned ~arity (Array.of_list (List.map Tuple.of_list rows))

(* The index of [t] in [r]'s array, or [-(i + 1)] where [i] is the
   index at which it would go. *)
let rec search_in a t lo hi =
  if lo >= hi then -(lo + 1)
  else
    let mid = (lo + hi) lsr 1 in
    let c = Tuple.compare a.(mid) t in
    if c = 0 then mid
    else if c < 0 then search_in a t (mid + 1) hi
    else search_in a t lo mid

let search r t = search_in r.tuples t 0 (Array.length r.tuples)

let mem t r = search r t >= 0

(* One tuple in or out costs a copy of the array: callers adding many
   tuples build them in bulk ([of_list], {!builder}). *)
let add t r =
  if Tuple.arity t <> r.arity then arity_error ~arity:r.arity t;
  let i = search r t in
  if i >= 0 then r
  else
    let i = -(i + 1) and n = Array.length r.tuples in
    let a = Array.make (n + 1) t in
    Array.blit r.tuples 0 a 0 i;
    Array.blit r.tuples i a (i + 1) (n - i);
    { r with tuples = a }

let remove t r =
  let i = search r t in
  if i < 0 then r
  else
    let n = Array.length r.tuples in
    let a = Array.sub r.tuples 0 (n - 1) in
    Array.blit r.tuples (i + 1) a i (n - 1 - i);
    { r with tuples = a }

let to_list r = Array.to_list r.tuples

(* --- bulk building --- *)

type builder = {
  b_arity : int;
  mutable items : Tuple.t array;
  mutable len : int;
}

let builder ~arity = { b_arity = arity; items = [||]; len = 0 }

(* A builder that fills up with [compact_from] tuples or more first
   drops its duplicates, and grows only when that frees less than half
   of it: it never holds more than twice the distinct tuples pushed, or
   [2 * compact_from]. Below that it just grows, and {!build} sorts
   once. *)
let compact_from = 1 lsl 16

let push b t =
  if Tuple.arity t <> b.b_arity then arity_error ~arity:b.b_arity t;
  if b.len = Array.length b.items && b.len < compact_from then begin
    let items = Array.make (max 8 (2 * b.len)) t in
    Array.blit b.items 0 items 0 b.len;
    b.items <- items
  end
  else if b.len = Array.length b.items then begin
    let dedup = canonical ~arity:b.b_arity ~owned:false b.items b.len in
    let n = Array.length dedup.tuples in
    let items =
      if 2 * n <= b.len && n > 0 then b.items
      else Array.make (max 8 (2 * b.len)) t
    in
    Array.blit dedup.tuples 0 items 0 n;
    b.items <- items;
    b.len <- n
  end;
  b.items.(b.len) <- t;
  b.len <- b.len + 1

let build b = canonical ~arity:b.b_arity ~owned:false b.items b.len

(* --- set operations: merges of ascending arrays --- *)

let check_arities name r1 r2 =
  if r1.arity <> r2.arity then
    invalid_arg (Printf.sprintf "Relation.%s: arity mismatch" name)

(* The tuples only in [r1], in both or only in [r2], as the flags keep
   them, in one pass over both arrays. *)
let merge ~keep_left ~keep_both ~keep_right r1 r2 =
  let a1 = r1.tuples and a2 = r2.tuples in
  let n1 = Array.length a1 and n2 = Array.length a2 in
  let out = ref [] in
  let rec go i j =
    if i < n1 && j < n2 then begin
      let c = Tuple.compare a1.(i) a2.(j) in
      if c < 0 then begin
        if keep_left then out := a1.(i) :: !out;
        go (i + 1) j
      end
      else if c > 0 then begin
        if keep_right then out := a2.(j) :: !out;
        go i (j + 1)
      end
      else begin
        if keep_both then out := a1.(i) :: !out;
        go (i + 1) (j + 1)
      end
    end
    else begin
      if keep_left then
        for k = i to n1 - 1 do out := a1.(k) :: !out done;
      if keep_right then
        for k = j to n2 - 1 do out := a2.(k) :: !out done
    end
  in
  go 0 0;
  { arity = r1.arity; tuples = Array.of_list (List.rev !out) }

let union r1 r2 =
  check_arities "union" r1 r2;
  if is_empty r1 then r2
  else if is_empty r2 then r1
  else merge ~keep_left:true ~keep_both:true ~keep_right:true r1 r2

let diff r1 r2 =
  check_arities "diff" r1 r2;
  if is_empty r2 then r1
  else merge ~keep_left:true ~keep_both:false ~keep_right:false r1 r2

let subset r1 r2 =
  r1.arity = r2.arity
  && Array.length r1.tuples <= Array.length r2.tuples
  && Array.for_all (fun t -> mem t r2) r1.tuples

let compare r1 r2 =
  let c = Int.compare r1.arity r2.arity in
  if c <> 0 then c
  else
    let a1 = r1.tuples and a2 = r2.tuples in
    let n1 = Array.length a1 and n2 = Array.length a2 in
    let rec go i =
      if i = n1 || i = n2 then Int.compare n1 n2
      else
        let c = Tuple.compare a1.(i) a2.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

let equal r1 r2 = compare r1 r2 = 0

let filter p r = { r with tuples = Array.of_list (List.filter p (to_list r)) }

let fold f r acc = Array.fold_left (fun acc t -> f t acc) acc r.tuples
let iter f r = Array.iter f r.tuples
let exists p r = Array.exists p r.tuples
let for_all p r = Array.for_all p r.tuples

let project attrs r =
  of_owned ~arity:(List.length attrs)
    (Array.map (fun t -> Tuple.proj attrs t) r.tuples)

let column a r =
  fold (fun t acc -> Value_set.add (Tuple.get t a) acc) r Value_set.empty

let select conds r =
  filter
    (fun t ->
       List.for_all (fun (a, op, c) -> Cmp_op.eval op (Tuple.get t a) c) conds)
    r

let values r =
  fold
    (fun t acc ->
       Array.fold_left
         (fun acc v -> Value_set.add v acc)
         acc (t :> Value.t array))
    r Value_set.empty

(* Tuples of one arity sorted by their prefix and then by the rest:
   the pairs in nested order are already ascending. *)
let product r1 r2 =
  let n2 = Array.length r2.tuples in
  {
    arity = r1.arity + r2.arity;
    tuples =
      Array.init (Array.length r1.tuples * n2) (fun k ->
          Tuple.append r1.tuples.(k / n2) r2.tuples.(k mod n2));
  }

let pp ppf r =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list Tuple.pp)
    (to_list r)
