module Str_map = Map.Make (String)

type t = Relation.t Str_map.t

let empty = Str_map.empty

let add_relation name r inst = Str_map.add name r inst

let add_fact name vs inst =
  let tuple = Tuple.of_list vs in
  let r =
    match Str_map.find_opt name inst with
    | Some r -> r
    | None -> Relation.empty ~arity:(Tuple.arity tuple)
  in
  Str_map.add name (Relation.add tuple r) inst

(* Each group built at once; a relation's arity is its first row's. *)
let of_facts groups =
  List.fold_left
    (fun inst (name, rows) ->
       match rows, Str_map.find_opt name inst with
       | [], _ -> inst
       | _, Some r ->
         let more = Relation.of_value_lists ~arity:(Relation.arity r) rows in
         Str_map.add name (Relation.union r more) inst
       | row :: _, None ->
         Str_map.add name
           (Relation.of_value_lists ~arity:(List.length row) rows)
           inst)
    empty groups

let relation inst name = Str_map.find_opt name inst

let relation_or_empty inst ~arity name =
  match Str_map.find_opt name inst with
  | Some r -> r
  | None -> Relation.empty ~arity

let mem_fact inst name t =
  match Str_map.find_opt name inst with
  | Some r -> Relation.mem t r
  | None -> false

let relation_names inst = List.map fst (Str_map.bindings inst)

let adom inst =
  Str_map.fold
    (fun _ r acc -> Value_set.union (Relation.values r) acc)
    inst Value_set.empty

let fact_count inst =
  Str_map.fold (fun _ r acc -> acc + Relation.cardinal r) inst 0

let union i1 i2 =
  Str_map.union (fun _name r1 r2 -> Some (Relation.union r1 r2)) i1 i2

module Str_set = Set.Make (String)

let restrict names inst =
  let keep = Str_set.of_list names in
  Str_map.filter (fun name _ -> Str_set.mem name keep) inst

let equal i1 i2 = Str_map.equal Relation.equal i1 i2

let fold f inst acc = Str_map.fold f inst acc

let pp ppf inst =
  Str_map.iter
    (fun name r ->
       Format.fprintf ppf "@[<v2>%s (%d tuples):@,%a@]@." name
         (Relation.cardinal r) Relation.pp r)
    inst
