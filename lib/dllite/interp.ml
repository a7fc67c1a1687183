open Whynot_relational

module Str_map = Map.Make (String)

module Edge_set = Set.Make (struct
    type t = Value.t * Value.t
    let compare (a1, b1) (a2, b2) =
      let c = Value.compare a1 a2 in
      if c <> 0 then c else Value.compare b1 b2
  end)

type t = {
  concepts : Value_set.t Str_map.t;
  roles : Edge_set.t Str_map.t;
}

let empty = { concepts = Str_map.empty; roles = Str_map.empty }

let add_concept_member a v t =
  let cur =
    Option.value ~default:Value_set.empty (Str_map.find_opt a t.concepts)
  in
  { t with concepts = Str_map.add a (Value_set.add v cur) t.concepts }

let add_role_edge p v w t =
  let cur = Option.value ~default:Edge_set.empty (Str_map.find_opt p t.roles) in
  { t with roles = Str_map.add p (Edge_set.add (v, w) cur) t.roles }

let role_edges t p =
  Option.value ~default:Edge_set.empty (Str_map.find_opt p t.roles)

let role_ext t = function
  | Dl.Named p -> Edge_set.elements (role_edges t p)
  | Dl.Inv p -> List.map (fun (a, b) -> (b, a)) (Edge_set.elements (role_edges t p))

let concept_ext t = function
  | Dl.Atom a ->
    Option.value ~default:Value_set.empty (Str_map.find_opt a t.concepts)
  | Dl.Exists r ->
    List.fold_left
      (fun acc (a, _) -> Value_set.add a acc)
      Value_set.empty (role_ext t r)

let satisfies_inclusion t b1 b2 =
  Value_set.subset (concept_ext t b1) (concept_ext t b2)

let satisfies_axiom t = function
  | Tbox.Concept_incl (b, Dl.B b') -> satisfies_inclusion t b b'
  | Tbox.Concept_incl (b, Dl.Not b') ->
    Value_set.is_empty (Value_set.inter (concept_ext t b) (concept_ext t b'))
  | Tbox.Role_incl (r, Dl.R r') ->
    let ext r = Edge_set.of_list (role_ext t r) in
    Edge_set.subset (ext r) (ext r')
  | Tbox.Role_incl (r, Dl.NotR r') ->
    let ext r = Edge_set.of_list (role_ext t r) in
    Edge_set.is_empty (Edge_set.inter (ext r) (ext r'))

let satisfies t tb = List.for_all (satisfies_axiom t) (Tbox.axioms tb)

let concept_names t = List.map fst (Str_map.bindings t.concepts)
let role_names t = List.map fst (Str_map.bindings t.roles)

let to_instance t =
  Instance.of_facts
    (Str_map.fold
       (fun name members acc ->
          (name, List.map (fun v -> [ v ]) (Value_set.elements members)) :: acc)
       t.concepts
       (Str_map.fold
          (fun name edges acc ->
             (name, List.map (fun (a, b) -> [ a; b ]) (Edge_set.elements edges))
             :: acc)
          t.roles []))
