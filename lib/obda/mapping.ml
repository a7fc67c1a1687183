open Whynot_relational

type head =
  | Concept_of of string * string
  | Role_of of string * string * string

type t = {
  body_atoms : Cq.atom list;
  body_comparisons : Cq.comparison list;
  head : head;
}

let make ?(comparisons = []) ~head body_atoms =
  { body_atoms; body_comparisons = comparisons; head }

let body_cq m =
  let head_terms =
    match m.head with
    | Concept_of (_, x) -> [ Cq.Var x ]
    | Role_of (_, x, y) -> [ Cq.Var x; Cq.Var y ]
  in
  Cq.make ~head:head_terms ~atoms:m.body_atoms
    ~comparisons:m.body_comparisons ()

let is_safe m = Cq.is_safe (body_cq m)

let retrieve m inst interp =
  let answers = Cq.eval (body_cq m) inst in
  Relation.fold
    (fun tuple interp ->
       match m.head with
       | Concept_of (a, _) ->
         Whynot_dllite.Interp.add_concept_member a (Tuple.get tuple 1) interp
       | Role_of (p, _, _) ->
         Whynot_dllite.Interp.add_role_edge p (Tuple.get tuple 1)
           (Tuple.get tuple 2) interp)
    answers interp

let pp ppf m =
  let pp_head ppf = function
    | Concept_of (a, x) -> Format.fprintf ppf "%s(%s)" a x
    | Role_of (p, x, y) -> Format.fprintf ppf "%s(%s, %s)" p x y
  in
  let body = body_cq m in
  Format.fprintf ppf "@[<hov2>%a ->@ %a@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf (a : Cq.atom) ->
          Format.fprintf ppf "%s(%a)" a.Cq.rel
            (Format.pp_print_list
               ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
               Cq.pp_term)
            a.Cq.args))
    body.Cq.atoms pp_head m.head
