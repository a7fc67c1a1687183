type t = {
  arity : int;
  disjuncts : Cq.t list;
}

let make = function
  | [] -> invalid_arg "Ucq.make: empty union"
  | q :: _ as qs ->
    let arity = Cq.arity q in
    if List.exists (fun q' -> Cq.arity q' <> arity) qs then
      invalid_arg "Ucq.make: disjuncts of different arities"
    else { arity; disjuncts = qs }

let of_cq q = { arity = Cq.arity q; disjuncts = [ q ] }

let arity u = u.arity

(* The answers of every disjunct go into one builder, and the relation
   is built once. *)
let eval_in idx u =
  let b = Relation.builder ~arity:u.arity in
  List.iter (fun q -> Cq.Plan.emit idx q b) u.disjuncts;
  Relation.build b

(* The disjuncts share one index handle, owned by the call. *)
let eval u inst = eval_in (Eval_index.of_instance inst) u

let holds u inst =
  let idx = Eval_index.of_instance inst in
  List.exists (fun q -> Cq.Plan.holds idx q) u.disjuncts

let constants u =
  List.fold_left
    (fun acc q -> Value_set.union acc (Cq.constants q))
    Value_set.empty u.disjuncts

let rename_apart ~suffix u =
  { u with disjuncts = List.map (Cq.rename_apart ~suffix) u.disjuncts }

let atoms_relations u =
  List.sort_uniq String.compare
    (List.concat_map
       (fun q -> List.map (fun (a : Cq.atom) -> a.rel) q.Cq.atoms)
       u.disjuncts)

let pp ppf u =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf "@ | ")
    Cq.pp ppf u.disjuncts
