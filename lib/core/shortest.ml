open Whynot_concept

let length e = List.fold_left (fun acc c -> acc + Ls.size c) 0 e

let irredundant_mge ?variant wn = Incremental.one_mge ?variant ~shorten:true wn

(* Every concept of the class list is the shortest member of its
   extension class, and MGE equivalence is componentwise, so each MGE
   Algorithm 1 returns is already the shortest of its class. *)
let shortest_mge_selection_free wn =
  let o =
    Ontology.of_instance_finite wn.Whynot.instance (Whynot.constant_pool wn)
  in
  Result.map
    (List.fold_left
       (fun best e ->
          match best with
          | Some b when length b <= length e -> best
          | _ -> Some e)
       None)
    (Exhaustive.all_mges o wn)

(* Only the nominals of ext(c) can take part in a selection-free concept
   with that extension: a nominal outside it, or two distinct ones, give
   another extension. *)
let minimise_concept_exact inst c =
  let h = Subsume_memo.inst inst in
  match Subsume_memo.extension h c with
  | Semantics.All -> Ls.top
  | Semantics.Fin s as target ->
    (match
       List.find_opt
         (fun (_, e) -> Semantics.ext_equal e target)
         (Ontology.instance_classes h s)
     with
     | Some (c', _) -> c'
     | None -> c)
