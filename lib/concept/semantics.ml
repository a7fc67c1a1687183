open Whynot_relational

type ext =
  | All
  | Fin of Value_set.t

let ext_mem v = function
  | All -> true
  | Fin s -> Value_set.mem v s

let ext_inter e1 e2 =
  match e1, e2 with
  | All, e | e, All -> e
  | Fin s1, Fin s2 -> Fin (Value_set.inter s1 s2)

let ext_subset e1 e2 =
  match e1, e2 with
  | _, All -> true
  | All, Fin _ -> false
  | Fin s1, Fin s2 -> Value_set.subset s1 s2

let ext_equal e1 e2 = ext_subset e1 e2 && ext_subset e2 e1

(* [pi_attr(sigma_sels(rel))] answered from the handle's per-column value
   indexes instead of a full-relation [Relation.select] scan. The scan
   version is preserved in [Whynot_proptest.Oracle.scan_conjunct_ext] and
   pinned against this one by the [ext/indexed-equals-scan] differential
   property. *)
let conjunct_ext c idx =
  match c with
  | Ls.Nominal v -> Fin (Value_set.singleton v)
  | Ls.Proj { rel; attr; sels } ->
    Fin
      (Eval_index.select_column idx ~rel ~attr
         ~sels:
           (List.map (fun (s : Ls.selection) -> (s.attr, s.op, s.value)) sels))

let indexed_extension t idx =
  List.fold_left
    (fun acc c -> ext_inter acc (conjunct_ext c idx))
    All (Ls.conjuncts t)

let indexed_mem v t idx =
  List.for_all (fun c -> ext_mem v (conjunct_ext c idx)) (Ls.conjuncts t)

let extension t inst = indexed_extension t (Eval_index.of_instance inst)
let mem v t inst = indexed_mem v t (Eval_index.of_instance inst)
