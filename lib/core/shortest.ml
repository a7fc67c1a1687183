open Whynot_relational
open Whynot_concept

let length e = List.fold_left (fun acc c -> acc + Ls.size c) 0 e

let irredundant_mge ?variant wn = Incremental.one_mge ?variant ~shorten:true wn

let shortest_mge_selection_free wn =
  let o =
    Ontology.of_instance_finite wn.Whynot.instance (Whynot.constant_pool wn)
  in
  let cs = Option.value ~default:[] o.Ontology.concepts in
  (* Algorithm 1 keeps one representative per equivalence class, not the
     shortest; equivalence is componentwise, so the shortest member of a
     class takes the shortest equivalent concept at each position. *)
  let shortest_equivalent c =
    List.fold_left
      (fun best c' ->
         if Ls.size c' < Ls.size best && Ontology.equivalent o c c' then c'
         else best)
      c cs
  in
  Result.map
    (fun mges ->
       List.fold_left
         (fun best e ->
            let e = List.map shortest_equivalent e in
            match best with
            | Some b when length b <= length e -> best
            | _ -> Some e)
         None mges)
    (Exhaustive.all_mges o wn)

let minimise_concept_exact inst c =
  let idx = Eval_index.of_instance inst in
  let target = Semantics.indexed_extension c idx in
  (* Atomic vocabulary: every projection position of the instance, plus
     nominals over the target extension (only they can help pin points). *)
  let projections =
    List.concat_map
      (fun name ->
         match Instance.relation inst name with
         | None -> []
         | Some r ->
           List.init (Relation.arity r) (fun i ->
               Ls.Proj { rel = name; attr = i + 1; sels = [] }))
      (Instance.relation_names inst)
  in
  let nominals =
    match target with
    | Semantics.All -> []
    | Semantics.Fin s -> List.map (fun v -> Ls.Nominal v) (Value_set.elements s)
  in
  let pool = nominals @ projections in
  let rec subsets_of_size k xs =
    if k = 0 then [ [] ]
    else
      match xs with
      | [] -> []
      | x :: rest ->
        List.map (fun s -> x :: s) (subsets_of_size (k - 1) rest)
        @ subsets_of_size k rest
  in
  let matches conjs =
    Semantics.ext_equal
      (Semantics.indexed_extension (Ls.of_conjuncts conjs) idx)
      target
  in
  let rec search k =
    if k > List.length pool then c
    else
      let hits = List.filter matches (subsets_of_size k pool) in
      match hits with
      | [] -> search (k + 1)
      | _ :: _ ->
        (* Among same-cardinality hits, pick the one of least size. *)
        let best =
          List.fold_left
            (fun best conjs ->
               let cand = Ls.of_conjuncts conjs in
               match best with
               | None -> Some cand
               | Some b -> if Ls.size cand < Ls.size b then Some cand else best)
            None hits
        in
        Option.value ~default:c best
  in
  if matches [] then Ls.top else search 1
