
(* All extension evaluation goes through the per-instance memo handle: the
   minimiser probes many conjunct subsets of the same concept, and every
   subset's extension is an intersection of the same few conjunct
   extensions, so the per-conjunct cache turns the quadratic probe loop
   into set intersections over cached sets. *)

let ext_of h conjuncts =
  List.fold_left
    (fun acc c -> Semantics.ext_inter acc (Subsume_memo.conjunct_ext h c))
    Semantics.All conjuncts

(* Drop redundant selection conditions inside one conjunct: greedily remove
   conditions while the conjunct's own extension is unchanged. *)
let slim_conjunct h conj =
  match conj with
  | Ls.Nominal _ -> conj
  | Ls.Proj { rel; attr; sels } ->
    let ext_with sels =
      Subsume_memo.conjunct_ext h (Ls.Proj { rel; attr; sels })
    in
    let target = ext_with sels in
    let rec drop kept = function
      | [] -> List.rev kept
      | s :: rest ->
        let without = List.rev_append kept rest in
        if Semantics.ext_equal (ext_with without) target then drop kept rest
        else drop (s :: kept) rest
    in
    Ls.Proj { rel; attr; sels = drop [] sels }

let minimise h c =
  let target = Subsume_memo.extension h c in
  let rec drop kept = function
    | [] -> List.rev kept
    | conj :: rest ->
      let without = List.rev_append kept rest in
      if Semantics.ext_equal (ext_of h without) target then drop kept rest
      else drop (conj :: kept) rest
  in
  Ls.of_conjuncts (List.map (slim_conjunct h) (drop [] (Ls.conjuncts c)))

let is_irredundant h c =
  let conjuncts = Ls.conjuncts c in
  let target = ext_of h conjuncts in
  let rec check before = function
    | [] -> true
    | conj :: rest ->
      let without = List.rev_append before rest in
      (not (Semantics.ext_equal (ext_of h without) target))
      && check (conj :: before) rest
  in
  check [] conjuncts
