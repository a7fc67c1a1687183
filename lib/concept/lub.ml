open Whynot_relational

let nominal_conjuncts x =
  match Value_set.elements x with
  | [ c ] -> [ Ls.Nominal c ]
  | _ -> []

(* Memo tags for the lub caches of an instance handle (see
   {!Subsume_memo.memo_lub}): the variants range over different concept
   languages, so they must not share entries. *)
let tag_selection_free = 0
let tag_sigma_pruned = 1
let tag_sigma_unpruned = 2

let lub h x =
  if Value_set.is_empty x then invalid_arg "Lub.lub: empty constant set";
  Subsume_memo.memo_lub h ~tag:tag_selection_free x (fun () ->
      let projections =
        List.filter_map
          (fun (rel, attr) ->
             if Value_set.subset x (Subsume_memo.column h ~rel ~attr) then
               Some (Ls.Proj { rel; attr; sels = [] })
             else None)
          (Subsume_memo.positions h)
      in
      Ls.of_conjuncts (nominal_conjuncts x @ projections))

(* --- with selections --- *)

(* Canonical per-attribute interval options: unconstrained, or a closed
   interval [l, u] with endpoints among the witness values on that
   attribute. Closed endpoints suffice on a fixed instance: any selection
   can be strengthened to one whose endpoints are realised witness values
   without changing validity, and only stronger selections matter for the
   minimal extensions. *)
let interval_options values =
  let vs = Value_set.elements values in
  let closed =
    List.concat_map
      (fun l ->
         List.filter_map
           (fun u ->
              if Value.compare l u <= 0 then
                Some [ Interval.Closed l, Interval.Closed u ]
              else None)
           vs)
      vs
  in
  [] :: List.map (fun bounds -> List.map (fun (lo, hi) -> Interval.make lo hi) bounds) closed

let sels_of_intervals per_attr =
  List.concat_map
    (fun (attr, itvs) ->
       List.concat_map
         (fun itv ->
            List.map
              (fun (op, value) -> { Ls.attr; op; value })
              (Interval.to_conditions itv))
         itvs)
    per_attr

let conjunct_ext_set h c =
  match Subsume_memo.conjunct_ext h c with
  | Semantics.All -> assert false (* Proj/Nominal extensions are finite *)
  | Semantics.Fin s -> s

let atomic_selection_candidates ?(prune = true) h ~rel ~attr x =
  match Instance.relation (Subsume_memo.instance h) rel with
  | None -> []
  | Some r ->
    let arity = Relation.arity r in
    (* Witness tuples per element of X. *)
    let witnesses =
      Value_set.fold
        (fun v acc ->
           let ts =
             Relation.fold
               (fun t ts ->
                  if Value.equal (Tuple.get t attr) v then t :: ts else ts)
               r []
           in
           ts :: acc)
        x []
    in
    if List.exists (fun ts -> ts = []) witnesses then []
    else
      let all_witnesses = List.concat witnesses in
      let witness_values b =
        List.fold_left
          (fun acc t -> Value_set.add (Tuple.get t b) acc)
          Value_set.empty all_witnesses
      in
      (* DFS over attributes; prune as soon as the partial selection loses a
         witness for some element of X (selections only shrink). *)
      let valid sels =
        let selected =
          Relation.select
            (List.map (fun (s : Ls.selection) -> (s.attr, s.op, s.value)) sels)
            r
        in
        Value_set.subset x (Relation.column attr selected)
      in
      let rec dfs b acc_intervals acc =
        if b > arity then
          let sels = sels_of_intervals (List.rev acc_intervals) in
          if valid sels then (sels :: acc) else acc
        else
          List.fold_left
            (fun acc opt ->
               let partial = (b, opt) :: acc_intervals in
               let sels = sels_of_intervals partial in
               if valid sels then dfs (b + 1) partial acc else acc)
            acc
            (interval_options (witness_values b))
      in
      let valid_sels = dfs 1 [] [] in
      let with_ext =
        List.map
          (fun sels ->
             let c = Ls.Proj { rel; attr; sels } in
             (c, conjunct_ext_set h c))
          valid_sels
      in
      (* Keep the subset-minimal extensions (their meet equals the meet of
         all valid candidates), deduplicating equal extensions. The
         unpruned variant (D2 ablation) keeps every valid candidate. *)
      let minimal =
        if not prune then with_ext
        else
        List.filter
          (fun (_, ext) ->
             not
               (List.exists
                  (fun (_, ext') ->
                     Value_set.subset ext' ext && not (Value_set.equal ext' ext))
                  with_ext))
          with_ext
      in
      let deduped =
        List.fold_left
          (fun acc (c, ext) ->
             if List.exists (fun (_, ext') -> Value_set.equal ext ext') acc then acc
             else (c, ext) :: acc)
          [] minimal
      in
      List.map fst deduped

let lub_sigma ?(prune = true) h x =
  if Value_set.is_empty x then invalid_arg "Lub.lub_sigma: empty constant set";
  let tag = if prune then tag_sigma_pruned else tag_sigma_unpruned in
  Subsume_memo.memo_lub h ~tag x (fun () ->
      let candidates =
        List.concat_map
          (fun (rel, attr) ->
             atomic_selection_candidates ~prune h ~rel ~attr x)
          (Subsume_memo.positions h)
      in
      Ls.of_conjuncts (nominal_conjuncts x @ candidates))
