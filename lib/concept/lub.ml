open Whynot_relational

let nominal_conjuncts x =
  match Value_set.elements x with
  | [ c ] -> [ Ls.Nominal c ]
  | _ -> []

(* --- selection-free lubs as position masks (Lemma 5.1) --- *)

let mask h x =
  Value_set.fold
    (fun v m -> Bits.inter m (Subsume_memo.posmask h v))
    x
    (Bits.full (Array.length (Subsume_memo.positions h)))

let covers h m =
  if Bits.is_empty m then fun _ -> true
  else fun v -> Bits.subset m (Subsume_memo.posmask h v)

let render h ?nominal m =
  let positions = Subsume_memo.positions h in
  let projections = ref [] in
  Bits.iter
    (fun k ->
       let rel, attr = positions.(k) in
       projections := Ls.Proj { rel; attr; sels = [] } :: !projections)
    m;
  match nominal with
  | Some x -> Ls.of_conjuncts (Ls.Nominal x :: !projections)
  | None -> Ls.of_conjuncts !projections

(* [Irredundant.minimise] on masks: its greedy drop runs through the
   conjuncts in order, the nominal first, then the projections by bit.
   A drop keeps the extension iff it keeps the number of active-domain
   constants covering the mask, the empty mask ([top]) excepted. *)
let shorten h ?nominal m =
  let count m =
    Array.fold_left
      (fun n pm -> if Bits.subset m pm then n + 1 else n)
      0 (Subsume_memo.posmasks h)
  in
  let drop m =
    let target = count m in
    let kept = ref m in
    Bits.iter
      (fun k ->
         let m' = Bits.remove !kept k in
         if (not (Bits.is_empty m')) && count m' = target then kept := m')
      m;
    !kept
  in
  match nominal with
  (* The nominal's extension is [{x}]; the projections keep it iff only
     [x] covers them, and every projection is redundant next to it. *)
  | Some x when Bits.is_empty m || count m > 1 -> Ls.nominal x
  | _ when Bits.is_empty m -> Ls.top
  | _ -> render h (drop m)

let lub h x =
  if Value_set.is_empty x then invalid_arg "Lub.lub: empty constant set";
  Subsume_memo.check_deadline h;
  let nominal =
    if Value_set.cardinal x = 1 then Some (Value_set.choose x) else None
  in
  Subsume_memo.canonical h (render h ?nominal (mask h x))

(* Memo tags for the lub_sigma caches of an instance handle (see
   {!Subsume_memo.memo_lub}): the pruned and unpruned variants must not
   share entries. *)
let tag_sigma_pruned = 0
let tag_sigma_unpruned = 1

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
          (Array.to_list (Subsume_memo.positions h))
      in
      Ls.of_conjuncts (nominal_conjuncts x @ candidates))
