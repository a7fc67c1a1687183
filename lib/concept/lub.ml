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

let projection_mask h c =
  let positions = Subsume_memo.positions h in
  let m = Bits.empty (Array.length positions) in
  let rec position rel attr k =
    if k = Array.length positions then -1
    else
      let rel', attr' = positions.(k) in
      if attr = attr' && String.equal rel rel' then k
      else position rel attr (k + 1)
  in
  let rec add = function
    | [] -> true
    | Ls.Proj { rel; attr; sels = [] } :: rest ->
      (match position rel attr 0 with
       | -1 -> false
       | k ->
         Bits.add m k;
         add rest)
    | _ -> false
  in
  match Ls.conjuncts c with
  | [] -> None
  | conjuncts -> if add conjuncts then Some m else None

(* An active-domain constant's position mask holds the empty set, so
   only an id outside the active domain needs the emptiness test. *)
let[@inline] inter_covers posmasks m b i =
  if i >= 0 && i < Array.length posmasks then
    Bits.inter_subset m b posmasks.(i)
  else Bits.disjoint m b

(* [top]'s membership closes over nothing, so it allocates nothing. *)
let covers h m =
  if Bits.is_empty m then fun _ -> true
  else
    let posmasks = Subsume_memo.posmasks h in
    fun i -> inter_covers posmasks m m i

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
let count_covering posmasks m =
  let n = ref 0 in
  for i = 0 to Array.length posmasks - 1 do
    if Bits.subset m posmasks.(i) then incr n
  done;
  !n

let shorten h ?nominal m =
  let count = count_covering (Subsume_memo.posmasks h) in
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
  render h ?nominal (mask h x)

(* --- with selections (Lemma 5.2) ---

   A selection that keeps every [x] of [X] in [pi_attr(sigma(rel))] keeps
   one witness tuple ([t.attr = x]) per [x], and then keeps the witnesses'
   bounding box: per attribute, the closed interval between their least
   and greatest values. So the subset-minimal extensions come from the
   boxes of one witness per [x]. They are built one constant at a time,
   [boxes(X u {x}) = { bbox(B u {t}) : B in boxes(X), t a witness of x }],
   keeping only the boxes that contain no other: a larger box selects a
   superset whatever witnesses follow. Pruning by extension instead would
   not be sound, since a box selecting fewer tuples now may have to grow
   more later. *)

type box = { lo : Value.t array; hi : Value.t array }  (* 0-based attrs *)

let point t =
  let vs = Array.of_list (Tuple.to_list t) in
  { lo = vs; hi = vs }

let grow b t =
  let v i = Tuple.get t (i + 1) in
  {
    lo = Array.mapi (fun i l -> if Value.compare (v i) l < 0 then v i else l) b.lo;
    hi = Array.mapi (fun i u -> if Value.compare (v i) u > 0 then v i else u) b.hi;
  }

let inside b b' =
  Array.for_all2 (fun l l' -> Value.compare l' l <= 0) b.lo b'.lo
  && Array.for_all2 (fun u u' -> Value.compare u u' <= 0) b.hi b'.hi

(* The [leq]-minimal items, the first of each equal run kept. *)
let minimal leq items =
  List.fold_left
    (fun kept b ->
       if List.exists (fun k -> leq k b) kept then kept
       else b :: List.filter (fun k -> not (leq b k)) kept)
    [] items

let sels_of_box b =
  List.concat
    (List.mapi
       (fun i l ->
          List.map
            (fun (op, value) -> { Ls.attr = i + 1; op; value })
            (Interval.to_conditions
               (Interval.make (Interval.Closed l) (Interval.Closed b.hi.(i)))))
       (Array.to_list b.lo))

let conjunct_ext_set h c =
  match Subsume_memo.conjunct_ext h c with
  | Semantics.All -> assert false (* Proj extensions are finite *)
  | Semantics.Fin s -> s

let atomic_selection_candidates h ~rel ~attr x =
  let witnesses v =
    Subsume_memo.check_deadline h;
    Eval_index.matching (Subsume_memo.index h) ~rel [ (attr, Cmp_op.Eq, v) ]
  in
  let rec extend boxes = function
    | v :: vs when boxes <> [] ->
      let ts = witnesses v in
      extend (minimal inside (List.concat_map (fun b -> List.map (grow b) ts) boxes)) vs
    | _ -> boxes  (* done, or some constant has no witness *)
  in
  match Value_set.elements x with
  | [] -> []
  | v :: vs ->
    (* One conjunct per subset-minimal extension: the least in
       [Stdlib.compare] order among the boxes selecting it, so the
       choice depends on the instance alone, not on witness order. *)
    extend (minimal inside (List.map point (witnesses v))) vs
    |> List.map (fun b -> Ls.Proj { rel; attr; sels = sels_of_box b })
    |> List.sort Stdlib.compare
    |> List.map (fun c -> (conjunct_ext_set h c, c))
    |> minimal (fun (e, _) (e', _) -> Value_set.subset e e')
    |> List.map snd

let lub_sigma h x =
  if Value_set.is_empty x then invalid_arg "Lub.lub_sigma: empty constant set";
  Subsume_memo.memo_lub h x (fun () ->
      let candidates =
        List.concat_map
          (fun (rel, attr) -> atomic_selection_candidates h ~rel ~attr x)
          (Array.to_list (Subsume_memo.positions h))
      in
      Ls.of_conjuncts (nominal_conjuncts x @ candidates))
