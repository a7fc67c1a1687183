module Obs = Whynot_obs.Obs

let c_handles =
  Obs.counter "eval.index.handles" ~doc:"indexed-instance handles created"

let c_builds =
  Obs.counter "eval.index.builds" ~doc:"hash/column indexes built"

let c_probes =
  Obs.counter "eval.index.probes" ~doc:"index probes (pattern or column)"

let c_hits =
  Obs.counter "eval.index.hits" ~doc:"index probes answered by an existing index"

let c_scanned =
  Obs.counter "eval.tuples.scanned"
    ~doc:"tuples touched while building indexes or scanning unindexed atoms"

(* --- per-relation data --- *)

module Val_tbl = Hashtbl.Make (struct
    type t = Value.t

    let equal = Value.equal
    let hash = Value.hash
  end)

type col_index = {
  by_value : Tuple.t list Val_tbl.t;          (* equality probes *)
  sorted : (Value.t * Tuple.t list) array;    (* range probes, ascending *)
  distinct : Value_set.t;                     (* the column's value set *)
}

(* A pattern index groups the tuples of one relation by their projection
   onto a fixed list of columns; a lookup with a key returns exactly the
   tuples whose projection equals the key. Pattern indexes are what the
   compiled join steps of {!Cq.Plan} probe with the values of the
   already-bound variables and constants of an atom. The groups sit in an
   open-addressing table, so a lookup hashes the key's values where they
   are and allocates nothing. *)
type pattern = {
  cols : int array;              (* 0-based probed columns *)
  groups : Tuple.t array array;  (* one per distinct projection, ascending *)
  table : int array;             (* group numbers, -1 for a free slot *)
}

type rel_data = {
  tuples : Tuple.t array;
  rel_arity : int;
  patterns : (int list, pattern) Hashtbl.t;  (* keyed by 1-based columns *)
  mutable columns : col_index option array;   (* slot per 1-based column *)
}

type t = {
  instance : Instance.t;
  rels : (string, rel_data option) Hashtbl.t;
  lock : Mutex.t;
  (* All lazy building — a relation's tuple array on first touch, then its
     indexes — happens under [lock]; once published, data is never
     mutated again, but concurrent readers must not race a [Hashtbl.add],
     so lookups take the lock for the (cheap) find-or-build step and only
     then walk the frozen result. *)
}

let instance h = h.instance

(* A handle belongs to whoever creates it and lives exactly as long as its
   owner: there is no registry behind it. Creating one does no work; each
   relation is materialised the first time it is touched. Instances are
   immutable, so an index can never go stale. *)
let of_instance instance =
  Obs.incr c_handles;
  { instance; rels = Hashtbl.create 16; lock = Mutex.create () }

let load h name =
  Option.map
    (fun r ->
       let arity = Relation.arity r in
       {
         tuples = Relation.tuples r;
         rel_arity = arity;
         patterns = Hashtbl.create 4;
         columns = Array.make (max arity 1) None;
       })
    (Instance.relation h.instance name)

(* --- lookups --- *)

(* Call with [h.lock] held. *)
let find_rel h name =
  match Hashtbl.find_opt h.rels name with
  | Some rd -> rd
  | None ->
    let rd = load h name in
    Hashtbl.add h.rels name rd;
    rd

let rel_data h name = Mutex.protect h.lock (fun () -> find_rel h name)

let cardinal h name =
  match rel_data h name with
  | None -> 0
  | Some rd -> Array.length rd.tuples

let no_tuples : Tuple.t array = [||]

let tuples h name =
  match rel_data h name with
  | None -> no_tuples
  | Some rd -> rd.tuples

(* --- pattern indexes --- *)

(* The message [Tuple.get] raises for the first probed column beyond
   the relation's arity. *)
let check_cols rd cols =
  match List.find_opt (fun c -> c > rd.rel_arity) cols with
  | Some c when Array.length rd.tuples > 0 ->
    invalid_arg
      (Printf.sprintf "Tuple.get: attribute %d out of range 1..%d" c
         rd.rel_arity)
  | _ -> ()

(* One hash for a tuple's projection and for a key, so equal values
   meet: [Hashtbl.hash] agrees with [Value.equal] and allocates
   nothing. *)
let mix h v = (h * 31) + Hashtbl.hash (v : Value.t)

let hash_proj cols (t : Tuple.t) =
  let t = (t :> Value.t array) in
  let h = ref 17 in
  for i = 0 to Array.length cols - 1 do
    h := mix !h t.(cols.(i))
  done;
  !h land max_int

let hash_key (key : Value.t array) =
  let h = ref 17 in
  for i = 0 to Array.length key - 1 do
    h := mix !h key.(i)
  done;
  !h land max_int

(* Toplevel loops, not local closures: a lookup allocates nothing. *)
let rec proj_equal cols (t : Value.t array) (u : Value.t array) i =
  i = Array.length cols
  || (Value.equal t.(cols.(i)) u.(cols.(i)) && proj_equal cols t u (i + 1))

let rec key_matches cols (key : Value.t array) (t : Value.t array) i =
  i = Array.length cols
  || (Value.equal key.(i) t.(cols.(i)) && key_matches cols key t (i + 1))

let build_pattern rd cols =
  Obs.incr c_builds;
  let tuples = rd.tuples in
  let n = Array.length tuples in
  Obs.add c_scanned n;
  let cols = Array.of_list (List.map (fun c -> c - 1) cols) in
  let size =
    let rec grow s = if s >= 2 * n then s else grow (2 * s) in
    grow 8
  in
  let table = Array.make size (-1) in
  (* Each tuple's group, numbered in order of first member; a group's
     first member stands for it in the table. *)
  let group_of = Array.make n 0 and first = Array.make n 0 in
  let count = Array.make n 0 and n_groups = ref 0 in
  for i = 0 to n - 1 do
    let t = tuples.(i) in
    let rec place j =
      let g = table.(j) in
      if g < 0 then begin
        let g = !n_groups in
        incr n_groups;
        table.(j) <- g;
        first.(g) <- i;
        g
      end
      else if
        proj_equal cols (tuples.(first.(g)) :> Value.t array)
          (t :> Value.t array) 0
      then g
      else place ((j + 1) land (size - 1))
    in
    let g = place (hash_proj cols t land (size - 1)) in
    group_of.(i) <- g;
    count.(g) <- count.(g) + 1
  done;
  let groups =
    Array.init !n_groups (fun g -> Array.make count.(g) tuples.(first.(g)))
  in
  Array.fill count 0 !n_groups 0;
  for i = 0 to n - 1 do
    let g = group_of.(i) in
    groups.(g).(count.(g)) <- tuples.(i);
    count.(g) <- count.(g) + 1
  done;
  { cols; groups; table }

let pattern h ~rel ~cols =
  Mutex.protect h.lock (fun () ->
      Option.map
        (fun rd ->
           match Hashtbl.find_opt rd.patterns cols with
           | Some p ->
             Obs.incr c_hits;
             p
           | None ->
             check_cols rd cols;
             let p = build_pattern rd cols in
             Hashtbl.add rd.patterns cols p;
             p)
        (find_rel h rel))

let no_tuples_found : Tuple.t array = [||]

let count ~probes ~scanned =
  Obs.add c_probes probes;
  Obs.add c_scanned scanned

let rec find_group p key mask j =
  let g = p.table.(j) in
  if g < 0 then no_tuples_found
  else if key_matches p.cols key (p.groups.(g).(0) :> Value.t array) 0 then
    p.groups.(g)
  else find_group p key mask ((j + 1) land mask)

let lookup p key =
  let mask = Array.length p.table - 1 in
  find_group p key mask (hash_key key land mask)

(* --- per-column value indexes --- *)

let build_column rd attr =
  Obs.incr c_builds;
  let by_value = Val_tbl.create (max 16 (Array.length rd.tuples)) in
  Obs.add c_scanned (Array.length rd.tuples);
  Array.iter
    (fun t ->
       let v = Tuple.get t attr in
       let prev = Option.value ~default:[] (Val_tbl.find_opt by_value v) in
       Val_tbl.replace by_value v (t :: prev))
    rd.tuples;
  let sorted =
    Val_tbl.fold (fun v ts acc -> (v, ts) :: acc) by_value []
    |> List.sort (fun (v1, _) (v2, _) -> Value.compare v1 v2)
    |> Array.of_list
  in
  let distinct =
    Array.fold_left
      (fun acc (v, _) -> Value_set.add v acc)
      Value_set.empty sorted
  in
  { by_value; sorted; distinct }

let column_index h ~rel ~attr =
  Mutex.protect h.lock (fun () ->
      Option.map
        (fun rd ->
           if attr < 1 then
             invalid_arg
               (Printf.sprintf "Eval_index: attribute %d out of range" attr);
           (* Out-of-range attributes on a non-empty relation fail inside
              [build_column] via [Tuple.get], matching the full-scan
              behaviour of [Relation.column]/[Relation.select]. *)
           if attr > Array.length rd.columns then begin
             let grown = Array.make attr None in
             Array.blit rd.columns 0 grown 0 (Array.length rd.columns);
             rd.columns <- grown
           end;
           match rd.columns.(attr - 1) with
           | Some ci ->
             Obs.incr c_hits;
             ci
           | None ->
             let ci = build_column rd attr in
             rd.columns.(attr - 1) <- Some ci;
             ci)
        (find_rel h rel))

let column_values h ~rel ~attr =
  Obs.incr c_probes;
  match column_index h ~rel ~attr with
  | None -> Value_set.empty
  | Some ci -> ci.distinct

(* The slice [lo, hi) of [ci.sorted] holding the values that satisfy
   [op value] (binary search for the boundary); [Eq] is answered by hash
   instead and never asked here. *)
let range ci op value =
  let n = Array.length ci.sorted in
  (* First index whose value is >= [value] ([strict]: > [value]). *)
  let bound ~strict =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let c = Value.compare (fst ci.sorted.(mid)) value in
      if c < 0 || (strict && c = 0) then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  match (op : Cmp_op.t) with
  | Cmp_op.Lt -> (0, bound ~strict:false)
  | Cmp_op.Le -> (0, bound ~strict:true)
  | Cmp_op.Gt -> (bound ~strict:true, n)
  | Cmp_op.Ge -> (bound ~strict:false, n)
  | Cmp_op.Eq -> invalid_arg "Eval_index.range: equality"

let slice ci (lo, hi) =
  let acc = ref [] in
  for i = hi - 1 downto lo do
    acc := snd ci.sorted.(i) :: !acc
  done;
  List.concat !acc

(* One attribute answers from its column index: the first equality, by
   hash, when there is one; otherwise the attribute whose conditions,
   met into one slice of its sorted distinct values, keep the fewest of
   them. The conditions the index did not answer filter its tuples;
   without conditions every tuple is scanned. *)
let matching h ~rel sels =
  match rel_data h rel with
  | None -> []
  | Some rd ->
    let index attr =
      Obs.incr c_probes;
      Option.get (column_index h ~rel ~attr)
    in
    let slice_of ranges attr =
      let ci = index attr in
      let lo, hi =
        List.fold_left
          (fun (lo, hi) (a, op, v) ->
             if a <> attr then (lo, hi)
             else
               let lo', hi' = range ci op v in
               (max lo lo', min hi hi'))
          (0, Array.length ci.sorted) ranges
      in
      (attr, ci, (lo, max lo hi))
    in
    let narrower ranges best attr =
      let ((_, _, (lo, hi)) as s) = slice_of ranges attr in
      match best with
      | Some (_, _, (lo', hi')) when hi' - lo' <= hi - lo -> best
      | _ -> Some s
    in
    let ts, rest =
      match List.partition (fun (_, op, _) -> op = Cmp_op.Eq) sels with
      | (attr, _, v) :: eqs, ranges ->
        ( Option.value ~default:[] (Val_tbl.find_opt (index attr).by_value v),
          eqs @ ranges )
      | [], ranges ->
        (match
           List.fold_left (narrower ranges) None
             (List.sort_uniq Int.compare (List.map (fun (a, _, _) -> a) ranges))
         with
         | Some (attr, ci, bounds) ->
           (slice ci bounds, List.filter (fun (a, _, _) -> a <> attr) ranges)
         | None ->
           Obs.add c_scanned (Array.length rd.tuples);
           (Array.to_list rd.tuples, []))
    in
    (match rest with
     | [] -> ts
     | _ ->
       Obs.add c_scanned (List.length ts);
       List.filter
         (fun t ->
            List.for_all
              (fun (a, op, c) -> Cmp_op.eval op (Tuple.get t a) c)
              rest)
         ts)

let select_column h ~rel ~attr ~sels =
  match sels with
  | [] -> column_values h ~rel ~attr
  | _ ->
    List.fold_left
      (fun acc t -> Value_set.add (Tuple.get t attr) acc)
      Value_set.empty
      (matching h ~rel sels)
