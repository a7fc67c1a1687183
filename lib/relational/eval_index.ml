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

(* A pattern index groups the tuples of one relation by their projection
   onto a fixed list of (1-based) columns; probing it with a key returns
   exactly the tuples whose projection equals the key.  Pattern indexes
   are what the compiled join steps of {!Cq.Plan} probe with the values of
   the already-bound variables and constants of an atom. *)
module Key_tbl = Hashtbl.Make (struct
    type t = Value.t list

    let equal a b = List.equal Value.equal a b

    let hash k =
      List.fold_left (fun acc v -> (acc * 65599) + Value.hash v) 17 k
  end)

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

type rel_data = {
  tuples : Tuple.t array;
  rel_arity : int;
  patterns : Tuple.t list Key_tbl.t Key_tbl.t;
  (* pattern indexes keyed by the probed column list (encoded as a
     [Value.Int] list so {!Key_tbl} can double as the outer table) *)
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
         tuples = Array.of_list (Relation.to_list r);
         rel_arity = arity;
         patterns = Key_tbl.create 4;
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

let arity h name =
  Option.map (fun rd -> rd.rel_arity) (rel_data h name)

let cardinal h name =
  match rel_data h name with
  | None -> 0
  | Some rd -> Array.length rd.tuples

let no_tuples : Tuple.t array = [||]

let tuples h name =
  match rel_data h name with
  | None -> no_tuples
  | Some rd ->
    Obs.add c_scanned (Array.length rd.tuples);
    rd.tuples

(* --- pattern indexes --- *)

let cols_key cols = List.map (fun c -> Value.Int c) cols

let build_pattern rd cols =
  Obs.incr c_builds;
  let tbl = Key_tbl.create (max 16 (Array.length rd.tuples)) in
  Obs.add c_scanned (Array.length rd.tuples);
  Array.iter
    (fun t ->
       let key = List.map (fun c -> Tuple.get t c) cols in
       let prev = Option.value ~default:[] (Key_tbl.find_opt tbl key) in
       Key_tbl.replace tbl key (t :: prev))
    rd.tuples;
  tbl

let pattern_index h ~rel ~cols =
  Mutex.protect h.lock (fun () ->
      Option.map
        (fun rd ->
           let ck = cols_key cols in
           match Key_tbl.find_opt rd.patterns ck with
           | Some tbl ->
             Obs.incr c_hits;
             tbl
           | None ->
             let tbl = build_pattern rd cols in
             Key_tbl.add rd.patterns ck tbl;
             tbl)
        (find_rel h rel))

let no_matches : Tuple.t list = []

let probe h ~rel ~cols key =
  Obs.incr c_probes;
  match pattern_index h ~rel ~cols with
  | None -> no_matches
  | Some tbl -> Option.value ~default:no_matches (Key_tbl.find_opt tbl key)

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

(* Tuples of [rel] whose [attr] satisfies [op value], via the sorted
   column array (binary search for the boundary, then a contiguous
   walk). *)
let range_matches ci op value =
  let n = Array.length ci.sorted in
  (* First index whose value is >= [value] (n when none). *)
  let lower_bound () =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Value.compare (fst ci.sorted.(mid)) value < 0 then lo := mid + 1
      else hi := mid
    done;
    !lo
  in
  (* First index whose value is > [value] (n when none). *)
  let upper_bound () =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Value.compare (fst ci.sorted.(mid)) value <= 0 then lo := mid + 1
      else hi := mid
    done;
    !lo
  in
  let slice lo hi =
    let acc = ref [] in
    for i = hi - 1 downto lo do
      acc := snd ci.sorted.(i) :: !acc
    done;
    List.concat !acc
  in
  match (op : Cmp_op.t) with
  | Cmp_op.Eq ->
    Option.value ~default:[] (Val_tbl.find_opt ci.by_value value)
  | Cmp_op.Lt -> slice 0 (lower_bound ())
  | Cmp_op.Le -> slice 0 (upper_bound ())
  | Cmp_op.Gt -> slice (upper_bound ()) n
  | Cmp_op.Ge -> slice (lower_bound ()) n

let matching h ~rel sels =
  match rel_data h rel with
  | None -> []
  | Some rd ->
    (match sels with
     | [] ->
       Obs.add c_scanned (Array.length rd.tuples);
       Array.to_list rd.tuples
     | (attr0, op0, v0) :: rest ->
       Obs.incr c_probes;
       (match column_index h ~rel ~attr:attr0 with
        | None -> []
        | Some ci ->
          let first = range_matches ci op0 v0 in
          (match rest with
           | [] -> first
           | _ ->
             Obs.add c_scanned (List.length first);
             List.filter
               (fun t ->
                  List.for_all
                    (fun (a, op, c) -> Cmp_op.eval op (Tuple.get t a) c)
                    rest)
               first)))

let select_column h ~rel ~attr ~sels =
  match sels with
  | [] -> column_values h ~rel ~attr
  | _ ->
    List.fold_left
      (fun acc t -> Value_set.add (Tuple.get t attr) acc)
      Value_set.empty
      (matching h ~rel sels)
