open Whynot_relational

type 'c t = 'c list

let covers_missing o wn e =
  List.length e = Whynot.arity wn
  && List.for_all2 (fun c a -> o.Ontology.mem c a) e (Whynot.missing_values wn)

let kills o e tuple =
  let values = Tuple.to_list tuple in
  List.exists2 (fun c v -> not (o.Ontology.mem c v)) e values

let disjoint_from_answers o wn e =
  Relation.for_all (fun t -> kills o e t) wn.Whynot.answers

let is_explanation o wn e =
  covers_missing o wn e && disjoint_from_answers o wn e

let less_general o e e' =
  List.length e = List.length e'
  && List.for_all2 (fun c c' -> o.Ontology.subsumes c c') e e'

let strictly_less_general o e e' =
  less_general o e e' && not (less_general o e' e)

let equivalent o e e' = less_general o e e' && less_general o e' e

let pp o ppf e =
  Format.fprintf ppf "<%a>"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       o.Ontology.pp)
    e

module Frontier = struct
  module Subsume_memo = Whynot_concept.Subsume_memo
  module Value_tbl = Hashtbl.Make (Value)

  (* Ids [0 .. |adom|-1] are the handle's [adom_array]; the answers'
     values outside it follow, first seen first. *)
  type answers = {
    source : Relation.t;
    handle : Subsume_memo.inst option;
    adom : Value.t array;
    adom_id : Value.t -> int;  (* -1 outside [adom] *)
    outside : Value.t array;
    outside_ids : int Value_tbl.t;
    rows : int array array;
  }

  let encode ?handle r =
    let adom, adom_id =
      match handle with
      | Some h -> (Subsume_memo.adom_array h, Subsume_memo.adom_index h)
      | None -> ([||], fun _ -> -1)
    in
    let outside_ids = Value_tbl.create 8 and outside = ref [] in
    let id v =
      match adom_id v with
      | -1 ->
        (match Value_tbl.find_opt outside_ids v with
         | Some i -> i
         | None ->
           let i = Array.length adom + Value_tbl.length outside_ids in
           Value_tbl.add outside_ids v i;
           outside := v :: !outside;
           i)
      | i -> i
    in
    let rows =
      Relation.fold
        (fun t acc ->
           Array.init (Tuple.arity t) (fun k -> id (Tuple.get t (k + 1)))
           :: acc)
        r []
    in
    {
      source = r;
      handle;
      adom;
      adom_id;
      outside = Array.of_list (List.rev !outside);
      outside_ids;
      rows = Array.of_list (List.rev rows);
    }

  (* The missing values without an id in [ans] take the next ones. *)
  type ids = {
    ans : answers;
    extra : Value.t array;
    missing : int array;
  }

  let known a v =
    match a.adom_id v with
    | -1 -> Option.value ~default:(-1) (Value_tbl.find_opt a.outside_ids v)
    | i -> i

  let base q = Array.length q.ans.adom + Array.length q.ans.outside
  let size q = base q + Array.length q.extra

  let id q v =
    match known q.ans v with
    | -1 ->
      let rec find k =
        if k = Array.length q.extra then None
        else if Value.equal v q.extra.(k) then Some (base q + k)
        else find (k + 1)
      in
      find 0
    | i -> Some i

  let ids ?answers ?handle wn =
    let ans =
      match answers with
      | None -> encode ?handle wn.Whynot.answers
      | Some a ->
        let same_handle =
          match (a.handle, handle) with
          | None, None -> true
          | Some h, Some h' -> h == h'
          | _ -> false
        in
        if not same_handle then
          invalid_arg "Explanation.Frontier.ids: answers encoded over another \
                       handle";
        if not (a.source == wn.Whynot.answers
                || Relation.equal a.source wn.Whynot.answers)
        then invalid_arg "Explanation.Frontier.ids: answers of another question";
        a
    in
    let missing = Whynot.missing_values wn in
    let extra =
      List.fold_left
        (fun extra v ->
           if known ans v >= 0 || List.exists (Value.equal v) extra then extra
           else extra @ [ v ])
        [] missing
    in
    let q = { ans; extra = Array.of_list extra; missing = [||] } in
    let id v = Option.get (id q v) in
    { q with missing = Array.of_list (List.map id missing) }

  let value q i =
    let n = Array.length q.ans.adom in
    if i < n then q.ans.adom.(i)
    else if i < base q then q.ans.outside.(i - n)
    else q.extra.(i - base q)

  let missing_id q j = q.missing.(j)

  let through q mem c =
    let m = mem c in
    fun i -> m (value q i)

  (* [adom] is ascending, as [Value_set] iterates: one merge walk finds
     the ids of an extension's active-domain members. *)
  let ext_mem q = function
    | Whynot_concept.Semantics.All -> fun _ -> true
    | Whynot_concept.Semantics.Fin s ->
      let adom = q.ans.adom and ids = Bits.empty (size q) in
      let k = ref 0 in
      Value_set.iter
        (fun v ->
           while !k < Array.length adom && Value.compare adom.(!k) v < 0 do
             incr k
           done;
           if !k < Array.length adom && Value.equal adom.(!k) v then
             Bits.add ids !k
           else Option.iter (Bits.add ids) (id q v))
        s;
      Bits.mem ids

  type 'c t = {
    member : 'c -> int -> bool;
    missing : int array;
    concepts : 'c array;
    members : (int -> bool) array;
        (* [members.(j)] = [member concepts.(j)], applied once. *)
    rows : int array array;
    excluded : Bits.t array;
        (* [excluded.(i)]: the positions [j] whose concept misses
           component [j] of answer [i]. *)
    only : int list array;
        (* [only.(j)] = D_j: component [j] of every answer that position
           [j] alone excludes, each id once. *)
    size : int;
  }

  (* Recompute every D_j from the exclusion masks; false when some answer
     is excluded at no position. *)
  let refill f =
    let seen = Array.map (fun _ -> Bits.empty f.size) f.only in
    Array.fill f.only 0 (Array.length f.only) [];
    let rec go i =
      i = Array.length f.rows
      ||
      match Bits.sole f.excluded.(i) with
      | -1 -> false
      | -2 -> go (i + 1)
      | j ->
        let v = f.rows.(i).(j) in
        if not (Bits.mem seen.(j) v) then begin
          Bits.add seen.(j) v;
          f.only.(j) <- v :: f.only.(j)
        end;
        go (i + 1)
    in
    go 0

  let make (q : ids) member e =
    let arity = Array.length q.missing in
    if List.length e <> arity then None
    else
      let concepts = Array.of_list e in
      let members = Array.map member concepts in
      if not (Array.for_all2 (fun m a -> m a) members q.missing) then None
      else
        let excluded row =
          let x = Bits.empty arity in
          Array.iteri (fun j v -> if not (members.(j) v) then Bits.add x j) row;
          x
        in
        let f =
          {
            member;
            missing = q.missing;
            concepts;
            members;
            rows = q.ans.rows;
            excluded = Array.map excluded q.ans.rows;
            only = Array.make arity [];
            size = size q;
          }
        in
        if refill f then Some f else None

  let concepts f = Array.to_list f.concepts
  let concept f j = f.concepts.(j)
  let mem f j i = f.members.(j) i
  let only f j = f.only.(j)

  let accepts f j c =
    let m = f.member c in
    m f.missing.(j) && not (List.exists m f.only.(j))

  (* An answer loses its last excluding position iff its component [j]
     is in D_j and in [ext(c)]. *)
  let replace f j c =
    let m = f.member c in
    if List.exists m f.only.(j) then
      invalid_arg "Explanation.Frontier.replace: not an explanation";
    f.concepts.(j) <- c;
    f.members.(j) <- m;
    Array.iteri
      (fun i row ->
         if m row.(j) then Bits.clear f.excluded.(i) j
         else Bits.add f.excluded.(i) j)
      f.rows;
    ignore (refill f)
end
