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

  (* Column [j] of the answers: its distinct ids, ascending, and the
     answers holding each, ascending. The postings of [ids.(k)] are
     [postings.(starts.(k)) .. postings.(starts.(k + 1) - 1)]. *)
  type column = {
    ids : int array;
    starts : int array;
    postings : int array;
  }

  (* Ids [0 .. |adom|-1] are the handle's [adom_array], ascending; the
     answers' values outside it follow, first seen first. *)
  type answers = {
    source : Relation.t;
    handle : Subsume_memo.inst option;
    adom : Value.t array;
    outside : Value.t array;
    outside_ids : int Value_tbl.t;
    count : int;  (* |Ans| *)
    columns : column array;
    slots : int array;
        (* component [j] of answer [i], at [i * arity + j], as its index
           among [columns.(j).ids] *)
  }

  (* Column [j] of the answers' ids [rows] (laid out as [slots]), whose
     slots it writes into [slots]. *)
  let column rows slots ~count ~arity j =
    let at i = rows.((i * arity) + j) in
    let postings = Array.init count Fun.id in
    Array.stable_sort (fun i i' -> Int.compare (at i) (at i')) postings;
    let ids = ref [] and starts = ref [] and k = ref (-1) in
    Array.iteri
      (fun p i ->
         if p = 0 || at postings.(p - 1) <> at i then begin
           incr k;
           ids := at i :: !ids;
           starts := p :: !starts
         end;
         slots.((i * arity) + j) <- !k)
      postings;
    {
      ids = Array.of_list (List.rev !ids);
      starts = Array.of_list (List.rev (count :: !starts));
      postings;
    }

  let adom_id handle v =
    match handle with Some h -> Subsume_memo.adom_index h v | None -> -1

  let encode ?handle r =
    let adom =
      match handle with Some h -> Subsume_memo.adom_array h | None -> [||]
    in
    let outside_ids = Value_tbl.create 8 and outside = ref [] in
    let id v =
      match adom_id handle v with
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
    let arity = Relation.arity r and count = Relation.cardinal r in
    let rows = Array.make (count * arity) 0 in
    ignore
      (Relation.fold
         (fun t i ->
            for j = 0 to arity - 1 do
              rows.((i * arity) + j) <- id (Tuple.get t (j + 1))
            done;
            i + 1)
         r 0);
    let slots = Array.make (count * arity) 0 in
    let columns = Array.init arity (column rows slots ~count ~arity) in
    {
      source = r;
      handle;
      adom;
      outside = Array.of_list (List.rev !outside);
      outside_ids;
      count;
      columns;
      slots;
    }

  let known a v =
    match adom_id a.handle v with
    | -1 when Array.length a.outside = 0 -> -1
    | -1 -> Option.value ~default:(-1) (Value_tbl.find_opt a.outside_ids v)
    | i -> i

  (* The index of [id] among a column's ids, or -1. *)
  let slot c id = Sorted.index Int.compare c.ids id

  (* The missing values without an id in [ans] take the next ones. *)
  type ids = {
    ans : answers;
    tuple : Tuple.t;  (* the missing tuple *)
    extra : Value.t array;
    missing : int array;
  }

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

  let of_missing ans missing =
    let arity = Tuple.arity missing in
    let ids = Array.make arity 0 and extra = ref [] in
    let base = Array.length ans.adom + Array.length ans.outside in
    (* [v]'s index in [extra], appending it when it is new. *)
    let rec extra_index v k = function
      | [] ->
        extra := !extra @ [ v ];
        k
      | x :: xs -> if Value.equal v x then k else extra_index v (k + 1) xs
    in
    for j = 0 to arity - 1 do
      let v = Tuple.get missing (j + 1) in
      match known ans v with
      | -1 -> ids.(j) <- base + extra_index v 0 !extra
      | i -> ids.(j) <- i
    done;
    let extra = match !extra with [] -> [||] | xs -> Array.of_list xs in
    { ans; tuple = missing; extra; missing = ids }

  (* The missing tuple's slot at each position, then the answers of its
     shortest posting list, each compared in full. An id without a slot
     in some column belongs to no answer. *)
  let is_answer q =
    let a = q.ans in
    let arity = Array.length a.columns in
    let rec same i j =
      j = arity
      || a.columns.(j).ids.(a.slots.((i * arity) + j)) = q.missing.(j)
         && same i (j + 1)
    in
    let rec scan c p stop =
      p < stop && (same c.postings.(p) 0 || scan c (p + 1) stop)
    in
    let rec shortest j best k len =
      if j = arity then
        let c = a.columns.(best) in
        scan c c.starts.(k) c.starts.(k + 1)
      else
        let c = a.columns.(j) in
        match slot c q.missing.(j) with
        | -1 -> false
        | s ->
          let l = c.starts.(s + 1) - c.starts.(s) in
          if l < len then shortest (j + 1) j s l
          else shortest (j + 1) best k len
    in
    Array.length q.missing = arity
    && if arity = 0 then a.count > 0 else shortest 0 0 0 max_int

  (* [a] must encode [wn]'s answers over [handle]. *)
  let check_answers fn a handle wn =
    let same_handle =
      match (a.handle, handle) with
      | None, None -> true
      | Some h, Some h' -> h == h'
      | _ -> false
    in
    if not same_handle then
      invalid_arg (fn ^ ": answers encoded over another handle");
    if not (a.source == wn.Whynot.answers
            || Relation.equal a.source wn.Whynot.answers)
    then invalid_arg (fn ^ ": answers of another question")

  let ids ?answers ?handle wn =
    let ans =
      match answers with
      | None -> encode ?handle wn.Whynot.answers
      | Some a ->
        check_answers "Explanation.Frontier.ids" a handle wn;
        a
    in
    of_missing ans wn.Whynot.missing

  let check q ~handle wn =
    check_answers "Explanation.Frontier.check" q.ans (Some handle) wn;
    if not (q.tuple == wn.Whynot.missing
            || Tuple.equal q.tuple wn.Whynot.missing)
    then invalid_arg "Explanation.Frontier.check: ids of another missing tuple"

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
    ans : answers;
    covered : Bits.t array;
        (* [covered.(j)]: the answers whose component [j] is in
           [ext(concepts.(j))], as a set of answer indices. *)
    only : int list array;
        (* [only.(j)] = D_j: component [j] of every answer that position
           [j] alone excludes, each id once, ascending. *)
  }

  (* [covered_j] under the membership [m]: one call per distinct id of
     column [j], then that id's postings. *)
  let cover a j m =
    let c = a.columns.(j) and s = Bits.empty a.count in
    for k = 0 to Array.length c.ids - 1 do
      if m c.ids.(k) then
        for p = c.starts.(k) to c.starts.(k + 1) - 1 do
          Bits.add s c.postings.(p)
        done
    done;
    s

  let width = Sys.int_size
  let word (s : Bits.t) w = (s :> int array).(w)

  (* Word [w] of [⋀_{k≠j} covered_k], cut to the answers' bits: with no
     other position, every answer. [j = -1] gives [⋀_k covered_k]. *)
  let others f j w =
    let left = f.ans.count - (w * width) in
    let acc = ref (if left >= width then -1 else (1 lsl left) - 1) in
    for k = 0 to Array.length f.covered - 1 do
      if k <> j then acc := !acc land word f.covered.(k) w
    done;
    !acc

  (* Whether no answer is covered at every position, from word [w]. *)
  let rec none_covered_everywhere f w words =
    w = words
    || (others f (-1) w = 0 && none_covered_everywhere f (w + 1) words)

  (* D_j: the answers [¬covered_j ∧ ⋀_{k≠j} covered_k], a word at a
     time, marked by their slots in column [j], then read off as its
     ids. *)
  let alone f j words =
    let a = f.ans in
    let c = a.columns.(j) and arity = Array.length f.covered in
    let seen = Bits.empty (Array.length c.ids) in
    let see i = Bits.add seen a.slots.((i * arity) + j) in
    for w = 0 to words - 1 do
      Bits.iter_word see (w * width)
        (lnot (word f.covered.(j) w) land others f j w)
    done;
    if Bits.is_empty seen then []
    else begin
      let d = ref [] in
      for k = Array.length c.ids - 1 downto 0 do
        if Bits.mem seen k then d := c.ids.(k) :: !d
      done;
      !d
    end

  (* Recompute every D_j from the covered sets; false when some answer
     is covered at every position. *)
  let refill f =
    let words = (f.ans.count + width - 1) / width in
    none_covered_everywhere f 0 words
    && begin
      for j = 0 to Array.length f.only - 1 do
        f.only.(j) <- alone f j words
      done;
      true
    end

  let no_member (_ : int) = false
  let no_cover = Bits.empty 0

  let of_array (q : ids) member concepts =
    let arity = Array.length q.missing in
    if Array.length concepts <> arity then None
    else begin
      let members = Array.make arity no_member and holds = ref true in
      for j = 0 to arity - 1 do
        let m = member concepts.(j) in
        members.(j) <- m;
        if not (m q.missing.(j)) then holds := false
      done;
      if not !holds then None
      else begin
        let covered = Array.make arity no_cover in
        for j = 0 to arity - 1 do
          covered.(j) <- cover q.ans j members.(j)
        done;
        let f =
          {
            member;
            missing = q.missing;
            concepts;
            members;
            ans = q.ans;
            covered;
            only = Array.make arity [];
          }
        in
        if refill f then Some f else None
      end
    end

  let make q member e = of_array q member (Array.of_list e)

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
    f.covered.(j) <- cover f.ans j m;
    ignore (refill f)
end
