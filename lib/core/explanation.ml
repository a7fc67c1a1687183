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
  type 'c t = {
    ontology : 'c Ontology.t;
    missing : Value.t array;
    concepts : 'c array;
    members : (Value.t -> bool) array;
        (* [members.(j)] = [ontology.mem concepts.(j)], applied once. *)
    answers : Value.t array array;
    excluded : bool array array;
        (* [excluded.(i).(j)]: component [j] of answer [i] lies outside
           [ext(concepts.(j))]. *)
    only : Value_set.t array;
        (* [only.(j)] = D_j: component [j] of every answer that position
           [j] alone excludes. *)
  }

  (* The one position whose flag is set from [j] on, given [found] before
     it: -1 when there is none, -2 when there are several. *)
  let rec sole flags j found =
    if j = Array.length flags then found
    else if not flags.(j) then sole flags (j + 1) found
    else if found >= 0 then -2
    else sole flags (j + 1) j

  (* Recompute every D_j from the flags; false when some answer is
     excluded at no position. *)
  let refill f =
    Array.fill f.only 0 (Array.length f.only) Value_set.empty;
    Array.for_all2
      (fun values flags ->
         match sole flags 0 (-1) with
         | -1 -> false
         | -2 -> true
         | j ->
           f.only.(j) <- Value_set.add values.(j) f.only.(j);
           true)
      f.answers f.excluded

  let make o wn e =
    let missing = Array.of_list (Whynot.missing_values wn) in
    if List.length e <> Array.length missing then None
    else
      let concepts = Array.of_list e in
      let members = Array.map o.Ontology.mem concepts in
      if not (Array.for_all2 (fun m a -> m a) members missing) then None
      else
        let answers =
          Array.of_list
            (List.map
               (fun t -> Array.of_list (Tuple.to_list t))
               (Relation.to_list wn.Whynot.answers))
        in
        let f =
          {
            ontology = o;
            missing;
            concepts;
            members;
            answers;
            excluded =
              Array.map
                (Array.mapi (fun j v -> not (members.(j) v)))
                answers;
            only = Array.make (Array.length missing) Value_set.empty;
          }
        in
        if refill f then Some f else None

  let concepts f = Array.to_list f.concepts
  let concept f j = f.concepts.(j)
  let mem f j v = f.members.(j) v
  let only f j = f.only.(j)

  let accepts f j c =
    let m = f.ontology.Ontology.mem c in
    m f.missing.(j) && not (Value_set.exists m f.only.(j))

  let replace f j c =
    let m = f.ontology.Ontology.mem c in
    let column = Array.map (fun values -> not (m values.(j))) f.answers in
    (* An answer loses its last excluding position iff its component [j]
       is in D_j and now in [ext(c)]. *)
    if
      not
        (Array.for_all2
           (fun x values -> x || not (Value_set.mem values.(j) f.only.(j)))
           column f.answers)
    then invalid_arg "Explanation.Frontier.replace: not an explanation";
    f.concepts.(j) <- c;
    f.members.(j) <- m;
    Array.iteri (fun i x -> f.excluded.(i).(j) <- x) column;
    ignore (refill f)
end
