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
    answers : Value.t array array;
    excluded : bool array array;
        (* [excluded.(i).(j)]: component [j] of answer [i] lies outside
           [ext(concepts.(j))]. *)
    only : Value_set.t array;
        (* [only.(j)] = D_j: component [j] of every answer that position
           [j] alone excludes. *)
  }

  (* Recompute every D_j from the flags; false when some answer is
     excluded at no position. *)
  let refill f =
    Array.fill f.only 0 (Array.length f.only) Value_set.empty;
    Array.for_all2
      (fun values flags ->
         match
           List.filter (Array.get flags) (List.init (Array.length flags) Fun.id)
         with
         | [] -> false
         | [ j ] ->
           f.only.(j) <- Value_set.add values.(j) f.only.(j);
           true
         | _ -> true)
      f.answers f.excluded

  let make o wn e =
    let arity = Whynot.arity wn in
    if List.length e <> arity || not (covers_missing o wn e) then None
    else
      let concepts = Array.of_list e in
      let answers =
        Array.of_list
          (List.map
             (fun t -> Array.of_list (Tuple.to_list t))
             (Relation.to_list wn.Whynot.answers))
      in
      let f =
        {
          ontology = o;
          missing = Array.of_list (Whynot.missing_values wn);
          concepts;
          answers;
          excluded =
            Array.map
              (Array.mapi (fun j v -> not (o.Ontology.mem concepts.(j) v)))
              answers;
          only = Array.make arity Value_set.empty;
        }
      in
      if refill f then Some f else None

  let concepts f = Array.to_list f.concepts
  let concept f j = f.concepts.(j)
  let only f j = f.only.(j)

  let accepts f j c =
    f.ontology.Ontology.mem c f.missing.(j)
    && not (Value_set.exists (fun v -> f.ontology.Ontology.mem c v) f.only.(j))

  let replace f j c =
    let column =
      Array.map (fun values -> not (f.ontology.Ontology.mem c values.(j))) f.answers
    in
    (* An answer loses its last excluding position iff its component [j]
       is in D_j and now in [ext(c)]. *)
    if
      not
        (Array.for_all2
           (fun x values -> x || not (Value_set.mem values.(j) f.only.(j)))
           column f.answers)
    then invalid_arg "Explanation.Frontier.replace: not an explanation";
    f.concepts.(j) <- c;
    Array.iteri (fun i x -> f.excluded.(i).(j) <- x) column;
    ignore (refill f)
end
