open Whynot_relational

type 'c t = {
  name : string;
  concepts : 'c list option;
  subsumes : 'c -> 'c -> bool;
  mem : 'c -> Value.t -> bool;
  equal : 'c -> 'c -> bool;
  pp : Format.formatter -> 'c -> unit;
}

let consistency_violations o probes =
  match o.concepts with
  | None ->
    Error
      (`Infinite_ontology
         ("Ontology.consistency_violations: " ^ o.name ^ " is infinite"))
  | Some cs ->
    Ok
      (List.concat_map
         (fun c1 ->
            List.filter_map
              (fun c2 ->
                 if
                   o.subsumes c1 c2
                   &&
                   let m1 = o.mem c1 and m2 = o.mem c2 in
                   List.exists (fun v -> m1 v && not (m2 v)) probes
                 then Some (c1, c2)
                 else None)
              cs)
         cs)

(* --- hand ontologies (Figure 3) --- *)

let of_extensions ~name ~subsumptions ~extensions =
  let concepts = List.map fst extensions in
  (* Reflexive-transitive closure of the direct edges. *)
  let subsumes c1 c2 =
    let rec reach seen frontier =
      match frontier with
      | [] -> false
      | c :: rest ->
        if String.equal c c2 then true
        else
          let nexts =
            List.filter_map
              (fun (x, y) ->
                 if String.equal x c && not (List.mem y seen) then Some y
                 else None)
              subsumptions
          in
          reach (nexts @ seen) (nexts @ rest)
    in
    String.equal c1 c2 || reach [ c1 ] [ c1 ]
  in
  let mem c =
    match List.assoc_opt c extensions with
    | Some ext -> fun v -> Value_set.mem v ext
    | None -> fun _ -> false
  in
  {
    name;
    concepts = Some concepts;
    subsumes;
    mem;
    equal = String.equal;
    pp = (fun ppf c -> Format.pp_print_string ppf c);
  }

(* --- OBDA-induced ontologies (Definition 4.4) --- *)

let of_obda induced =
  {
    name = "O_B";
    concepts = Some (Whynot_obda.Induced.concepts induced);
    subsumes = Whynot_obda.Induced.subsumes induced;
    mem =
      (fun c ->
         let e = Whynot_obda.Induced.extension induced c in
         fun v -> Value_set.mem v e);
    equal = Whynot_dllite.Dl.equal_basic;
    pp = Whynot_dllite.Dl.pp_basic;
  }

(* --- ontologies derived from an instance or a schema (Definition 4.8) --- *)

(* [handle] lets a caller that owns a memo handle (an engine) keep its
   caches across ontology values; without it each ontology value creates
   and owns a fresh handle. *)

let inst_handle ?handle inst =
  match handle with
  | Some h -> h
  | None -> Whynot_concept.Subsume_memo.inst inst

(* [mem c] fetches [ext(c)] once, with the handle's deadline check; the
   predicate it returns is a plain set lookup. *)
let staged_mem h c =
  let e = Whynot_concept.Subsume_memo.extension h c in
  fun v -> Whynot_concept.Semantics.ext_mem v e

let of_instance ?handle inst =
  let h = inst_handle ?handle inst in
  {
    name = "O_I";
    concepts = None;
    subsumes = Whynot_concept.Subsume_memo.subsumes h;
    mem = staged_mem h;
    equal = Whynot_concept.Ls.equal;
    pp = (fun ppf c -> Whynot_concept.Ls.pp () ppf c);
  }

let of_schema ?schema_handle ?handle schema inst =
  (* Schema-level subsumption is costly (containment, counter-model
     search); the algorithms re-ask the same pairs, so all verdicts go
     through the memo layer, keyed on the concept pairs. *)
  let sh =
    match schema_handle with
    | Some h -> h
    | None -> Whynot_concept.Subsume_memo.schema schema
  in
  let ih = inst_handle ?handle inst in
  {
    name = "O_S";
    concepts = None;
    subsumes = Whynot_concept.Subsume_memo.schema_subsumes sh;
    mem = staged_mem ih;
    equal = Whynot_concept.Ls.equal;
    pp = (fun ppf c -> Whynot_concept.Ls.pp ~schema () ppf c);
  }

(* --- O_I[K] by extension classes (Prop 4.1: ⊑_I is inclusion) ---

   A member with k+1 conjuncts is one with k conjuncts met with a
   projection (it has at most one nominal), so growing each new class's
   representative by every projection reaches every class at its least
   conjunct count; on one level the least [Ls.size] wins. *)

module Ext_map = Map.Make (Value_set)

let by_size (c, _) (c', _) =
  let open Whynot_concept in
  match Int.compare (Ls.size c) (Ls.size c') with
  | 0 -> Ls.compare c c'
  | n -> n

let instance_classes h pool =
  let open Whynot_concept in
  let index = Subsume_memo.index h in
  let columns =
    Array.to_list
      (Array.map
         (fun (rel, attr) ->
            (Ls.proj ~rel ~attr (), Eval_index.column_values index ~rel ~attr))
         (Subsume_memo.positions h))
  in
  (* One level's new classes, keyed by extension. *)
  let add found level ((_, e) as m) =
    if Ext_map.mem e found then level
    else
      Ext_map.update e
        (function Some b when by_size m b >= 0 -> Some b | _ -> Some m)
        level
  in
  let rec close found level =
    if Ext_map.is_empty level then []
    else
      let fresh = List.sort by_size (List.map snd (Ext_map.bindings level)) in
      let found = Ext_map.union (fun _ c _ -> Some c) found level in
      let grow next (c, e) =
        Subsume_memo.check_deadline h;
        List.fold_left
          (fun next (p, col) ->
             add found next (Ls.meet c p, Value_set.inter e col))
          next columns
      in
      fresh @ close found (List.fold_left grow Ext_map.empty fresh)
  in
  let singles =
    List.map (fun v -> (Ls.nominal v, Value_set.singleton v))
      (Value_set.elements pool)
    @ columns
  in
  (Ls.top, Semantics.All)
  :: List.map (fun (c, e) -> (c, Semantics.Fin e))
       (close Ext_map.empty
          (List.fold_left (add Ext_map.empty) Ext_map.empty singles))

let of_instance_finite ?handle inst pool =
  let h = inst_handle ?handle inst in
  {
    (of_instance ~handle:h inst) with
    name = "O_I[K]";
    concepts = Some (List.map fst (instance_classes h pool));
  }

let minimal_concepts schema pool =
  Whynot_concept.Ls.top
  :: List.map Whynot_concept.Ls.nominal (Value_set.elements pool)
  @ List.map
      (fun (rel, attr) -> Whynot_concept.Ls.proj ~rel ~attr ())
      (Schema.positions schema)

let of_schema_finite ?(minimal_only = false) ?schema_handle ?handle schema inst
    pool =
  let h = inst_handle ?handle inst in
  let concepts =
    if minimal_only then minimal_concepts schema pool
    else Whynot_concept.Count.enumerate_selection_free inst pool
  in
  {
    (of_schema ?schema_handle ~handle:h schema inst) with
    name = (if minimal_only then "O_S[K]-min" else "O_S[K]");
    concepts = Some concepts;
  }
