open Whynot_relational

let src = Logs.Src.create "whynot.subsume" ~doc:"schema-level concept subsumption"

module Log = (val Logs.src_log src : Logs.LOG)
module Obs = Whynot_obs.Obs

let c_canonical =
  Obs.counter "subsume.schema.canonical_insts"
    ~doc:"canonical instantiations enumerated"

let c_chase_steps =
  Obs.counter "subsume.schema.chase_steps" ~doc:"IND chase rounds applied"

let c_countermodels =
  Obs.counter "subsume.schema.countermodel_attempts"
    ~doc:"bounded counter-model searches"

let c_decides =
  Obs.counter "subsume.schema.decides" ~doc:"uncached decide invocations"

type verdict =
  | Subsumed
  | Not_subsumed
  | Unknown

let pp_verdict ppf v =
  Format.pp_print_string ppf
    (match v with
     | Subsumed -> "subsumed"
     | Not_subsumed -> "not subsumed"
     | Unknown -> "unknown")

type constraint_class =
  | No_constraints
  | Views_only
  | Fds_only
  | Inds_only
  | Mixed

let classify schema =
  match Schema.fds schema, Schema.inds schema, Schema.has_views schema with
  | [], [], false -> No_constraints
  | [], [], true -> Views_only
  | _ :: _, [], false -> Fds_only
  | [], _ :: _, false -> Inds_only
  | _ -> Mixed

(* --- unsatisfiability of a concept over every instance --- *)

let distinct_nominals c =
  Value_set.cardinal
    (List.fold_left
       (fun acc conj ->
          match conj with
          | Ls.Nominal v -> Value_set.add v acc
          | Ls.Proj _ -> acc)
       Value_set.empty (Ls.conjuncts c))

let concept_unsat ~translate c =
  distinct_nominals c >= 2
  || (not (To_query.is_pure c))
     && List.for_all Cq.is_unsatisfiable_syntactic (translate c).Ucq.disjuncts

(* --- sound rule (iii): IND positional reachability --- *)

let ind_reach_rule schema c1 rhs_rel rhs_attr =
  let inds = Schema.inds schema in
  List.exists
    (function
      | Ls.Nominal _ -> false
      | Ls.Proj { rel; attr; _ } ->
        List.mem (rhs_rel, rhs_attr) (Ind.unary_reachable inds (rel, attr)))
    (Ls.conjuncts c1)

(* --- complete checks based on canonical instantiations --- *)

(* All canonical instantiations of the (unfolded) concept query of [c1],
   optionally filtered by the schema's FDs, paired with the head constant.

   When FD-filtering, the instantiations must include within-region variable
   merges ([~merges:true]): the FD-satisfying witnesses of a query such as
   [R(x,y1), R(x,y2), y2 > 2] under the FD R:1→2 are exactly the merges
   y1 = y2, and the distinct-representatives enumeration alone would be
   filtered down to nothing, leaving the containment check vacuously true. *)
let canonical_candidates ?(fd_filter = false) ~translate schema c1
    ~extra_constants =
  let u1 = translate c1 in
  List.concat_map
    (fun d ->
       if Cq.is_unsatisfiable_syntactic d then []
       else
         let instantiations =
           Containment.canonical_instantiations ~merges:fd_filter d
             ~extra_constants
         in
         Obs.add c_canonical (List.length instantiations);
         List.filter_map
           (fun (inst, head) ->
              let keep =
                (not fd_filter)
                || List.for_all
                     (fun (fd : Fd.t) ->
                        match Instance.relation inst fd.Fd.rel with
                        | None -> true
                        | Some r -> Fd.satisfied_in fd r)
                     (Schema.fds schema)
              in
              if keep then Some (inst, Tuple.get head 1) else None)
           instantiations)
    u1.Ucq.disjuncts

(* Complete subsumption check for the classes without INDs: every canonical
   (FD-satisfying, when FDs are present) instantiation's head must be an
   answer of the right-hand side. *)
let canonical_containment ~fd_filter ~translate schema c1 c2_conjunct_ucq
    rhs_constants =
  List.for_all
    (fun (inst, head) ->
       Relation.mem (Tuple.of_list [ head ]) (Ucq.eval c2_conjunct_ucq inst))
    (canonical_candidates ~fd_filter ~translate schema c1
       ~extra_constants:rhs_constants)

(* [c1]'s extension is within [{v}] in every instance. *)
let always_within_singleton ~fd_filter ~translate schema c1 v =
  List.for_all
    (fun (_, head) -> Value.equal head v)
    (canonical_candidates ~fd_filter ~translate schema c1
       ~extra_constants:(Value_set.singleton v))

(* --- bounded counter-model search --- *)

(* Atomic so concurrent chases in different domains never hand out the
   same fresh null. *)
let fresh_counter = Atomic.make 0

let fresh_value () =
  Value.Int (-1000000000 - Atomic.fetch_and_add fresh_counter 1 - 1)

(* One chase round: repair every IND violation whose right-hand relation is
   a data relation by inserting a tuple with fresh values at unmapped
   positions. Returns [None] if a violation cannot be repaired. *)
let chase_round schema inst =
  let completed = Schema.complete schema inst in
  let data = Schema.data_relation_names schema in
  let repair acc (ind : Ind.t) =
    match acc with
    | None -> None
    | Some (inst, changed) ->
      let arr name =
        Instance.relation_or_empty completed
          ~arity:(Option.value ~default:0 (Schema.arity schema name))
          name
      in
      let missing =
        Ind.violations ind ~lhs:(arr ind.Ind.lhs_rel) ~rhs:(arr ind.Ind.rhs_rel)
      in
      if missing = [] then Some (inst, changed)
      else if not (List.mem ind.Ind.rhs_rel data) then None
      else begin
        Obs.incr c_chase_steps;
        let arity = Option.get (Schema.arity schema ind.Ind.rhs_rel) in
        let rows =
          List.map
            (fun p ->
               Tuple.of_list
                 (List.init arity (fun j ->
                      let j = j + 1 in
                      match
                        List.find_index (Int.equal j) ind.Ind.rhs_attrs
                      with
                      | Some k -> Tuple.get p (k + 1)
                      | None -> fresh_value ())))
            missing
        in
        let inst =
          Instance.add_relation ind.Ind.rhs_rel
            (Relation.union
               (Instance.relation_or_empty inst ~arity ind.Ind.rhs_rel)
               (Relation.of_list ~arity rows))
            inst
        in
        Some (inst, true)
      end
  in
  List.fold_left repair (Some (inst, false)) (Schema.inds schema)

let rec chase schema inst depth =
  if depth <= 0 then None
  else
    match chase_round schema inst with
    | None -> None
    | Some (inst, false) -> Some inst
    | Some (inst, true) -> chase schema inst (depth - 1)

(* The rounds of IND repair a counter-model gets. *)
let chase_depth = 4

let chase_to_legal_instance schema inst =
  (* Keep only the data relations; views get recomputed. *)
  let data = Instance.restrict (Schema.data_relation_names schema) inst in
  match chase schema data chase_depth with
  | None -> None
  | Some data ->
    let full = Schema.complete schema data in
    (match Schema.satisfies schema full with
     | Error _ -> None
     | Ok () -> Some full)

let refute_with_counter_model ~translate schema c1 c2 =
  Obs.incr c_countermodels;
  let extra_constants = Ls.constants c2 in
  let candidates =
    canonical_candidates ~fd_filter:false ~translate schema c1 ~extra_constants
  in
  Log.debug (fun m ->
      m "counter-model search: %d canonical candidate(s) for %s vs %s"
        (List.length candidates) (Ls.to_string c1) (Ls.to_string c2));
  List.exists
    (fun (inst0, head) ->
       match chase_to_legal_instance schema inst0 with
       | None -> false
       | Some full ->
         let idx = Eval_index.of_instance full in
         let refuted =
           Semantics.indexed_mem head c1 idx
           && not (Semantics.indexed_mem head c2 idx)
         in
         if refuted then
           Log.debug (fun m ->
               m "refuted by a legal instance with %d fact(s)"
                 (Instance.fact_count full));
         refuted)
    candidates

(* --- per-conjunct decision --- *)

let conjunct_concept conj = Ls.of_conjuncts [ conj ]

let decide_conjunct ~cls ~translate schema c1 conj =
  let sound_containment () =
    match conj with
    | Ls.Nominal v ->
      List.mem (Ls.Nominal v) (Ls.conjuncts c1)
      || (not (To_query.is_pure c1))
         && always_within_singleton ~fd_filter:(cls = Fds_only) ~translate
              schema c1 v
    | Ls.Proj _ ->
      if To_query.is_pure c1 then false
      else
        let rhs = conjunct_concept conj in
        let rhs_ucq = translate rhs in
        (match cls with
         | Fds_only ->
           canonical_containment ~fd_filter:true ~translate schema c1 rhs_ucq
             (Ucq.constants rhs_ucq)
         | No_constraints | Views_only | Inds_only | Mixed ->
           Containment.ucq_in_ucq (translate c1) rhs_ucq)
  in
  let ind_rule () =
    match conj with
    | Ls.Proj { rel; attr; sels = [] } -> ind_reach_rule schema c1 rel attr
    | Ls.Proj _ | Ls.Nominal _ -> false
  in
  sound_containment () || (Schema.inds schema <> [] && ind_rule ())

let selection_free_pair c1 c2 =
  Ls.is_selection_free c1 && Ls.is_selection_free c2

let decide ?translate schema c1 c2 =
  Obs.incr c_decides;
  let translate =
    match translate with Some f -> f | None -> To_query.ucq schema
  in
  if concept_unsat ~translate c1 then Subsumed
  else
    let cls = classify schema in
    let all_covered =
      List.for_all
        (fun conj -> decide_conjunct ~cls ~translate schema c1 conj)
        (Ls.conjuncts c2)
    in
    if all_covered then Subsumed
    else
      match cls with
      | No_constraints | Views_only | Fds_only -> Not_subsumed
      | Inds_only when selection_free_pair c1 c2 ->
        (* Reachability + trivial containment is complete here. *)
        Not_subsumed
      | Inds_only | Mixed ->
        if refute_with_counter_model ~translate schema c1 c2 then
          Not_subsumed
        else Unknown

let subsumes schema c1 c2 = decide schema c1 c2 = Subsumed
let refutes schema c1 c2 = decide schema c1 c2 = Not_subsumed
