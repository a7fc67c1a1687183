open Whynot_relational

type literal =
  | Pos of Cq.atom
  | Neg of Cq.atom

type rule = {
  head : Cq.atom;
  body : literal list;
  comparisons : Cq.comparison list;
}

type t = {
  rules : rule list;
  strata : string list list;
}

let rule ?(comparisons = []) ~head body = { head; body; comparisons }

let atom_vars (a : Cq.atom) =
  List.filter_map
    (function Cq.Var v -> Some v | Cq.Const _ -> None)
    a.Cq.args

let positive_vars r =
  List.concat_map
    (function Pos a -> atom_vars a | Neg _ -> [])
    r.body

let rule_safe r =
  let pos = positive_vars r in
  List.for_all (fun v -> List.mem v pos) (atom_vars r.head)
  && List.for_all
       (function
         | Pos _ -> true
         | Neg a -> List.for_all (fun v -> List.mem v pos) (atom_vars a))
       r.body
  && List.for_all
       (fun (c : Cq.comparison) -> List.mem c.Cq.subject pos)
       r.comparisons

let idb_predicates_of rules =
  List.sort_uniq String.compare (List.map (fun r -> r.head.Cq.rel) rules)

(* Dependency edges between IDB predicates: (p, q, negated) when a rule for
   p uses q in its body. *)
let edges rules =
  let idb = idb_predicates_of rules in
  List.concat_map
    (fun r ->
       List.filter_map
         (fun lit ->
            let q, negated =
              match lit with
              | Pos a -> (a.Cq.rel, false)
              | Neg a -> (a.Cq.rel, true)
            in
            if List.mem q idb then Some (r.head.Cq.rel, q, negated) else None)
         r.body)
    rules

(* Stratification by iterated stratum assignment: stratum p >= stratum q for
   positive edges, stratum p >= stratum q + 1 for negative edges; failure
   (no fixpoint within |idb| rounds) means recursion through negation. *)
let stratify rules =
  let idb = idb_predicates_of rules in
  let es = edges rules in
  let n = List.length idb in
  let stratum = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace stratum p 0) idb;
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds <= n * n + 1 do
    changed := false;
    incr rounds;
    List.iter
      (fun (p, q, negated) ->
         let sp = Hashtbl.find stratum p and sq = Hashtbl.find stratum q in
         let need = if negated then sq + 1 else sq in
         if sp < need then begin
           Hashtbl.replace stratum p need;
           changed := true
         end)
      es
  done;
  if !changed then Error "recursion through negation (not stratifiable)"
  else begin
    let max_stratum =
      Hashtbl.fold (fun _ s acc -> max s acc) stratum 0
    in
    Ok
      (List.filter_map
         (fun k ->
            match
              List.filter (fun p -> Hashtbl.find stratum p = k) idb
            with
            | [] -> None
            | ps -> Some ps)
         (List.init (max_stratum + 1) (fun k -> k)))
  end

let make rules =
  match List.find_opt (fun r -> not (rule_safe r)) rules with
  | Some r ->
    Error
      (Format.asprintf "unsafe rule with head %s(...)" r.head.Cq.rel)
  | None ->
    (match stratify rules with
     | Error msg -> Error msg
     | Ok strata -> Ok { rules; strata })

let make_exn rules =
  match make rules with
  | Ok p -> p
  | Error msg -> invalid_arg ("Program.make_exn: " ^ msg)

let rules t = t.rules

let idb_predicates t = idb_predicates_of t.rules

let edb_predicates t =
  let idb = idb_predicates t in
  List.sort_uniq String.compare
    (List.concat_map
       (fun r ->
          List.filter_map
            (fun lit ->
               let q = match lit with Pos a | Neg a -> a.Cq.rel in
               if List.mem q idb then None else Some q)
            r.body)
       t.rules)

let strata t = t.strata

let is_recursive t =
  (* p is recursive iff p reaches p in the positive+negative edge graph. *)
  let es = List.map (fun (p, q, _) -> (p, q)) (edges t.rules) in
  let rec reaches seen p target =
    List.exists
      (fun (p', q) ->
         String.equal p p'
         && (String.equal q target
             || ((not (List.mem q seen)) && reaches (q :: seen) q target)))
      es
  in
  List.exists (fun p -> reaches [] p p) (idb_predicates t)

(* --- evaluation --- *)

(* Evaluate one rule body against the handle's instance, optionally forcing
   one positive literal (by index) to range over the delta relation stored
   under a reserved name. Returns the derived head tuples. *)
let delta_prefix = "\000delta:"

let eval_rule idx r ~delta_index =
  let inst = Eval_index.instance idx in
  let atoms =
    List.mapi (fun i lit -> (i, lit)) r.body
    |> List.filter_map
         (fun (i, lit) ->
            match lit with
            | Pos a ->
              if delta_index = Some i then
                Some { a with Cq.rel = delta_prefix ^ a.Cq.rel }
              else Some a
            | Neg _ -> None)
  in
  let q = Cq.make ~head:r.head.Cq.args ~atoms ~comparisons:r.comparisons () in
  let assignments = Cq.Plan.eval_assignments idx q in
  let value_of binding = function
    | Cq.Const c -> Some c
    | Cq.Var v -> List.assoc_opt v binding
  in
  List.filter_map
    (fun binding ->
       (* Negated literals: no matching fact under this binding. *)
       let negs_ok =
         List.for_all
           (function
             | Pos _ -> true
             | Neg a ->
               (match
                  List.map (value_of binding) a.Cq.args
                with
                | args when List.for_all Option.is_some args ->
                  not
                    (Instance.mem_fact inst a.Cq.rel
                       (Tuple.of_list (List.map Option.get args)))
                | _ -> false))
           r.body
       in
       if not negs_ok then None
       else
         match List.map (value_of binding) r.head.Cq.args with
         | args when List.for_all Option.is_some args ->
           Some (Tuple.of_list (List.map Option.get args))
         | _ -> None)
    assignments

let head_arity r = List.length r.head.Cq.args

(* Indices of positive body literals whose predicate is in [preds]. *)
let recursive_literal_indices r preds =
  List.mapi (fun i lit -> (i, lit)) r.body
  |> List.filter_map
       (fun (i, lit) ->
          match lit with
          | Pos a when List.mem a.Cq.rel preds -> Some i
          | Pos _ | Neg _ -> None)

let eval t inst =
  (* Recompute IDB from scratch. *)
  let inst = Instance.restrict (edb_predicates t) inst in
  List.fold_left
    (fun inst stratum ->
       let stratum_rules =
         List.filter (fun r -> List.mem r.head.Cq.rel stratum) t.rules
       in
       (* Initialise the stratum's predicates as empty. *)
       let inst =
         List.fold_left
           (fun inst p ->
              match
                List.find_opt (fun r -> String.equal r.head.Cq.rel p)
                  stratum_rules
              with
              | Some r ->
                Instance.add_relation p (Relation.empty ~arity:(head_arity r)) inst
              | None -> inst)
           inst stratum
       in
       (* First round: every rule, no delta. The rules of one round share
          one index handle over the instance they read. *)
       let derive_all inst ~use_delta =
         let idx = Eval_index.of_instance inst in
         List.fold_left
           (fun acc r ->
              let derived =
                if not use_delta then
                  eval_rule idx r ~delta_index:None
                else
                  (* Semi-naive: one variant per recursive literal, with
                     that literal ranging over the delta. *)
                  List.concat_map
                    (fun i -> eval_rule idx r ~delta_index:(Some i))
                    (recursive_literal_indices r stratum)
              in
              List.fold_left
                (fun acc tuple -> (r.head.Cq.rel, tuple) :: acc)
                acc derived)
           [] stratum_rules
       in
       (* The derived facts not in [inst] yet, one relation per
          predicate: [inst] with them added, and the delta. *)
       let add_new inst facts =
         let by_pred = Hashtbl.create 8 in
         List.iter
           (fun (p, tuple) ->
              Hashtbl.replace by_pred p
                (tuple :: Option.value ~default:[] (Hashtbl.find_opt by_pred p)))
           facts;
         Hashtbl.fold
           (fun p tuples (inst, delta) ->
              let arity = Tuple.arity (List.hd tuples) in
              let old = Instance.relation_or_empty inst ~arity p in
              let fresh = Relation.diff (Relation.of_list ~arity tuples) old in
              if Relation.is_empty fresh then (inst, delta)
              else
                ( Instance.add_relation p (Relation.union old fresh) inst,
                  (p, fresh) :: delta ))
           by_pred (inst, [])
       in
       let inst, delta0 = add_new inst (derive_all inst ~use_delta:false) in
       let rec iterate inst delta =
         if delta = [] then inst
         else
           (* Build the instance extended with delta relations. *)
           let delta_map =
             List.fold_left
               (fun acc (p, fresh) ->
                  Instance.add_relation (delta_prefix ^ p) fresh acc)
               inst delta
           in
           let inst', delta' =
             add_new inst (derive_all delta_map ~use_delta:true)
           in
           iterate inst' delta'
       in
       iterate inst delta0)
    inst t.strata

(* --- views as non-recursive Datalog --- *)

(* Constants in rule heads are supported directly by the evaluator, so each
   view disjunct maps to one rule verbatim. *)
let of_views views =
  let rules =
    List.concat_map
      (fun (d : View.def) ->
         List.map
           (fun (q : Cq.t) ->
              rule
                ~head:{ Cq.rel = d.View.name; args = q.Cq.head }
                ~comparisons:q.Cq.comparisons
                (List.map (fun a -> Pos a) q.Cq.atoms))
           d.View.body.Ucq.disjuncts)
      (View.defs views)
  in
  make_exn rules
