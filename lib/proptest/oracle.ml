open Whynot_relational
module Ls = Whynot_concept.Ls
module Semantics = Whynot_concept.Semantics
module Count = Whynot_concept.Count
module Dl = Whynot_dllite.Dl
module Tbox = Whynot_dllite.Tbox
module Interp = Whynot_dllite.Interp
module Ontology = Whynot_core.Ontology
module Whynot = Whynot_core.Whynot
module Explanation = Whynot_core.Explanation

(* ------------------------------------------------------------------ *)
(* Naive CQ evaluation (the pre-planner kernel, kept as oracle)        *)
(* ------------------------------------------------------------------ *)

(* This is, verbatim, the backtracking join that [Cq.eval] used before the
   indexed/planned kernel replaced it: fixed textual atom order,
   association-list bindings, one full relation scan per atom. The
   [eval/planned-equals-naive] property pins [Cq.eval]/[Cq.holds]/
   [Cq.eval_assignments] against these. *)

let check_comparisons (q : Cq.t) binding =
  List.for_all
    (fun (c : Cq.comparison) ->
       match List.assoc_opt c.subject binding with
       | Some v -> Cmp_op.eval c.op v c.value
       | None -> true (* not yet bound; rechecked at the end *))
    q.comparisons

let fully_checked (q : Cq.t) binding =
  List.for_all
    (fun (c : Cq.comparison) ->
       match List.assoc_opt c.subject binding with
       | Some v -> Cmp_op.eval c.op v c.value
       | None -> false)
    q.comparisons

let unify_atom binding (atom : Cq.atom) tuple =
  let rec loop binding args i =
    match args with
    | [] -> Some binding
    | arg :: rest ->
      let v = Tuple.get tuple i in
      (match arg with
       | Cq.Const c ->
         if Value.equal c v then loop binding rest (i + 1) else None
       | Cq.Var x ->
         (match List.assoc_opt x binding with
          | Some v' ->
            if Value.equal v v' then loop binding rest (i + 1) else None
          | None -> loop ((x, v) :: binding) rest (i + 1)))
  in
  loop binding atom.args 1

(* [on_binding] is called on every satisfying binding; raising from it
   aborts the search (how [naive_holds] short-circuits — satellite fix
   applied to the oracle too, as it changes no semantics). *)
let iter_satisfying_bindings (q : Cq.t) inst on_binding =
  let rec search binding = function
    | [] -> if fully_checked q binding then on_binding binding
    | (atom : Cq.atom) :: rest ->
      let r =
        Instance.relation_or_empty inst ~arity:(List.length atom.args) atom.rel
      in
      Relation.iter
        (fun tuple ->
           match unify_atom binding atom tuple with
           | Some binding' ->
             if check_comparisons q binding' then search binding' rest
           | None -> ())
        r
  in
  if q.comparisons = [] && q.atoms = [] then on_binding []
  else search [] q.atoms

let satisfying_bindings q inst =
  let results = ref [] in
  iter_satisfying_bindings q inst (fun b -> results := b :: !results);
  !results

let naive_eval (q : Cq.t) inst =
  let k = Cq.arity q in
  let project binding =
    let component = function
      | Cq.Const v -> Some v
      | Cq.Var x -> List.assoc_opt x binding
    in
    match List.map component q.head with
    | comps when List.for_all Option.is_some comps ->
      Some (Tuple.of_list (List.map Option.get comps))
    | _ -> None
  in
  List.fold_left
    (fun acc binding ->
       match project binding with
       | Some t -> Relation.add t acc
       | None -> acc)
    (Relation.empty ~arity:k)
    (satisfying_bindings q inst)

exception Naive_witness

let naive_holds (q : Cq.t) inst =
  (* [holds] is "is [eval] non-empty", so the projection matters: a head
     variable that no relational atom binds makes every binding project to
     nothing, and [holds] is false even when satisfying bindings exist.
     With that case excluded, every satisfying binding projects (at the end
     of the search all body variables are bound), so the first one
     witnesses [holds] — no need to materialise the answer relation. *)
  let body = Cq.body_vars q in
  let head_projects =
    List.for_all
      (function Cq.Const _ -> true | Cq.Var v -> List.mem v body)
      q.Cq.head
  in
  head_projects
  &&
  try
    iter_satisfying_bindings q inst (fun _ -> raise_notrace Naive_witness);
    false
  with Naive_witness -> true

let naive_eval_assignments (q : Cq.t) inst =
  let qvars = Cq.vars q in
  List.filter_map
    (fun binding ->
       let restricted =
         List.filter_map
           (fun v ->
              Option.map (fun value -> (v, value)) (List.assoc_opt v binding))
           qvars
       in
       if List.length restricted = List.length qvars then Some restricted
       else None)
    (satisfying_bindings q inst)
  |> List.sort_uniq Stdlib.compare

(* The pre-index [Semantics.conjunct_ext]: full-relation select + column
   scan. Differential oracle for the [Eval_index]-backed version. *)
let scan_conjunct_ext (c : Ls.conjunct) inst =
  match c with
  | Ls.Nominal v -> Semantics.Fin (Value_set.singleton v)
  | Ls.Proj { rel; attr; sels } ->
    (match Instance.relation inst rel with
     | None -> Semantics.Fin Value_set.empty
     | Some r ->
       let selected =
         Relation.select
           (List.map (fun (s : Ls.selection) -> (s.attr, s.op, s.value)) sels)
           r
       in
       Semantics.Fin (Relation.column attr selected))

let scan_extension c inst =
  List.fold_left
    (fun acc conj -> Semantics.ext_inter acc (scan_conjunct_ext conj inst))
    Semantics.All (Ls.conjuncts c)

(* ------------------------------------------------------------------ *)
(* Selection-free subsumption without constraints                      *)
(* ------------------------------------------------------------------ *)

let distinct_nominal_count c =
  Ls.conjuncts c
  |> List.filter_map (function Ls.Nominal v -> Some v | Ls.Proj _ -> None)
  |> List.sort_uniq Value.compare
  |> List.length

(* C1 is unsatisfiable iff it carries two distinct nominals (selection-free,
   no constraints: any single-nominal or nominal-free concept has a
   one-element model). Otherwise C1 ⊑ C2 iff every conjunct of C2 occurs
   literally in C1: for a missing conjunct D2 we can build a witness
   instance placing one value in exactly the columns C1 mentions (choosing
   C1's nominal for that value when present) while keeping it out of D2. *)
let selection_free_no_constraints_subsumes c1 c2 =
  if not (Ls.is_selection_free c1 && Ls.is_selection_free c2) then
    invalid_arg "Oracle: selection-free concepts expected";
  distinct_nominal_count c1 >= 2
  ||
  let cs1 = Ls.conjuncts c1 in
  List.for_all (fun d -> List.mem d cs1) (Ls.conjuncts c2)

(* ------------------------------------------------------------------ *)
(* CQ containment by homomorphism search                               *)
(* ------------------------------------------------------------------ *)

let hom_contained q1 q2 =
  if q1.Cq.comparisons <> [] || q2.Cq.comparisons <> [] then
    invalid_arg "Oracle.hom_contained: comparison-free queries expected";
  let fresh v = Value.Str ("?" ^ v) in
  let frozen, frozen_head = Cq.freeze ~fresh q1 in
  let bind subst x v =
    match List.assoc_opt x subst with
    | None -> Some ((x, v) :: subst)
    | Some v' -> if Value.equal v v' then Some subst else None
  in
  let match_args subst args values =
    List.fold_left2
      (fun acc arg v ->
         match acc with
         | None -> None
         | Some subst ->
           (match arg with
            | Cq.Const c -> if Value.equal c v then Some subst else None
            | Cq.Var x -> bind subst x v))
      (Some subst) args values
  in
  let rec go subst = function
    | [] ->
      (* All atoms embedded; the head image must be the frozen head. *)
      let image = function
        | Cq.Const c -> Some c
        | Cq.Var x -> List.assoc_opt x subst
      in
      let imgs = List.map image q2.Cq.head in
      List.for_all Option.is_some imgs
      && Tuple.equal
           (Tuple.of_list (List.map Option.get imgs))
           frozen_head
    | (atom : Cq.atom) :: rest ->
      let facts =
        match Instance.relation frozen atom.Cq.rel with
        | None -> []
        | Some r -> Relation.to_list r
      in
      List.exists
        (fun fact ->
           List.length atom.Cq.args = Tuple.arity fact
           &&
           match match_args subst atom.Cq.args (Tuple.to_list fact) with
           | None -> false
           | Some subst' -> go subst' rest)
        facts
  in
  go [] q2.Cq.atoms

(* ------------------------------------------------------------------ *)
(* DL-LiteR: positive chase into a finite model                        *)
(* ------------------------------------------------------------------ *)

let witness role =
  match role with
  | Dl.Named p -> Value.str ("_w+" ^ p)
  | Dl.Inv p -> Value.str ("_w-" ^ p)

(* Add an r-successor for [x]: x gets into ext(exists r). *)
let add_successor role x interp =
  match role with
  | Dl.Named p -> Interp.add_role_edge p x (witness role) interp
  | Dl.Inv p -> Interp.add_role_edge p (witness role) x interp

let add_role_pair role (x, y) interp =
  match role with
  | Dl.Named p -> Interp.add_role_edge p x y interp
  | Dl.Inv p -> Interp.add_role_edge p y x interp

let interp_size tbox interp =
  let concepts =
    List.fold_left
      (fun acc a ->
         acc + Value_set.cardinal (Interp.concept_ext interp (Dl.Atom a)))
      0 (Tbox.atomic_concepts tbox)
  in
  List.fold_left
    (fun acc p -> acc + List.length (Interp.role_ext interp (Dl.Named p)))
    concepts (Tbox.atomic_roles tbox)

let chase_step axioms interp =
  List.fold_left
    (fun interp axiom ->
       match axiom with
       | Tbox.Concept_incl (_, Dl.Not _) | Tbox.Role_incl (_, Dl.NotR _) ->
         interp
       | Tbox.Concept_incl (b, Dl.B rhs) ->
         let members = Interp.concept_ext interp b in
         Value_set.fold
           (fun x interp ->
              match rhs with
              | Dl.Atom a -> Interp.add_concept_member a x interp
              | Dl.Exists r ->
                if Value_set.mem x (Interp.concept_ext interp (Dl.Exists r))
                then interp
                else add_successor r x interp)
           members interp
       | Tbox.Role_incl (r1, Dl.R r2) ->
         List.fold_left
           (fun interp pair -> add_role_pair r2 pair interp)
           interp
           (Interp.role_ext interp r1))
    interp axioms

let positive_chase tbox interp =
  let axioms = Tbox.axioms tbox in
  let rec loop interp n =
    let interp' = chase_step axioms interp in
    if interp_size tbox interp' = n then interp'
    else loop interp' (interp_size tbox interp')
  in
  loop interp (interp_size tbox interp)

let interp_individuals interp =
  let from_concepts =
    List.fold_left
      (fun acc a ->
         Value_set.union acc (Interp.concept_ext interp (Dl.Atom a)))
      Value_set.empty (Interp.concept_names interp)
  in
  List.fold_left
    (fun acc p ->
       List.fold_left
         (fun acc (x, y) -> Value_set.add x (Value_set.add y acc))
         acc
         (Interp.role_ext interp (Dl.Named p)))
    from_concepts (Interp.role_names interp)

let chase_certain_extension spec inst b =
  let retrieved = Whynot_obda.Spec.retrieve spec inst in
  let named = interp_individuals retrieved in
  let chased = positive_chase (Whynot_obda.Spec.tbox spec) retrieved in
  let ext = Interp.concept_ext chased b in
  Value_set.filter (fun c -> Value_set.mem c ext) named

(* ------------------------------------------------------------------ *)
(* Irredundancy by exhaustive subset search                            *)
(* ------------------------------------------------------------------ *)

let minimal_equivalent_conjunct_count inst c =
  let cs = Array.of_list (Ls.conjuncts c) in
  let n = Array.length cs in
  if n > 12 then
    invalid_arg "Oracle.minimal_equivalent_conjunct_count: too many conjuncts";
  let full = Semantics.extension c inst in
  let best = ref n in
  for mask = 0 to (1 lsl n) - 1 do
    let size = ref 0 in
    let sub = ref [] in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then begin
        incr size;
        sub := cs.(i) :: !sub
      end
    done;
    if
      !size < !best
      && Semantics.ext_equal
           (Semantics.extension (Ls.of_conjuncts !sub) inst)
           full
    then best := !size
  done;
  !best

(* ------------------------------------------------------------------ *)
(* Upper-bound candidate spaces for the lub oracles                    *)
(* ------------------------------------------------------------------ *)

let contains_all inst x c =
  Value_set.for_all (fun v -> Semantics.mem v c inst) x

let selection_free_upper_bounds inst ~nominals x =
  Count.enumerate_selection_free inst nominals
  |> List.filter (contains_all inst x)

let single_condition_upper_bounds inst x =
  let adom = Value_set.elements (Instance.adom inst) in
  let candidates =
    List.concat_map
      (fun rel ->
         let r = Option.get (Instance.relation inst rel) in
         let k = Relation.arity r in
         let attrs = List.init k (fun i -> i + 1) in
         List.concat_map
           (fun attr ->
              Ls.proj ~rel ~attr ()
              :: List.concat_map
                   (fun sattr ->
                      List.concat_map
                        (fun op ->
                           List.map
                             (fun v ->
                                Ls.proj ~rel ~attr
                                  ~sels:[ { Ls.attr = sattr; op; value = v } ]
                                  ())
                             adom)
                        Cmp_op.all)
                   attrs)
           attrs)
      (Instance.relation_names inst)
  in
  List.filter (contains_all inst x) candidates

(* ------------------------------------------------------------------ *)
(* Algorithm 1, literally                                              *)
(* ------------------------------------------------------------------ *)

(* The syntactic O_I[K]: every selection-free concept over the
   instance's positions with at most one nominal from the pool,
   equivalent copies included. *)
let syntactic_instance_finite inst pool =
  {
    (Ontology.of_instance inst) with
    Ontology.name = "O_I[K] (syntactic)";
    concepts = Some (Count.enumerate_selection_free inst pool);
  }

(* Lines 1-2 of Algorithm 1 over the whole product, with no plan, no
   kill-sets and no cut: the tuples come out in product order (first
   position most significant), every one is tested by the definition, and
   the accumulator that pushes each explanation leaves them reversed. *)
let literal_explanations o wn =
  let concepts = Option.get o.Ontology.concepts in
  let per_position =
    List.map
      (fun a -> List.filter (fun c -> o.Ontology.mem c a) concepts)
      (Whynot.missing_values wn)
  in
  let product =
    List.fold_right
      (fun cands tails ->
         List.concat_map (fun c -> List.map (fun t -> c :: t) tails) cands)
      per_position [ [] ]
  in
  List.filter (Explanation.is_explanation o wn) product

let literal_all_mges o wn =
  let explanations = List.rev (literal_explanations o wn) in
  let maximal =
    List.filter
      (fun e ->
         not
           (List.exists
              (fun e' -> Explanation.strictly_less_general o e e')
              explanations))
      explanations
  in
  List.rev
    (List.fold_left
       (fun kept e ->
          if List.exists (Explanation.equivalent o e) kept then kept
          else e :: kept)
       [] maximal)

(* ------------------------------------------------------------------ *)
(* Selection-free Algorithm 2 over column-scan lubs                    *)
(* ------------------------------------------------------------------ *)

(* The lub of Lemma 5.1 read off the definition: the nominal of a
   singleton, meet every projection whose column (scanned from the
   relation) holds the whole set. This is how [Lub.lub] computed it
   before position masks. *)
let scan_lub inst x =
  if Value_set.is_empty x then invalid_arg "Oracle.scan_lub: empty set";
  let nominal =
    match Value_set.elements x with [ c ] -> [ Ls.Nominal c ] | _ -> []
  in
  let projections =
    List.concat_map
      (fun rel ->
         let r = Option.get (Instance.relation inst rel) in
         List.filter_map
           (fun attr ->
              if Value_set.subset x (Relation.column attr r) then
                Some (Ls.Proj { rel; attr; sels = [] })
              else None)
           (List.init (Relation.arity r) (fun i -> i + 1)))
      (Instance.relation_names inst)
  in
  Ls.of_conjuncts (nominal @ projections)

let scan_mem inst c v = Semantics.ext_mem v (scan_extension c inst)

let replace_nth e j c = List.mapi (fun i c' -> if i = j then c else c') e

(* Definition 3.2 over the concepts' scanned extensions, each scanned
   once per test: the missing tuple lies in their product and no answer
   does. *)
let scan_explains inst wn e =
  let exts = List.map (fun c -> scan_extension c inst) e in
  let inside values = List.for_all2 Semantics.ext_mem values exts in
  inside (Whynot.missing_values wn)
  && Relation.for_all
       (fun t -> not (inside (Tuple.to_list t)))
       wn.Whynot.answers

(* Algorithm 2 as it ran before position masks: a support set per
   position, grown by one active-domain constant per attempt, its lub
   recomputed from scratch, and the whole tuple re-tested by the
   definition. The frontier the engine uses answers the same test. *)
let lub_one_mge_with_trace ?(order = `Ascending) ?(shorten = true) wn =
  let inst = wn.Whynot.instance in
  let adom = Value_set.elements (Instance.adom inst) in
  let adom =
    match order with `Ascending -> adom | `Descending -> List.rev adom
  in
  let support =
    Array.of_list (List.map Value_set.singleton (Whynot.missing_values wn))
  in
  let concepts = Array.map (scan_lub inst) support in
  let explains j c =
    scan_explains inst wn (replace_nth (Array.to_list concepts) j c)
  in
  let trace = ref [] in
  Array.iteri
    (fun j _ ->
       List.iter
         (fun b ->
            if not (scan_mem inst concepts.(j) b) then begin
              let x = Value_set.add b support.(j) in
              let c = scan_lub inst x in
              let accepted = explains j c in
              if accepted then begin
                support.(j) <- x;
                concepts.(j) <- c
              end;
              trace := (j, b, accepted) :: !trace
            end)
         adom)
    concepts;
  Array.iteri
    (fun j _ -> if explains j Ls.top then concepts.(j) <- Ls.top)
    concepts;
  let h = Whynot_concept.Subsume_memo.inst inst in
  let finish =
    if shorten then Whynot_concept.Irredundant.minimise h else Fun.id
  in
  (List.map finish (Array.to_list concepts), List.rev !trace)

let lub_check_mge wn e =
  let inst = wn.Whynot.instance in
  scan_explains inst wn e
  &&
  let adom = Value_set.elements (Instance.adom inst) in
  let explains j c = scan_explains inst wn (replace_nth e j c) in
  not
    (List.exists
       (fun j ->
          match scan_extension (List.nth e j) inst with
          | Semantics.All -> false
          | Semantics.Fin ext ->
            List.exists
              (fun b ->
                 (not (Value_set.mem b ext))
                 && explains j (scan_lub inst (Value_set.add b ext)))
              adom
            || explains j Ls.top)
       (List.init (List.length e) Fun.id))

(* ------------------------------------------------------------------ *)
(* Why-explanations by whole-tuple re-tests                            *)
(* ------------------------------------------------------------------ *)

module Why = Whynot_core.Why

(* Every tuple of the product over the probe values (the instance's
   active domain, the answers' values and the witness) inside the
   extensions must be an answer. *)
let why_holds (t : Why.t) e =
  let probes =
    Value_set.elements
      (Value_set.union (Instance.adom t.instance)
         (Value_set.union (Relation.values t.answers)
            (Value_set.of_list (Tuple.to_list t.witness))))
  in
  let exts = List.map (fun c -> scan_extension c t.instance) e in
  let rec inside prefix = function
    | [] -> Relation.mem (Tuple.of_list (List.rev prefix)) t.answers
    | ext :: rest ->
      List.for_all
        (fun v -> (not (Semantics.ext_mem v ext)) || inside (v :: prefix) rest)
        probes
  in
  List.length e = Tuple.arity t.witness
  && List.for_all2 Semantics.ext_mem (Tuple.to_list t.witness) exts
  && inside [] exts

(* A fresh handle per call for [lub_sigma], which no oracle replaces. *)
let why_lub inst = function
  | Whynot_core.Incremental.Selection_free -> scan_lub inst
  | Whynot_core.Incremental.With_selections ->
    Whynot_concept.Lub.lub_sigma (Whynot_concept.Subsume_memo.inst inst)

let why_one_mge variant (t : Why.t) =
  let inst = t.instance in
  let support =
    Array.of_list (List.map Value_set.singleton (Tuple.to_list t.witness))
  in
  let lub = why_lub inst variant in
  let concepts = Array.map lub support in
  Array.iteri
    (fun j _ ->
       Value_set.iter
         (fun b ->
            if not (scan_mem inst concepts.(j) b) then begin
              let x = Value_set.add b support.(j) in
              let c = lub x in
              if why_holds t (replace_nth (Array.to_list concepts) j c)
              then begin
                support.(j) <- x;
                concepts.(j) <- c
              end
            end)
         (Instance.adom inst))
    concepts;
  let h = Whynot_concept.Subsume_memo.inst inst in
  List.map (Whynot_concept.Irredundant.minimise h) (Array.to_list concepts)

let why_check_mge variant (t : Why.t) e =
  let inst = t.instance in
  let lub = why_lub inst variant in
  why_holds t e
  && not
       (List.exists
          (fun j ->
             match scan_extension (List.nth e j) inst with
             | Semantics.All -> false
             | Semantics.Fin ext ->
               Value_set.exists
                 (fun b ->
                    (not (Value_set.mem b ext))
                    && why_holds t
                         (replace_nth e j
                            (lub (Value_set.add b ext))))
                 (Instance.adom inst))
          (List.init (List.length e) Fun.id))
