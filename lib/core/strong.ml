open Whynot_relational
open Whynot_concept

type verdict =
  | Strong
  | Not_strong
  | Unknown

let pp_verdict ppf v =
  Format.pp_print_string ppf
    (match v with
     | Strong -> "strong"
     | Not_strong -> "not strong"
     | Unknown -> "unknown")

(* The witness query: q's body conjoined, per head position, with the
   concept query of C_i whose distinguished variable is unified with q's
   i-th head term. The explanation is strong iff this query is
   unsatisfiable over the schema's legal instances. *)
let combined_query schema wn e =
  let q = wn.Whynot.query in
  let extra_atoms = ref [] in
  let extra_comparisons = ref [] in
  List.iteri
    (fun i c ->
       let target = List.nth q.Cq.head i in
       if To_query.is_pure c then
         (* Top contributes nothing; nominals constrain the head term. *)
         List.iter
           (function
             | Ls.Nominal v ->
               (match target with
                | Cq.Var x ->
                  extra_comparisons :=
                    { Cq.subject = x; op = Cmp_op.Eq; value = v }
                    :: !extra_comparisons
                | Cq.Const v' ->
                  if not (Value.equal v v') then
                    extra_comparisons :=
                      { Cq.subject = "__false__"; op = Cmp_op.Lt; value = Value.Int 0 }
                      :: { Cq.subject = "__false__"; op = Cmp_op.Gt; value = Value.Int 0 }
                      :: !extra_comparisons)
             | Ls.Proj _ -> ())
           (Ls.conjuncts c)
       else begin
         let cq = To_query.query schema c in
         let cq = Cq.rename_apart ~suffix:(Printf.sprintf "@s%d" i) cq in
         let hv = To_query.head_var ^ Printf.sprintf "@s%d" i in
         let cq = Cq.substitute [ (hv, target) ] cq in
         extra_atoms := cq.Cq.atoms @ !extra_atoms;
         extra_comparisons := cq.Cq.comparisons @ !extra_comparisons
       end)
    e;
  Cq.make ~head:q.Cq.head
    ~atoms:(q.Cq.atoms @ !extra_atoms)
    ~comparisons:(q.Cq.comparisons @ !extra_comparisons)
    ()

(* Does the completed legal instance actually witness non-strength: some
   q-answer all of whose components inhabit the corresponding concepts? *)
let witnesses schema inst wn e =
  ignore schema;
  let idx = Eval_index.of_instance inst in
  let answers = Cq.Plan.eval idx wn.Whynot.query in
  Relation.exists
    (fun t ->
       List.for_all2
         (fun c i -> Semantics.indexed_mem (Tuple.get t i) c idx)
         e
         (List.init (List.length e) (fun i -> i + 1)))
    answers

let decide_wrt_schema schema wn e =
  let q' = combined_query schema wn e in
  let disjuncts = View.unfold_cq (Schema.views schema) q' in
  let found_witness =
    List.exists
      (fun d ->
         if Cq.is_unsatisfiable_syntactic d then false
         else
           List.exists
             (fun (inst0, _head) ->
                match Subsume_schema.chase_to_legal_instance schema inst0 with
                | None -> false
                | Some full -> witnesses schema full wn e)
             (Containment.canonical_instantiations d
                ~extra_constants:Value_set.empty))
      disjuncts
  in
  if found_witness then Not_strong
  else
    match Subsume_schema.classify schema with
    | Subsume_schema.No_constraints | Subsume_schema.Views_only
    | Subsume_schema.Fds_only ->
      Strong
    | Subsume_schema.Inds_only | Subsume_schema.Mixed -> Unknown

let is_explanation_but_not_strong schema wn e =
  let o = Ontology.of_instance wn.Whynot.instance in
  Explanation.is_explanation o wn e
  && decide_wrt_schema schema wn e = Not_strong
