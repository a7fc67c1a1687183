open Whynot_relational

(* Bound before [Whynot] names the core question module below. *)
module Wire_json = Whynot.Json
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
(* Value rendering through Format                                      *)
(* ------------------------------------------------------------------ *)

(* [Value.pp] and [Value.to_string] as they were before [to_string] built
   its text directly; the [value/to-string-equals-format] property pins
   the two renderings to each other. *)
let pp_value ppf = function
  | Value.Int n -> Format.pp_print_int ppf n
  | Value.Real x -> Format.fprintf ppf "%g" x
  | Value.Str s -> Format.fprintf ppf "%S" s

let format_value v = Format.asprintf "%a" pp_value v

(* ------------------------------------------------------------------ *)
(* The wire encoder as it was, on libc formatting                      *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | '\t' -> Buffer.add_string buf "\\t"
       | '\r' -> Buffer.add_string buf "\\r"
       | c when Char.code c < 0x20 ->
         Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec json_write buf = function
  | Wire_json.Null -> Buffer.add_string buf "null"
  | Wire_json.Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Wire_json.Int n -> Buffer.add_string buf (string_of_int n)
  | Wire_json.Float x ->
    if Float.is_integer x && Float.abs x < 1e15 then
      Buffer.add_string buf (Printf.sprintf "%.1f" x)
    else Buffer.add_string buf (Printf.sprintf "%.17g" x)
  | Wire_json.String s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (json_escape s);
    Buffer.add_char buf '"'
  | Wire_json.List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
         if i > 0 then Buffer.add_char buf ',';
         json_write buf x)
      xs;
    Buffer.add_char buf ']'
  | Wire_json.Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
         if i > 0 then Buffer.add_char buf ',';
         json_write buf (Wire_json.String k);
         Buffer.add_char buf ':';
         json_write buf v)
      fields;
    Buffer.add_char buf '}'

let json_to_string j =
  let buf = Buffer.create 256 in
  json_write buf j;
  Buffer.contents buf

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

let lub_check_mge ?(lub = scan_lub) wn e =
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
                 && explains j (lub inst (Value_set.add b ext)))
              adom
            || explains j Ls.top)
       (List.init (List.length e) Fun.id))

(* ------------------------------------------------------------------ *)
(* The explanation frontier over values                                *)
(* ------------------------------------------------------------------ *)

(* [Explanation.Frontier] as it ran before ids: every answer a value
   array with one bool flag per position, every D_j a value set, every
   membership test on a value. *)
module Value_frontier = struct
  type 'c t = {
    member : 'c -> Value.t -> bool;  (* the ontology's [mem] *)
    missing : Value.t array;
    concepts : 'c array;
    members : (Value.t -> bool) array;
        (* [members.(j)] = [member concepts.(j)], applied once. *)
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

  let make member wn e =
    let missing = Array.of_list (Whynot.missing_values wn) in
    if List.length e <> Array.length missing then None
    else
      let concepts = Array.of_list e in
      let members = Array.map member concepts in
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
            member;
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

  let mem f j v = f.members.(j) v
  let only f j = f.only.(j)

  let accepts f j c =
    let m = f.member c in
    m f.missing.(j) && not (Value_set.exists m f.only.(j))

  let replace f j c =
    let m = f.member c in
    let column = Array.map (fun values -> not (m values.(j))) f.answers in
    (* An answer loses its last excluding position iff its component [j]
       is in D_j and now in [ext(c)]. *)
    if
      not
        (Array.for_all2
           (fun x values -> x || not (Value_set.mem values.(j) f.only.(j)))
           column f.answers)
    then invalid_arg "Oracle.Value_frontier.replace: not an explanation";
    f.concepts.(j) <- c;
    f.members.(j) <- m;
    Array.iteri (fun i x -> f.excluded.(i).(j) <- x) column;
    ignore (refill f)
end

(* ------------------------------------------------------------------ *)
(* Lemma 5.2's lub by the interval DFS                                 *)
(* ------------------------------------------------------------------ *)

(* This is how [Lub.lub_sigma] computed its candidates before witness
   boxes: a DFS over one option per attribute, either unconstrained or a
   closed interval [l, u] with endpoints among the witness values on that
   attribute, pruned as soon as the partial selection (re-selected from
   the whole relation) loses a witness for some constant of [X]. Closed
   endpoints suffice on a fixed instance: any selection can be
   strengthened to one whose endpoints are realised witness values
   without changing validity, and only stronger selections matter for the
   minimal extensions. *)
let interval_options values =
  let vs = Value_set.elements values in
  None
  :: List.concat_map
       (fun l ->
          List.filter_map
            (fun u -> if Value.compare l u <= 0 then Some (Some (l, u)) else None)
            vs)
       vs

let closed_sels attr (l, u) =
  List.map
    (fun (op, value) -> { Ls.attr; op; value })
    (Interval.to_conditions (Interval.make (Interval.Closed l) (Interval.Closed u)))

let sels_of_intervals per_attr =
  List.concat_map
    (fun (attr, itv) -> Option.fold ~none:[] ~some:(closed_sels attr) itv)
    per_attr

let select_sels sels r =
  Relation.select
    (List.map (fun (s : Ls.selection) -> (s.attr, s.op, s.value)) sels)
    r

(* The closed bounding box of a non-empty tuple set, as selections. *)
let tight_sels arity selected =
  List.concat_map
    (fun b ->
       let col = Relation.column b selected in
       closed_sels b (Value_set.min_elt col, Value_set.max_elt col))
    (List.init arity (fun i -> i + 1))

let dfs_selection_candidates ?(prune = true) inst ~rel ~attr x =
  match Instance.relation inst rel with
  | None -> []
  | Some r ->
    let arity = Relation.arity r in
    let witnesses =
      Relation.filter (fun t -> Value_set.mem (Tuple.get t attr) x) r
    in
    if not (Value_set.subset x (Relation.column attr witnesses)) then []
    else
      let valid sels =
        Value_set.subset x (Relation.column attr (select_sels sels r))
      in
      let rec dfs b acc_intervals acc =
        if b > arity then
          let sels = sels_of_intervals (List.rev acc_intervals) in
          if valid sels then sels :: acc else acc
        else
          List.fold_left
            (fun acc opt ->
               let partial = (b, opt) :: acc_intervals in
               if valid (sels_of_intervals partial) then dfs (b + 1) partial acc
               else acc)
            acc
            (interval_options (Relation.column b witnesses))
      in
      let selected =
        List.map
          (fun sels ->
             let s = select_sels sels r in
             (s, Relation.column attr s))
          (dfs 1 [] [])
      in
      let exts = List.sort_uniq Value_set.compare (List.map snd selected) in
      (* The pruned variant keeps the subset-minimal extensions (their
         meet equals the meet of all valid candidates); the unpruned one
         (D2 ablation) every extension. *)
      let exts =
        if not prune then exts
        else
          List.filter
            (fun e ->
               not
                 (List.exists
                    (fun e' -> Value_set.subset e' e && not (Value_set.equal e' e))
                    exts))
            exts
      in
      (* One conjunct per extension, written canonically: among the
         subset-minimal tuple sets selecting it, the least (in
         [Stdlib.compare] order) closed bounding box. *)
      List.map
        (fun e ->
           let sets =
             List.filter_map
               (fun (s, e') -> if Value_set.equal e e' then Some s else None)
               selected
           in
           List.filter
             (fun s ->
                not
                  (List.exists
                     (fun s' -> Relation.subset s' s && not (Relation.equal s' s))
                     sets))
             sets
           |> List.map (fun s -> Ls.Proj { rel; attr; sels = tight_sels arity s })
           |> List.sort Stdlib.compare |> List.hd)
        exts

let dfs_lub_sigma ?prune inst x =
  if Value_set.is_empty x then invalid_arg "Oracle.dfs_lub_sigma: empty set";
  let nominal =
    match Value_set.elements x with [ c ] -> [ Ls.Nominal c ] | _ -> []
  in
  let candidates =
    List.concat_map
      (fun rel ->
         let arity = Relation.arity (Option.get (Instance.relation inst rel)) in
         List.concat_map
           (fun attr -> dfs_selection_candidates ?prune inst ~rel ~attr x)
           (List.init arity (fun i -> i + 1)))
      (Instance.relation_names inst)
  in
  Ls.of_conjuncts (nominal @ candidates)

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

let why_lub inst = function
  | Whynot_core.Incremental.Selection_free -> scan_lub inst
  | Whynot_core.Incremental.With_selections -> dfs_lub_sigma inst

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

(* ------------------------------------------------------------------ *)
(* Concept expressions, parsed per call                                *)
(* ------------------------------------------------------------------ *)

(* [Parser.concept_of_string] as it was before the staged
   [Parser.concept_reader]: every call rebuilds the relation list of
   [Parser.schema_of] (declared relations, then each undeclared view with
   attributes a1..aN) and resolves attribute names by list search. The
   [text/concept-reader-equals-oracle] property compares the two. *)

exception Concept_error of string

let concept_relation_decls (doc : Whynot_text.Parser.document) =
  let declared =
    List.map (fun (r : Schema.rel_decl) -> r.name) doc.relations
  in
  let implicit =
    List.filter_map
      (fun (v : View.def) ->
         if List.mem v.View.name declared then None
         else
           Some
             {
               Schema.name = v.View.name;
               attrs =
                 List.init (Ucq.arity v.View.body) (fun i ->
                     "a" ^ string_of_int (i + 1));
             })
      doc.views
  in
  doc.relations @ implicit

let concept_of_string doc src =
  let module L = Whynot_text.Lexer in
  let relations = concept_relation_decls doc in
  match L.tokenize src with
  | Error _ as e -> e
  | Ok tokens ->
    let tokens = ref tokens in
    let peek () = match !tokens with [] -> L.Eof | t :: _ -> t.L.token in
    let line () = match !tokens with [] -> 0 | t :: _ -> t.L.line in
    let advance () = match !tokens with [] -> () | _ :: r -> tokens := r in
    let fail msg =
      raise
        (Concept_error
           (Printf.sprintf "line %d: %s (found %s)" (line ()) msg
              (Format.asprintf "%a" L.pp_token (peek ()))))
    in
    let expect tok msg = if peek () = tok then advance () else fail msg in
    let ident () =
      match peek () with
      | L.Ident s -> advance (); s
      | _ -> fail "expected an identifier"
    in
    let value () =
      match peek () with
      | L.String s -> advance (); Value.Str s
      | L.Number v -> advance (); v
      | L.Ident s -> advance (); Value.Str s
      | _ -> fail "expected a constant"
    in
    let attr_of ~rel name =
      match int_of_string_opt name with
      | Some k -> k
      | None ->
        (match
           List.find_opt
             (fun (r : Schema.rel_decl) -> String.equal r.name rel)
             relations
         with
         | None ->
           raise
             (Concept_error
                (Printf.sprintf "attribute %s of undeclared relation %s" name
                   rel))
         | Some r ->
           (match List.find_index (String.equal name) r.Schema.attrs with
            | Some i -> i + 1
            | None ->
              raise
                (Concept_error
                   (Printf.sprintf "unknown attribute %s of %s" name rel))))
    in
    let op_of = function
      | L.Eq -> Some Cmp_op.Eq
      | L.Lt -> Some Cmp_op.Lt
      | L.Gt -> Some Cmp_op.Gt
      | L.Le -> Some Cmp_op.Le
      | L.Ge -> Some Cmp_op.Ge
      | _ -> None
    in
    let selection ~rel =
      let a = ident () in
      let op =
        match op_of (peek ()) with
        | Some op -> advance (); op
        | None -> fail "expected a comparison operator"
      in
      let v = value () in
      { Ls.attr = attr_of ~rel a; op; value = v }
    in
    let rec selections ~rel acc =
      let acc = selection ~rel :: acc in
      if peek () = L.Comma then (advance (); selections ~rel acc)
      else List.rev acc
    in
    let conjunct () =
      match peek () with
      | L.Ident "top" -> advance (); Ls.top
      | L.Lbrace ->
        advance ();
        let v = value () in
        expect L.Rbrace "expected '}'";
        Ls.nominal v
      | L.Ident name ->
        advance ();
        let rel, attr_name =
          match String.rindex_opt name '.' with
          | None -> fail "expected REL.ATTR"
          | Some i ->
            ( String.sub name 0 i,
              String.sub name (i + 1) (String.length name - i - 1) )
        in
        let attr = attr_of ~rel attr_name in
        let sels =
          if peek () = L.Lbracket then begin
            advance ();
            let ss = selections ~rel [] in
            expect L.Rbracket "expected ']'";
            ss
          end
          else []
        in
        Ls.proj ~rel ~attr ~sels ()
      | _ -> fail "expected 'top', '{c}' or REL.ATTR"
    in
    (try
       let rec more acc =
         if peek () = L.Amp then (advance (); more (conjunct () :: acc))
         else acc
       in
       let c = Ls.meet_all (List.rev (more [ conjunct () ])) in
       expect L.Eof "trailing input";
       Ok c
     with Concept_error msg -> Error (`Parse msg))
