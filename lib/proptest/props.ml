open Whynot_relational
module QG = QCheck2.Gen
module Ls = Whynot_concept.Ls
module Semantics = Whynot_concept.Semantics
module Lub = Whynot_concept.Lub
module Subsume_schema = Whynot_concept.Subsume_schema
module Subsume_inst = Whynot_concept.Subsume_inst
module Irredundant = Whynot_concept.Irredundant

(* Bind the facade's JSON codec before [Whynot] is rebound to the core
   question module below. *)
module Wire_json = Whynot.Json
module Engine = Whynot.Engine
module Whynot = Whynot_core.Whynot
module Explanation = Whynot_core.Explanation
module Exhaustive = Whynot_core.Exhaustive
module Incremental = Whynot_core.Incremental
module Ontology = Whynot_core.Ontology
module Why = Whynot_core.Why
module Reasoner = Whynot_dllite.Reasoner
module Canonical = Whynot_dllite.Canonical
module Interp = Whynot_dllite.Interp
module Tbox = Whynot_dllite.Tbox
module Induced = Whynot_obda.Induced
module Spec = Whynot_obda.Spec
module Parser = Whynot_text.Parser
module Subsume_memo = Whynot_concept.Subsume_memo

let ( let* ) = QG.( let* )
let ok = function Ok v -> v | Error e -> failwith (Whynot_error.to_string e)

type t = {
  name : string;
  default_count : int;
  make : count:int -> QCheck2.Test.t;
}

let prop name default_count print gen check =
  {
    name;
    default_count;
    make = (fun ~count -> QCheck2.Test.make ~name ~count ~print gen check);
  }

(* ------------------------------------------------------------------ *)
(* Printers for shrunk counterexamples                                 *)
(* ------------------------------------------------------------------ *)

let str_instance i = Format.asprintf "%a" Instance.pp i
let str_schema s = Format.asprintf "%a" Schema.pp s

let str_cq (q : Cq.t) =
  let term = function Cq.Var v -> v | Cq.Const c -> Value.to_string c in
  Printf.sprintf "q(%s) := %s"
    (String.concat ", " (List.map term q.Cq.head))
    (Surface.cq_body q)

let str_whynot = function
  | None -> "<no missing tuple available>"
  | Some wn -> Format.asprintf "%a" Whynot.pp wn

(* ------------------------------------------------------------------ *)
(* MGE computation: Algorithm 2 vs Algorithm 1                         *)
(* ------------------------------------------------------------------ *)

(* Incremental search works w.r.t. the infinite derived ontology [O_I];
   its selection-free variant only ever produces concepts of the finite
   restriction [O_I[K]] with [K] the constant pool of the question
   (Proposition 5.1), so its answer must be equivalent to one of the MGEs
   the exhaustive algorithm computes over that materialisation — and,
   conversely, every exhaustive MGE must pass the incremental CHECK-MGE
   procedure. *)
let mge_incremental_vs_exhaustive =
  prop "mge/incremental-vs-exhaustive" 100 str_whynot Gen.whynot (function
    | None -> true
    | Some wn ->
      let o =
        Ontology.of_instance_finite wn.Whynot.instance (Whynot.constant_pool wn)
      in
      let exhaustive = ok (Exhaustive.all_mges o wn) in
      let incremental =
        Incremental.one_mge ~variant:Incremental.Selection_free wn
      in
      Explanation.is_explanation o wn incremental
      && List.exists (fun e -> Explanation.equivalent o e incremental) exhaustive
      && List.for_all (fun e -> Incremental.check_mge wn e) exhaustive)

let mge_incremental_selections =
  prop "mge/incremental-selections-check" 100 str_whynot Gen.whynot (function
    | None -> true
    | Some wn ->
      let o = Ontology.of_instance wn.Whynot.instance in
      let e = Incremental.one_mge ~variant:Incremental.With_selections wn in
      Explanation.is_explanation o wn e
      && Incremental.check_mge ~variant:Incremental.With_selections wn e
      && Explanation.less_general o (Incremental.trivial_explanation wn) e)

(* Selection-free Algorithm 2 and CHECK-MGE run on position masks
   (Lemma 5.1); the oracle runs them as they ran on support sets, with
   column-scan lubs and whole-tuple re-tests. Both orders, with and
   without shortening, must give equal concepts and the same attempt
   trace, and CHECK-MGE the same verdicts, on one warm handle. *)
let mge_mask_search_equals_lub_search =
  prop "mge/mask-search-equals-lub-search" 150 str_whynot Gen.whynot
    (function
    | None -> true
    | Some wn ->
      let h = Subsume_memo.inst wn.Whynot.instance in
      let same_concepts = List.equal Ls.equal in
      let same_trace =
        List.equal (fun (j, b, a) (j', b', a') ->
            j = j' && Value.equal b b' && a = a')
      in
      let searches_agree order =
        List.for_all
          (fun shorten ->
            same_concepts
              (Incremental.one_mge ~handle:h ~shorten ~order wn)
              (fst (Oracle.lub_one_mge_with_trace ~order ~shorten wn)))
          [ true; false ]
        &&
        let e, trace = Incremental.one_mge_with_trace ~order wn in
        let e', trace' =
          Oracle.lub_one_mge_with_trace ~order ~shorten:false wn
        in
        same_concepts e e' && same_trace trace trace'
      in
      let mge = Incremental.one_mge ~handle:h wn in
      let nominals = Incremental.trivial_explanation wn in
      let narrowed =
        List.mapi
          (fun j a -> List.mapi (fun i c -> if i = j then a else c) mge)
          nominals
      in
      let checks_agree e =
        Incremental.check_mge ~handle:h wn e = Oracle.lub_check_mge wn e
      in
      searches_agree `Ascending && searches_agree `Descending
      && List.for_all checks_agree
           ((mge :: nominals :: List.map (fun _ -> Ls.top) mge :: narrowed)))

(* ------------------------------------------------------------------ *)
(* The explanation frontier vs the full re-test                        *)
(* ------------------------------------------------------------------ *)

(* A start tuple (one candidate pick per position) and a sequence of
   (position, candidate) picks, all taken modulo the list sizes. *)
let gen_frontier_case =
  let pick = QG.small_nat in
  let* wn = Gen.whynot in
  let arity = match wn with Some wn -> Whynot.arity wn | None -> 0 in
  let* start = QG.list_repeat arity pick in
  let* steps = QG.list_size (QG.int_range 1 12) (QG.pair pick pick) in
  QG.return (wn, start, steps)

let str_frontier_case (wn, start, steps) =
  Printf.sprintf "%s\nstart picks = [%s]\nsteps = [%s]" (str_whynot wn)
    (String.concat "; " (List.map string_of_int start))
    (String.concat "; "
       (List.map (fun (j, c) -> Printf.sprintf "(%d, %d)" j c) steps))

(* Candidates at position [j]: [top], nominals, and both variants' lubs
   of {b} and of {a_j, b} for every constant [b] of the pool, so they need
   neither cover [a_j] nor lie above the concept they replace. *)
let frontier_candidates h wn pool =
  Array.of_list
    (List.map
       (fun a ->
         Array.of_list
           (Ls.top
           :: List.concat_map
                (fun b ->
                  let x = Value_set.singleton b in
                  let xa = Value_set.add a x in
                  [ Ls.nominal b; Lub.lub h x; Lub.lub h xa;
                    Lub.lub_sigma h x; Lub.lub_sigma h xa ])
                pool))
       (Whynot.missing_values wn))

(* [Explanation.Frontier] against [Explanation.is_explanation]: building
   a frontier fails exactly on non-explanations; [accepts f j c] equals
   the full re-test of the tuple with [c] at [j]; and after every
   accepted [replace] the frontier equals one built afresh from its
   tuple, concepts and D_j alike. *)
let explanation_frontier_equals_is_explanation =
  prop "explanation/frontier-equals-is-explanation" 100 str_frontier_case
    gen_frontier_case (function
    | None, _, _ -> true
    | Some wn, start, steps ->
      let module F = Explanation.Frontier in
      let h = Subsume_memo.inst wn.Whynot.instance in
      let o = Ontology.of_instance ~handle:h wn.Whynot.instance in
      let pool = Value_set.elements (Whynot.constant_pool wn) in
      let candidates = frontier_candidates h wn pool in
      let nth j k = candidates.(j).(k mod Array.length candidates.(j)) in
      let set j c e = List.mapi (fun i c' -> if i = j then c else c') e in
      let same f g =
        List.for_all2 o.Ontology.equal (F.concepts f) (F.concepts g)
        && List.for_all
             (fun j -> Value_set.equal (F.only f j) (F.only g j))
             (List.init (Whynot.arity wn) Fun.id)
      in
      let e0 = List.mapi nth start in
      let built = F.make o.Ontology.mem wn e0 in
      Option.is_some built = Explanation.is_explanation o wn e0
      &&
      let f =
        match built with
        | Some f -> f
        | None ->
          Option.get
            (F.make o.Ontology.mem wn (Incremental.trivial_explanation wn))
      in
      List.for_all
        (fun (j, k) ->
          let j = j mod Whynot.arity wn in
          let c = nth j k in
          let accepted = F.accepts f j c in
          accepted = Explanation.is_explanation o wn (set j c (F.concepts f))
          && ((not accepted)
             ||
             (F.replace f j c;
              match F.make o.Ontology.mem wn (F.concepts f) with
              | Some g -> same f g
              | None -> false)))
        steps)

(* [O_I]'s membership is staged: [o.mem c] fetches the extension once and
   returns a set lookup, and a frontier keeps one such predicate per
   position. Both must answer as the naive membership, the oracle's
   full-scan extension: [o.mem c] partially applied, over every pool value,
   for every candidate; and [Frontier.mem f j], at every position, after
   every accepted [replace] of a random sequence. *)
let explanation_staged_mem_equals_naive =
  prop "explanation/staged-mem-equals-naive" 100 str_frontier_case
    gen_frontier_case (function
    | None, _, _ -> true
    | Some wn, start, steps ->
      let module F = Explanation.Frontier in
      let inst = wn.Whynot.instance in
      let h = Subsume_memo.inst inst in
      let o = Ontology.of_instance ~handle:h inst in
      let pool = Value_set.elements (Whynot.constant_pool wn) in
      let candidates = frontier_candidates h wn pool in
      let nth j k = candidates.(j).(k mod Array.length candidates.(j)) in
      let naive c =
        let e = Oracle.scan_extension c inst in
        fun v -> Semantics.ext_mem v e
      in
      let staged_ok c =
        let staged = o.Ontology.mem c and naive = naive c in
        List.for_all (fun v -> staged v = naive v) pool
      in
      let positions = List.init (Whynot.arity wn) Fun.id in
      let frontier_ok f =
        List.for_all
          (fun j ->
            let naive = naive (F.concept f j) in
            List.for_all (fun v -> F.mem f j v = naive v) pool)
          positions
      in
      Array.for_all (Array.for_all staged_ok) candidates
      &&
      let f =
        match F.make o.Ontology.mem wn (List.mapi nth start) with
        | Some f -> f
        | None ->
          Option.get
            (F.make o.Ontology.mem wn (Incremental.trivial_explanation wn))
      in
      frontier_ok f
      && List.for_all
           (fun (j, k) ->
             let j = j mod Whynot.arity wn in
             let c = nth j k in
             (not (F.accepts f j c))
             ||
             (F.replace f j c;
              frontier_ok f))
           steps)

(* ------------------------------------------------------------------ *)
(* Schema-level subsumption deciders vs Table 1                        *)
(* ------------------------------------------------------------------ *)

let gen_subsume_case =
  let* cls = Gen.schema_class in
  let* s = Gen.schema ~max_arity:2 cls in
  (* The IND fragment of Table 1 is only complete selection-free. *)
  let with_selections = match cls with Gen.Inds_only -> false | _ -> true in
  let concept = Gen.concept ~with_selections ~max_conjuncts:2 ~max_sels:1 s in
  let* c1 = concept in
  let* c2 = concept in
  let* i1 = Gen.legal_instance s in
  let* i2 = Gen.legal_instance s in
  QG.return (cls, s, c1, c2, [ i1; i2 ])

let str_subsume_case (_, s, c1, c2, insts) =
  Printf.sprintf "%s\nC1 = %s\nC2 = %s\n%s" (str_schema s) (Ls.to_string c1)
    (Ls.to_string c2)
    (String.concat "\n" (List.map str_instance insts))

(* [Subsumed] verdicts must hold on every legal instance, and the pure
   constraint classes (everything except [Mixed]) admit complete
   procedures, so [Unknown] is only ever allowed for [Mixed]. *)
let subsume_deciders_sound =
  prop "subsume/deciders-sound-on-instances" 150 str_subsume_case
    gen_subsume_case (fun (cls, s, c1, c2, insts) ->
      match Subsume_schema.decide s c1 c2 with
      | Subsume_schema.Subsumed ->
        List.for_all (fun i -> Subsume_inst.subsumes i c1 c2) insts
      | Subsume_schema.Not_subsumed -> true
      | Subsume_schema.Unknown -> ( match cls with Gen.Mixed -> true | _ -> false))

let gen_noconstraints_pair =
  let* s = Gen.schema No_constraints in
  let concept = Gen.concept ~with_selections:false s in
  let* c1 = concept in
  let* c2 = concept in
  QG.return (s, c1, c2)

let subsume_noconstraints_vs_syntactic =
  prop "subsume/noconstraints-vs-syntactic" 400
    (fun (s, c1, c2) ->
      Printf.sprintf "%s\nC1 = %s\nC2 = %s" (str_schema s) (Ls.to_string c1)
        (Ls.to_string c2))
    gen_noconstraints_pair
    (fun (s, c1, c2) ->
      let expected =
        if Oracle.selection_free_no_constraints_subsumes c1 c2 then
          Subsume_schema.Subsumed
        else Subsume_schema.Not_subsumed
      in
      Subsume_schema.decide s c1 c2 = expected)

(* ------------------------------------------------------------------ *)
(* Least upper bounds vs brute-force candidate enumeration             *)
(* ------------------------------------------------------------------ *)

let gen_instance_with_targets =
  let* inst = Gen.instance in
  match Value_set.elements (Instance.adom inst) with
  | [] -> QG.return (inst, [])
  | vals ->
    let* n = QG.int_range 1 (min 3 (List.length vals)) in
    let* shuffled = QG.shuffle_l vals in
    QG.return (inst, List.filteri (fun i _ -> i < n) shuffled)

let str_instance_with_targets (inst, xs) =
  Printf.sprintf "%s\nX = {%s}" (str_instance inst)
    (String.concat ", " (List.map Value.to_string xs))

let lub_least_vs_enumeration =
  prop "lub/least-vs-enumeration" 250 str_instance_with_targets
    gen_instance_with_targets (fun (inst, xs) ->
      match xs with
      | [] -> true
      | _ ->
        let x = Value_set.of_list xs in
        let ext =
          Semantics.extension (Lub.lub (Subsume_memo.inst inst) x) inst
        in
        List.for_all (fun v -> Semantics.ext_mem v ext) xs
        && List.for_all
             (fun c -> Semantics.ext_subset ext (Semantics.extension c inst))
             (Oracle.selection_free_upper_bounds inst ~nominals:x x))

(* The position-mask lub against the column-scan lub, for [X] and for
   [X] with a constant outside the active domain: equal concepts; the
   mask's membership equal to the scanned extension of its rendering on
   every pool value; mask shortening equal to [Irredundant.minimise] of
   the rendering, with and without the nominal. *)
let lub_mask_equals_lub =
  prop "lub/mask-equals-lub" 250 str_instance_with_targets
    gen_instance_with_targets (fun (inst, xs) ->
      match xs with
      | [] -> true
      | _ ->
        let h = Subsume_memo.inst inst in
        let adom = Instance.adom inst in
        let outside =
          List.find
            (fun v -> not (Value_set.mem v adom))
            (List.init 8 (fun k -> Value.int (100 + k)))
        in
        let pool = Value_set.add outside adom in
        let agrees x =
          let m = Lub.mask h x in
          let nominal =
            if Value_set.cardinal x = 1 then Some (Value_set.choose x)
            else None
          in
          let rendered = Lub.render h m in
          let scanned = Oracle.scan_extension rendered inst in
          Ls.equal (Lub.lub h x) (Oracle.scan_lub inst x)
          && Value_set.for_all
               (fun v -> Lub.covers h m v = Semantics.ext_mem v scanned)
               pool
          && Ls.equal (Lub.shorten h m) (Irredundant.minimise h rendered)
          && Ls.equal
               (Lub.shorten h ?nominal m)
               (Irredundant.minimise h (Lub.render h ?nominal m))
        in
        let x = Value_set.of_list xs in
        agrees x && agrees (Value_set.add outside x))

let lub_sigma_vs_single_condition =
  prop "lub/sigma-vs-single-condition-bounds" 150 str_instance_with_targets
    gen_instance_with_targets (fun (inst, xs) ->
      match xs with
      | [] -> true
      | _ ->
        let x = Value_set.of_list xs in
        let h = Subsume_memo.inst inst in
        let ext = Semantics.extension (Lub.lub_sigma h x) inst in
        List.for_all (fun v -> Semantics.ext_mem v ext) xs
        (* lubσ ranges over a richer language, so it lies below lub. *)
        && Semantics.ext_subset ext (Semantics.extension (Lub.lub h x) inst)
        && List.for_all
             (fun c -> Semantics.ext_subset ext (Semantics.extension c inst))
             (Oracle.single_condition_upper_bounds inst x))

(* ------------------------------------------------------------------ *)
(* DL-Lite saturation vs finite models and the canonical model         *)
(* ------------------------------------------------------------------ *)

let gen_tbox_with_model =
  let* tb = Gen.tbox in
  let* m = Gen.model_of tb in
  QG.return (tb, m)

let str_tbox_with_model (tb, m) =
  Format.asprintf "%a@.%a" Tbox.pp tb Instance.pp (Interp.to_instance m)

let dllite_saturation_sound =
  prop "dllite/saturation-sound-on-models" 250 str_tbox_with_model
    gen_tbox_with_model (fun (tb, m) ->
      (* The chase only closes the positive axioms; discard the draws
         that violate a negative one. *)
      (not (Interp.satisfies m tb))
      ||
      let r = Reasoner.saturate tb in
      let universe = Reasoner.universe r in
      List.for_all
        (fun b1 ->
          List.for_all
            (fun b2 ->
              (not (Reasoner.subsumes r b1 b2))
              || Interp.satisfies_inclusion m b1 b2)
            universe)
        universe)

let dllite_saturation_complete =
  prop "dllite/saturation-complete-vs-canonical" 300
    (Format.asprintf "%a" Tbox.pp)
    Gen.tbox
    (fun tb ->
      let r = Reasoner.saturate tb in
      let m = Canonical.build r in
      Interp.satisfies m tb
      && List.for_all
           (fun b1 ->
             List.for_all
               (fun b2 ->
                 Reasoner.subsumes r b1 b2
                 || not (Interp.satisfies_inclusion m b1 b2))
               (Reasoner.universe r))
           (Reasoner.universe r))

(* ------------------------------------------------------------------ *)
(* OBDA certain extensions vs a direct chase                           *)
(* ------------------------------------------------------------------ *)

let obda_induced_vs_chase =
  prop "obda/induced-vs-chase" 150
    (fun (spec, inst) ->
      Format.asprintf "%a@.%a" Spec.pp spec Instance.pp inst)
    Gen.obda
    (fun (spec, inst) ->
      let induced = Induced.prepare spec inst in
      (* When the retrieved assertions contradict the TBox there is no
         solution: [Induced.extension] then answers through the
         unsatisfiability closure, which the purely positive chase cannot
         (and should not) reproduce. *)
      match Induced.consistent induced with
      | Error _ -> true
      | Ok () ->
        List.for_all
          (fun b ->
            Value_set.equal (Induced.extension induced b)
              (Oracle.chase_certain_extension spec inst b))
          (Induced.concepts induced))

(* ------------------------------------------------------------------ *)
(* Irredundant minimisation vs exhaustive subset search                *)
(* ------------------------------------------------------------------ *)

let gen_instance_with_concept =
  let* inst = Gen.instance in
  let* c = Gen.concept ~max_conjuncts:4 Gen.rs_schema in
  QG.return (inst, c)

(* A conjunction's extension is the meet of its conjuncts' extensions, so
   the equivalent subsets of a conjunct set are upward closed; hence "no
   single conjunct can be dropped" coincides with "no strict subset is
   equivalent", i.e. irredundancy holds iff the exhaustive minimum subset
   size equals the conjunct count. *)
let irredundant_vs_subset_search =
  prop "concept/irredundant-vs-subset-search" 300
    (fun (inst, c) ->
      Printf.sprintf "%s\nC = %s" (str_instance inst) (Ls.to_string c))
    gen_instance_with_concept
    (fun (inst, c) ->
      let h = Subsume_memo.inst inst in
      let m = Irredundant.minimise h c in
      Semantics.ext_equal (Semantics.extension m inst)
        (Semantics.extension c inst)
      && Irredundant.is_irredundant h m
      && Oracle.minimal_equivalent_conjunct_count inst m
         = List.length (Ls.conjuncts m)
      && Irredundant.is_irredundant h c
         = (Oracle.minimal_equivalent_conjunct_count inst c
            = List.length (Ls.conjuncts c)))

(* ------------------------------------------------------------------ *)
(* CQ containment vs the homomorphism test                             *)
(* ------------------------------------------------------------------ *)

let gen_cq_pair =
  let cq = Gen.cq ~with_comparisons:false ~max_atoms:2 ~arity:1 Gen.rs_schema in
  let* q1 = cq in
  let* q2 = cq in
  QG.return (q1, q2)

let cq_containment_vs_homomorphism =
  prop "cq/containment-vs-homomorphism" 300
    (fun (q1, q2) -> Printf.sprintf "%s\n%s" (str_cq q1) (str_cq q2))
    gen_cq_pair
    (fun (q1, q2) ->
      Containment.cq_in_cq q1 q2 = Oracle.hom_contained q1 q2)

let gen_cq_pair_with_instance =
  let cq = Gen.cq ~max_atoms:2 ~arity:1 Gen.rs_schema in
  let* q1 = cq in
  let* q2 = cq in
  let* inst = Gen.instance in
  QG.return (q1, q2, inst)

let cq_containment_sound =
  prop "cq/containment-sound-on-instances" 250
    (fun (q1, q2, inst) ->
      Printf.sprintf "%s\n%s\n%s" (str_cq q1) (str_cq q2) (str_instance inst))
    gen_cq_pair_with_instance
    (fun (q1, q2, inst) ->
      (* Dropping a comparison weakens the query, so containment must be
         derivable — a completeness probe with a known-true answer. *)
      let weakened =
        match q1.Cq.comparisons with
        | [] -> q1
        | _ :: rest -> { q1 with Cq.comparisons = rest }
      in
      Containment.cq_in_cq q1 q1
      && Containment.cq_in_cq q1 weakened
      && ((not (Containment.cq_in_cq q1 q2))
          || Relation.subset (Cq.eval q1 inst) (Cq.eval q2 inst)))

(* ------------------------------------------------------------------ *)
(* The memo layer vs the cache-free oracles                            *)
(* ------------------------------------------------------------------ *)

let gen_inst_concept_pair =
  let* inst = Gen.instance in
  let concept = Gen.concept ~max_conjuncts:3 Gen.rs_schema in
  let* c1 = concept in
  let* c2 = concept in
  QG.return (inst, c1, c2)

(* The memoised instance-level decider must agree with the direct
   extension-inclusion computation, and asking the same handle again (now
   answered from its memoised extensions) must return the same
   verdict. *)
let memo_inst_cached_vs_naive =
  prop "memo/subsume-inst-cached-vs-naive" 300
    (fun (inst, c1, c2) ->
      Printf.sprintf "%s\nC1 = %s\nC2 = %s" (str_instance inst)
        (Ls.to_string c1) (Ls.to_string c2))
    gen_inst_concept_pair
    (fun (inst, c1, c2) ->
      let naive = Subsume_inst.naive_subsumes inst c1 c2 in
      let h = Subsume_memo.inst inst in
      let cached = Subsume_memo.subsumes h c1 c2 in
      let replayed = Subsume_memo.subsumes h c1 c2 in
      cached = naive && replayed = naive
      && Subsume_inst.subsumes inst c1 c2 = naive
      && Semantics.ext_equal (Subsume_memo.extension h c1)
           (Semantics.extension c1 inst))

(* The cached schema-level decider must return exactly the verdict of the
   uncached Table-1 decider (which is kept deliberately memo-free as the
   oracle), on first ask and on the replay that hits the cache. *)
let memo_schema_cached_vs_uncached =
  prop "memo/subsume-schema-cached-vs-uncached" 100 str_subsume_case
    gen_subsume_case (fun (_cls, s, c1, c2, _insts) ->
      let oracle = Subsume_schema.decide s c1 c2 in
      let h = Subsume_memo.schema s in
      let cached = Subsume_memo.decide h c1 c2 in
      let replayed = Subsume_memo.decide h c1 c2 in
      cached = oracle && replayed = oracle)

(* ------------------------------------------------------------------ *)
(* Concept identity vs the normal form                                 *)
(* ------------------------------------------------------------------ *)

(* Concepts carry no identity of their own: [equal], [compare] and
   [hash] must read the normal form and nothing else. A concept rebuilt
   from its conjuncts shuffled, partly duplicated and with every [Real]
   zero's sign flipped is equal to it, hashes alike and compares 0; for
   any two concepts, [equal], [compare = 0] and equal conjunct lists
   agree, and equal concepts hash alike. One concept in two carries a
   selection on a signed zero, which [Stdlib.compare] does not tell from
   the other zero. *)
let flip_zero (v : Value.t) =
  match v with
  | Value.Real x when x = 0. -> Value.real (-.x)
  | v -> v

let flip_zeros = function
  | Ls.Nominal v -> Ls.Nominal (flip_zero v)
  | Ls.Proj p ->
    Ls.Proj
      {
        p with
        sels =
          List.map (fun (s : Ls.selection) -> { s with value = flip_zero s.value })
            p.sels;
      }

let gen_concept_identity_case =
  let* c = Gen.concept ~max_conjuncts:4 Gen.rs_schema in
  let* c =
    QG.frequency
      [
        (1, QG.return c);
        ( 1,
          let* rel, attr = QG.oneofl (Schema.positions Gen.rs_schema) in
          let* op = QG.oneofl Cmp_op.all in
          let* zero = QG.oneofl [ 0.; -0. ] in
          let sel = { Ls.attr; op; value = Value.real zero } in
          QG.return (Ls.meet c (Ls.proj ~rel ~attr ~sels:[ sel ] ())) );
      ]
  in
  let conjs = Ls.conjuncts c in
  let* dups =
    if conjs = [] then QG.return []
    else QG.list_size (QG.int_range 0 2) (QG.oneofl conjs)
  in
  let* rebuilt = QG.shuffle_l (List.map flip_zeros (conjs @ dups)) in
  let* other =
    QG.frequency
      [
        (1, QG.return (Ls.of_conjuncts rebuilt));
        (3, Gen.concept ~max_conjuncts:4 Gen.rs_schema);
      ]
  in
  QG.return (c, rebuilt, other)

let concept_equal_iff_normal_form =
  prop "concept/equal-iff-normal-form" 500
    (fun (c, rebuilt, other) ->
      Printf.sprintf "C = %s\nrebuilt from = %s\nother = %s" (Ls.to_string c)
        (Ls.to_string (Ls.of_conjuncts rebuilt))
        (Ls.to_string other))
    gen_concept_identity_case
    (fun (c, rebuilt, other) ->
      let c' = Ls.of_conjuncts rebuilt in
      let agree a b =
        let eq = Ls.equal a b in
        eq = (Ls.compare a b = 0)
        && eq = (Stdlib.compare (Ls.conjuncts a) (Ls.conjuncts b) = 0)
        && ((not eq) || Ls.hash a = Ls.hash b)
      in
      Ls.equal c c'
      && Ls.hash c = Ls.hash c'
      && Ls.compare c c' = 0
      && agree c other && agree other c && agree c' other)

(* ------------------------------------------------------------------ *)
(* Text parser vs the Surface printer                                  *)
(* ------------------------------------------------------------------ *)

let gen_schema_with_concept =
  let* s = Gen.schema No_constraints in
  let* c = Gen.concept s in
  QG.return (s, c)

let text_concept_roundtrip =
  prop "text/concept-roundtrip" 300
    (fun (s, c) ->
      Printf.sprintf "%s\nC = %s\nprinted = %s" (str_schema s) (Ls.to_string c)
        (Surface.concept s c))
    gen_schema_with_concept
    (fun (s, c) ->
      match Parser.parse (Surface.document s Instance.empty) with
      | Error _ -> false
      | Ok doc ->
        (match Parser.concept_of_string doc (Surface.concept s c) with
         | Error _ -> false
         | Ok c' -> Ls.equal c c'))

let gen_schema_with_instance =
  let* cls = Gen.schema_class in
  let* s = Gen.schema cls in
  let* inst = Gen.legal_instance s in
  QG.return (s, inst)

let text_document_roundtrip =
  prop "text/document-roundtrip" 250
    (fun (s, inst) -> Surface.document s inst)
    gen_schema_with_instance
    (fun (s, inst) ->
      match Parser.parse (Surface.document s inst) with
      | Error _ -> false
      | Ok doc ->
        (match Parser.schema_of doc with
         | Error _ -> false
         | Ok s' ->
           let sorted l = List.sort Stdlib.compare l in
           Schema.relations s' = Schema.relations s
           && sorted (Schema.fds s') = sorted (Schema.fds s)
           && sorted (Schema.inds s') = sorted (Schema.inds s)
           && Instance.equal (Parser.instance_of doc) inst))

let text_values_roundtrip =
  prop "text/values-roundtrip" 500
    (fun vs -> String.concat ", " (List.map Value.to_string vs))
    (QG.list_size (QG.int_range 1 5) Gen.value)
    (fun vs ->
      let printed = String.concat ", " (List.map Value.to_string vs) in
      match Parser.values_of_string printed with
      | Error _ -> false
      | Ok vs' ->
        List.length vs = List.length vs' && List.for_all2 Value.equal vs vs')

(* ------------------------------------------------------------------ *)
(* Algorithm 1 vs its literal statement                                *)
(* ------------------------------------------------------------------ *)

(* A question and a mask over its O_I[K] concepts: concept [i] is kept
   iff [mask.(i mod 16)]. The restriction drops nominals and top at
   random, so it has questions without any explanation and MGE lists
   whose order the full O_I[K] never exercises. *)
let gen_literal_case =
  let* wn = Gen.whynot in
  let* mask = QG.list_repeat 16 QG.bool in
  QG.return (wn, Array.of_list mask)

let str_literal_case (wn, mask) =
  Printf.sprintf "%s\nmask = %s" (str_whynot wn)
    (String.concat ""
       (List.map (fun b -> if b then "1" else "0") (Array.to_list mask)))

(* [Exhaustive] runs every search over one plan with a suffix-reach cut;
   the literal algorithm builds the whole product and tests each tuple by
   the definition. The contract is "the literal list, exactly", on O_I[K]
   and on the masked restriction, both as extension classes and as the
   oracle's syntactic list (whose equivalent copies keep the equivalence
   pass at work): same MGEs, same representative per equivalence class,
   same order, with or without the dominated-candidate preprocessing; the
   same explanations in product order; existence iff the literal list is
   non-empty; and [one_mge] is the literal first explanation, climbed. *)
let exhaustive_equals_literal =
  prop "exhaustive/equals-literal" 100 str_literal_case gen_literal_case
    (function
      | None, _ -> true
      | Some wn, mask ->
        let inst = wn.Whynot.instance and pool = Whynot.constant_pool wn in
        let masked full =
          {
            full with
            Ontology.concepts =
              Option.map
                (List.filteri (fun i _ -> mask.(i mod Array.length mask)))
                full.Ontology.concepts;
          }
        in
        let agrees o =
          let explanations = Oracle.literal_explanations o wn in
          let mges = Oracle.literal_all_mges o wn in
          ok (Exhaustive.all_mges o wn) = mges
          && ok (Exhaustive.all_mges_unpruned o wn) = mges
          && List.of_seq (ok (Exhaustive.explanations_seq o wn)) = explanations
          && ok (Exhaustive.exists_explanation o wn) = (explanations <> [])
          && ok (Exhaustive.one_mge o wn)
             = Option.map
                 (fun e -> ok (Exhaustive.generalise o wn e))
                 (List.nth_opt explanations 0)
        in
        List.for_all
          (fun full -> agrees full && agrees (masked full))
          [
            Ontology.of_instance_finite inst pool;
            Oracle.syntactic_instance_finite inst pool;
          ])

(* ------------------------------------------------------------------ *)
(* O_I[K] as extension classes vs the syntactic O_I[K]                 *)
(* ------------------------------------------------------------------ *)

(* A question and its instance widened by a unary [S] and binary [T] and
   [U] over [R]'s constants: the question's own two positions never need
   more than two conjuncts per class; the seven of the widened instance,
   whose columns overlap, sometimes need three. *)
let gen_classes_case =
  let relation arity =
    QG.map
      (fun rows ->
        Relation.of_list ~arity
          (List.map (fun t -> Tuple.of_list (List.map Value.int t)) rows))
      (QG.list_size (QG.int_range 1 8)
         (QG.list_repeat arity (QG.int_range 0 4)))
  in
  let* wn = Gen.whynot in
  let* s = relation 1 in
  let* t = relation 2 in
  let* u = relation 2 in
  QG.return
    (Option.map
       (fun (wn : Whynot.t) ->
         ( wn,
           List.fold_left
             (fun inst (name, r) -> Instance.add_relation name r inst)
             wn.instance
             [ ("S", s); ("T", t); ("U", u) ] ))
       wn)

let str_classes_case = function
  | None -> str_whynot None
  | Some (wn, wide) ->
    Printf.sprintf "%s
widened: %s" (str_whynot (Some wn)) (str_instance wide)

(* Over O_I, C ⊑ D iff ext(C) ⊆ ext(D) (Prop 4.1), so
   [Ontology.of_instance_finite] lists one concept per extension of the
   syntactic O_I[K], the oracle's every selection-free concept with at
   most one nominal from the pool. Against it, on scanned extensions, on
   the question's instance and on the widened one: (i) the same
   extensions, one concept each on the class side; (ii) no representative
   longer than a syntactic member with its extension. On the question:
   (iii) [Exhaustive.all_mges] agrees class for class, the same count and
   each MGE equivalent to exactly one MGE of the other list. *)
let ontology_classes_same_mges =
  prop "ontology/classes-same-mges" 100 str_classes_case gen_classes_case
    (function
    | None -> true
    | Some (wn, wide) ->
      let lists inst pool =
        ( Ontology.of_instance_finite inst pool,
          Oracle.syntactic_instance_finite inst pool )
      in
      let same_classes inst pool =
        let classes, syntactic = lists inst pool in
        let keyed o =
          List.map
            (fun c ->
              match Oracle.scan_extension c inst with
              | Semantics.All -> (None, c)
              | Semantics.Fin s -> (Some s, c))
            (Option.get o.Ontology.concepts)
        in
        let compare = Option.compare Value_set.compare in
        let reps = keyed classes and members = keyed syntactic in
        let extensions l = List.sort_uniq compare (List.map fst l) in
        List.length reps = List.length (extensions reps)
        && List.equal
             (fun k k' -> compare k k' = 0)
             (extensions reps) (extensions members)
        && List.for_all
             (fun (k, c) ->
               List.for_all
                 (fun (k', c') -> compare k k' <> 0 || Ls.size c <= Ls.size c')
                 members)
             reps
      in
      let pool = Whynot.constant_pool wn in
      let classes, syntactic = lists wn.Whynot.instance pool in
      let mges o = ok (Exhaustive.all_mges o wn) in
      let m1 = mges classes and m2 = mges syntactic in
      let one_match e others =
        List.length (List.filter (Explanation.equivalent syntactic e) others)
        = 1
      in
      same_classes wn.Whynot.instance pool
      && same_classes wide (Value_set.union pool (Instance.adom wide))
      && List.length m1 = List.length m2
      && List.for_all (fun e -> one_match e m2) m1
      && List.for_all (fun e -> one_match e m1) m2)

(* ------------------------------------------------------------------ *)
(* The planned/indexed evaluation kernel vs the retained naive kernel  *)
(* ------------------------------------------------------------------ *)

let gen_cq_with_instance =
  let* q = Gen.cq ~max_atoms:3 ~arity:2 Gen.rs_schema in
  let* inst = Gen.instance in
  QG.return (q, inst)

(* [Cq.eval]/[Cq.holds]/[Cq.eval_assignments] now compile a greedy plan
   over [Eval_index]; the pre-planner backtracking join lives on in
   {!Oracle}. The two routes must agree exactly — answer relation, Boolean
   verdict, and assignment list (same variable order, same sort). The
   handle-less entry points build a handle per call; asking twice over
   one explicit handle also exercises its warm indexes on the replay. *)
let eval_planned_equals_naive =
  prop "eval/planned-equals-naive" 400
    (fun (q, inst) -> Printf.sprintf "%s\n%s" (str_cq q) (str_instance inst))
    gen_cq_with_instance
    (fun (q, inst) ->
      let idx = Eval_index.of_instance inst in
      let planned = Cq.Plan.eval idx q in
      let replayed = Cq.Plan.eval idx q in
      let naive = Oracle.naive_eval q inst in
      Relation.equal planned naive
      && Relation.equal replayed naive
      && Relation.equal (Cq.eval q inst) naive
      && Cq.holds q inst = Oracle.naive_holds q inst
      && Cq.eval_assignments q inst = Oracle.naive_eval_assignments q inst)

(* [Semantics.extension] now answers each conjunct from the per-column
   value indexes of an [Eval_index] handle; the full-scan version is the
   oracle. The replay reads the warm indexes of one explicit handle. *)
let ext_indexed_equals_scan =
  prop "ext/indexed-equals-scan" 400
    (fun (inst, c) ->
      Printf.sprintf "%s\nC = %s" (str_instance inst) (Ls.to_string c))
    (let* inst = Gen.instance in
     let* c = Gen.concept ~max_conjuncts:4 Gen.rs_schema in
     QG.return (inst, c))
    (fun (inst, c) ->
      let idx = Eval_index.of_instance inst in
      let indexed = Semantics.indexed_extension c idx in
      let replayed = Semantics.indexed_extension c idx in
      let scan = Oracle.scan_extension c inst in
      Semantics.ext_equal indexed scan
      && Semantics.ext_equal replayed scan
      && Semantics.ext_equal (Semantics.extension c inst) scan)

(* ------------------------------------------------------------------ *)
(* The engine's once-per-instance question vs a fresh one              *)
(* ------------------------------------------------------------------ *)

(* A legal instance, or (one time in three) one with an extra random fact
   that may break an FD, an IND or a view; two queries over it, each with
   a missing tuple of its arity (rarely a wrong one). *)
let gen_question_case =
  let* cls = Gen.schema_class in
  let* s = Gen.schema ~max_arity:2 cls in
  let* legal = Gen.legal_instance s in
  let* inst =
    QG.frequency
      [
        (2, QG.return legal);
        ( 1,
          let* rel = QG.oneofl (Schema.relation_names s) in
          let* t = Gen.tuple ~arity:(Option.get (Schema.arity s rel)) in
          QG.return (Instance.add_fact rel (Tuple.to_list t) legal) );
      ]
  in
  let query_with_missing =
    let* q = Gen.cq s in
    let* arity =
      QG.frequency [ (8, QG.return (Cq.arity q)); (1, QG.return (Cq.arity q + 1)) ]
    in
    let* m = Gen.tuple ~arity in
    QG.return (q, Tuple.to_list m)
  in
  let* q1 = query_with_missing in
  let* q2 = query_with_missing in
  QG.return (s, inst, q1, q2)

let str_question_case (s, inst, (q1, m1), (q2, m2)) =
  let str_missing m = Tuple.to_string (Tuple.of_list m) in
  Printf.sprintf "%s%s\n%s  missing %s\n%s  missing %s" (str_schema s)
    (str_instance inst) (str_cq q1) (str_missing m1) (str_cq q2)
    (str_missing m2)

(* [Engine.question] checks legality once per engine and keeps Ans = q(I)
   for the last query; neither may show. Each answer must match a fresh
   [Whynot.make ~schema]: the same error class, or equal answers and the
   same missing tuple. Asking q1 twice hits the cached slot, q2 replaces
   it, and q1 again replaces it back. *)
let engine_question_equals_fresh =
  prop "engine/question-equals-fresh" 200 str_question_case gen_question_case
    (fun (s, inst, (q1, m1), (q2, m2)) ->
      match Engine.create ~schema:s ~instance:inst () with
      | Error _ -> false
      | Ok engine ->
        Fun.protect ~finally:(fun () -> ignore (Engine.close engine))
        @@ fun () ->
        let agrees (query, missing) =
          let fresh = Whynot.make ~schema:s ~instance:inst ~query ~missing () in
          match (Engine.question engine ~query ~missing (), fresh) with
          | Ok a, Ok b ->
            Relation.equal a.Whynot.answers b.Whynot.answers
            && Tuple.equal a.Whynot.missing b.Whynot.missing
          | Error a, Error b ->
            Whynot_error.code a = Whynot_error.code b
          | Ok _, Error _ | Error _, Ok _ -> false
        in
        List.for_all agrees [ (q1, m1); (q1, m1); (q2, m2); (q1, m1) ])

(* ------------------------------------------------------------------ *)
(* The wire codec vs itself                                            *)
(* ------------------------------------------------------------------ *)

(* The server's hand-rolled JSON decoder against the hand-rolled encoder:
   every envelope (and every other finite JSON document — adversarial
   strings, integral and fractional floats, deep nesting, duplicate keys)
   must survive [encode ∘ decode] {e exactly}, field order, Int/Float
   class and all. Structural equality is the oracle. *)
let wire_envelope_roundtrip =
  prop "wire/envelope-roundtrip" 500
    (fun j -> Wire_json.to_string j)
    Gen.wire_envelope
    (fun j ->
      match Wire_json.of_string (Wire_json.to_string j) with
      | Ok j' -> j' = j
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* The wire contract: MGE replies parse back and pass check_mge        *)
(* ------------------------------------------------------------------ *)

module Handlers = Whynot_server.Handlers
module Protocol = Whynot_server.Protocol
module Registry = Whynot_server.Registry

(* A rendered document over a schema that mostly carries the view [V0];
   half the time the view is implicit (its [relation] line is dropped, so
   the parser names its attributes [a1..aN]). A query over the data
   relations and a [whynot] line close it. *)
let gen_wire_case =
  let* cls =
    QG.frequency
      [
        (2, QG.return Gen.Views_only);
        (2, QG.return Gen.Mixed);
        (1, Gen.schema_class);
      ]
  in
  let* s = Gen.schema ~max_arity:2 cls in
  let* inst = Gen.legal_instance s in
  let* arity = QG.int_range 1 2 in
  let* q = Gen.cq ~with_comparisons:false ~max_atoms:2 ~arity s in
  (* Missing values mostly from the active domain, so that projections
     (the view's included) can contain them. *)
  let value =
    match Value_set.elements (Instance.adom inst) with
    | [] -> Gen.value
    | adom -> QG.frequency [ (3, QG.oneofl adom); (1, Gen.value) ]
  in
  let* missing = QG.map Tuple.of_list (QG.list_repeat arity value) in
  let* implicit = QG.bool in
  let declares_view line =
    List.exists
      (fun (v : View.def) ->
         String.starts_with ~prefix:("relation " ^ v.View.name ^ "(") line)
      (View.defs (Schema.views s))
  in
  let text =
    String.split_on_char '\n' (Surface.document s inst)
    |> List.filter (fun line -> not (implicit && declares_view line))
    |> String.concat "\n"
  in
  let text =
    Printf.sprintf "%squery %s\nwhynot (%s)\n" text (str_cq q)
      (String.concat ", " (List.map Value.to_string (Tuple.to_list missing)))
  in
  QG.return (s, inst, q, missing, text)

let str_wire_case (_, _, _, _, text) = text

(* Concept spaces up to this many concepts per position get [all_mges]
   too: O_I[K] has 2^positions * (|K| + 1) selection-free concepts. *)
let wire_all_mges_concepts = 160

(* Drive [Handlers.handle] in-process on one session of the rendered
   document: [question], [one_mge] in both variants and, over small
   concept spaces, [all_mges]. Every concept of every reply must parse
   back in the session's document, and [check_mge] (same variant) must
   answer true on every reply. A tuple among the answers may only be
   refused as [invalid-whynot]. *)
let wire_mge_roundtrips =
  prop "wire/mge-roundtrips" 100 str_wire_case gen_wire_case
    (fun (s, inst, q, missing, text) ->
      let deps =
        {
          Handlers.registry = Registry.create ~max_sessions:1;
          domains_default = 1;
          domains_max = 1;
          default_deadline_ms = 0;
          max_deadline_ms = 0;
          debug_ops = false;
          started_at_s = 0.;
        }
      in
      let call op fields =
        let line =
          Wire_json.to_string
            (Wire_json.Obj
               (("op", Wire_json.String op)
                :: ("session", Wire_json.String "w")
                :: fields))
        in
        match Protocol.parse_request line with
        | Error m -> Error ("parse", m)
        | Ok req -> Handlers.handle deps req
      in
      let refused_legally = function
        | Error ("invalid-whynot", _) ->
          Relation.mem missing (Cq.eval q inst)
        | _ -> false
      in
      (* A reply's JSON list of concepts goes back verbatim, as a client
         would send it. *)
      let round_trips doc variant = function
        | Some (Wire_json.List (_ :: _ as concepts) as explanation) ->
          List.for_all
            (function
              | Wire_json.String c ->
                Result.is_ok (Parser.concept_of_string doc c)
              | _ -> false)
            concepts
          && call "check_mge"
               [
                 ("variant", Wire_json.String variant);
                 ("explanation", explanation);
               ]
             = Ok (Wire_json.Obj [ ("is_mge", Wire_json.Bool true) ])
        | _ -> false
      in
      match
        (Parser.parse text, call "create" [ ("document", Wire_json.String text) ])
      with
      | Error _, _ | _, Error _ -> false
      | Ok doc, Ok _ ->
        let one_mge variant =
          match call "one_mge" [ ("variant", Wire_json.String variant) ] with
          | Ok reply -> round_trips doc variant (Wire_json.member "mge" reply)
          | refused -> refused_legally refused
        in
        let all_mges () =
          let positions =
            List.fold_left
              (fun n (d : Schema.rel_decl) -> n + List.length d.Schema.attrs)
              0 (Schema.relations s)
          in
          match call "question" [] with
          | Ok reply ->
            (match Wire_json.member "constants" reply with
             | Some (Wire_json.Int k)
               when (1 lsl positions) * (k + 1) > wire_all_mges_concepts ->
               true
             | Some (Wire_json.Int _) ->
               (match call "all_mges" [] with
                | Ok reply ->
                  (match Wire_json.member "mges" reply with
                   | Some (Wire_json.List (_ :: _ as mges)) ->
                     List.for_all
                       (fun e -> round_trips doc "selection-free" (Some e))
                       mges
                   | _ -> false)
                | Error _ -> false)
             | _ -> false)
          | refused -> refused_legally refused
        in
        let agrees =
          one_mge "selection-free" && one_mge "with-selections" && all_mges ()
        in
        Result.is_ok (call "close" []) && agrees)

(* ------------------------------------------------------------------ *)
(* Why-explanations vs whole-tuple re-tests                            *)
(* ------------------------------------------------------------------ *)

(* A why question: one of the answers of a random why-not question's
   query, by index modulo their number. *)
let gen_why =
  let* wn = Gen.whynot in
  let* k = QG.small_nat in
  QG.return
    (Option.bind wn (fun (wn : Whynot.t) ->
         match Relation.to_list wn.answers with
         | [] -> None
         | answers ->
           let witness = List.nth answers (k mod List.length answers) in
           Result.to_option
             (Why.make ~answers:wn.answers ~instance:wn.instance
                ~query:wn.query ~witness:(Tuple.to_list witness) ())))

let str_why = function
  | None -> "<no answer available>"
  | Some (t : Why.t) ->
    Printf.sprintf "%s\n%s\nwitness %s" (str_instance t.instance)
      (str_cq t.query) (Tuple.to_string t.witness)

(* [Why.one_mge] and [Why.check_mge] against the oracle that rebuilds the
   probe values and re-tests the whole product on every attempt: equal
   concepts, and equal verdicts on the MGE and the nominal tuple, for
   both variants. *)
let why_one_mge_equals_literal =
  prop "why/one-mge-equals-literal" 100 str_why gen_why (function
    | None -> true
    | Some t ->
      List.for_all
        (fun variant ->
          let e = Why.one_mge ~variant t in
          let nominals = List.map Ls.nominal (Tuple.to_list t.Why.witness) in
          List.equal Ls.equal e (Oracle.why_one_mge variant t)
          && List.for_all
               (fun e ->
                 Why.check_mge ~variant t e = Oracle.why_check_mge variant t e)
               [ e; nominals ])
        [ Incremental.Selection_free; Incremental.With_selections ])

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let all =
  [
    mge_incremental_vs_exhaustive;
    mge_incremental_selections;
    mge_mask_search_equals_lub_search;
    explanation_frontier_equals_is_explanation;
    explanation_staged_mem_equals_naive;
    subsume_deciders_sound;
    subsume_noconstraints_vs_syntactic;
    lub_least_vs_enumeration;
    lub_sigma_vs_single_condition;
    lub_mask_equals_lub;
    dllite_saturation_sound;
    dllite_saturation_complete;
    obda_induced_vs_chase;
    irredundant_vs_subset_search;
    cq_containment_vs_homomorphism;
    cq_containment_sound;
    memo_inst_cached_vs_naive;
    memo_schema_cached_vs_uncached;
    concept_equal_iff_normal_form;
    text_concept_roundtrip;
    text_document_roundtrip;
    text_values_roundtrip;
    exhaustive_equals_literal;
    ontology_classes_same_mges;
    eval_planned_equals_naive;
    ext_indexed_equals_scan;
    wire_envelope_roundtrip;
    engine_question_equals_fresh;
    wire_mge_roundtrips;
    why_one_mge_equals_literal;
  ]

let names = List.map (fun p -> p.name) all

let find name = List.find_opt (fun p -> p.name = name) all

let default_seed = 20250806

let run ?count ~seed p =
  let count = Option.value count ~default:p.default_count in
  let test = p.make ~count in
  match QCheck2.Test.check_exn ~rand:(Random.State.make [| seed |]) test with
  | () -> Ok ()
  | exception QCheck2.Test_exceptions.Test_fail (name, cexs) ->
    Error
      (Printf.sprintf "%s failed (seed %d, count %d) on:\n%s" name seed count
         (String.concat "\n---\n" cexs))
  | exception QCheck2.Test_exceptions.Test_error (name, cex, exn, _bt) ->
    Error
      (Printf.sprintf "%s raised %s (seed %d, count %d) on:\n%s" name
         (Printexc.to_string exn) seed count cex)
