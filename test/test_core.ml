(* Tests for the why-not core: Examples 3.4 (hand ontology), 4.5 (OBDA),
   4.9 (derived ontologies), Algorithms 1 and 2, CHECK-MGE, and the §6
   variations. *)

open Whynot_relational
open Whynot_core

let v_str = Value.str
let v_int = Value.int
let ok = function Ok v -> v | Error e -> failwith (Whynot_error.to_string e)

module Cities = Whynot_workload.Cities

let whynot_cities =
  Whynot.make_exn ~schema:Cities.schema ~instance:Cities.instance
    ~query:Cities.two_hop_query ~missing:Cities.missing_tuple ()

(* ------------------------------------------------------------------ *)
(* Example 3.4: the hand ontology of Figure 3                          *)
(* ------------------------------------------------------------------ *)

let hand_ontology =
  Ontology.of_extensions ~name:"figure3"
    ~subsumptions:Cities.hand_hasse
    ~extensions:
      (List.map
         (fun (c, ext) -> (c, Value_set.of_strings ext))
         Cities.hand_extensions)

let test_example_3_4_explanations () =
  let o = hand_ontology and wn = whynot_cities in
  let is_expl = Explanation.is_explanation o wn in
  (* E1..E4 of Example 3.4 are all explanations. *)
  Alcotest.(check bool) "E1" true (is_expl [ "Dutch-City"; "East-Coast-City" ]);
  Alcotest.(check bool) "E2" true (is_expl [ "Dutch-City"; "US-City" ]);
  Alcotest.(check bool) "E3" true (is_expl [ "European-City"; "East-Coast-City" ]);
  Alcotest.(check bool) "E4" true (is_expl [ "European-City"; "US-City" ]);
  (* Other combinations are not: they intersect q(I). *)
  Alcotest.(check bool) "City x City not" false (is_expl [ "City"; "City" ]);
  Alcotest.(check bool) "European x City not" false (is_expl [ "European-City"; "City" ]);
  (* Generality order: E4 > E2 > E1 and E4 > E3 > E1. *)
  let lt = Explanation.strictly_less_general o in
  Alcotest.(check bool) "E1 < E2" true
    (lt [ "Dutch-City"; "East-Coast-City" ] [ "Dutch-City"; "US-City" ]);
  Alcotest.(check bool) "E2 < E4" true
    (lt [ "Dutch-City"; "US-City" ] [ "European-City"; "US-City" ]);
  Alcotest.(check bool) "E4 not < E1" false
    (lt [ "European-City"; "US-City" ] [ "Dutch-City"; "East-Coast-City" ])

let test_example_3_4_mge () =
  let o = hand_ontology and wn = whynot_cities in
  (* E4 = <European-City, US-City> is the most general of E1..E4; the full
     exhaustive search additionally finds <City, East-Coast-City>, which the
     paper's example does not list (its product also misses q(I), and City
     cannot be upgraded further) — see EXPERIMENTS.md. *)
  let mges = ok @@ Exhaustive.all_mges o wn in
  Alcotest.(check int) "exactly two MGEs" 2 (List.length mges);
  Alcotest.(check bool) "E4 among them" true
    (List.exists (fun e -> e = [ "European-City"; "US-City" ]) mges);
  Alcotest.(check bool) "<City, East-Coast-City> among them" true
    (List.exists (fun e -> e = [ "City"; "East-Coast-City" ]) mges);
  Alcotest.(check bool) "check_mge accepts E4" true
    (ok @@ Exhaustive.check_mge o wn [ "European-City"; "US-City" ]);
  Alcotest.(check bool) "check_mge rejects E1" false
    (ok @@ Exhaustive.check_mge o wn [ "Dutch-City"; "East-Coast-City" ]);
  Alcotest.(check bool) "exists" true (ok @@ Exhaustive.exists_explanation o wn);
  (match ok @@ Exhaustive.one_mge o wn with
   | Some e -> Alcotest.(check bool) "one_mge is most general" true
                 (ok @@ Exhaustive.check_mge o wn e)
   | None -> Alcotest.fail "one_mge found nothing");
  (* Pruned and unpruned agree. *)
  let unpruned = ok @@ Exhaustive.all_mges_unpruned o wn in
  Alcotest.(check int) "unpruned agrees" 2 (List.length unpruned)

let test_consistency_fig3 () =
  let probes = Value_set.elements (Whynot.constant_pool whynot_cities) in
  Alcotest.(check int) "instance consistent with figure 3 ontology" 0
    (List.length (ok @@ Ontology.consistency_violations hand_ontology probes))

(* ------------------------------------------------------------------ *)
(* Example 4.5: the OBDA-induced ontology of Figure 4                  *)
(* ------------------------------------------------------------------ *)

let obda_ontology =
  Ontology.of_obda (Whynot_obda.Induced.prepare Cities.obda_spec Cities.instance)

let a name = Whynot_dllite.Dl.Atom name

let test_example_4_5_mge () =
  let o = obda_ontology and wn = whynot_cities in
  let is_expl = Explanation.is_explanation o wn in
  (* E1..E4 of Example 4.5. *)
  Alcotest.(check bool) "E1" true (is_expl [ a "EU-City"; a "N.A.-City" ]);
  Alcotest.(check bool) "E2" true (is_expl [ a "Dutch-City"; a "N.A.-City" ]);
  Alcotest.(check bool) "E3" true (is_expl [ a "EU-City"; a "US-City" ]);
  Alcotest.(check bool) "E4" true (is_expl [ a "Dutch-City"; a "US-City" ]);
  (* "Among the four explanations above, E1 is the most general." *)
  Alcotest.(check bool) "E1 is most general" true
    (ok @@ Exhaustive.check_mge o wn [ a "EU-City"; a "N.A.-City" ]);
  Alcotest.(check bool) "E4 is not" false
    (ok @@ Exhaustive.check_mge o wn [ a "Dutch-City"; a "US-City" ]);
  let mges = ok @@ Exhaustive.all_mges o wn in
  Alcotest.(check bool) "E1 among all MGEs" true
    (List.exists
       (fun e -> Explanation.equivalent o e [ a "EU-City"; a "N.A.-City" ])
       mges)

(* The frontier over Example 3.4's explanations: it refuses a
   non-explanation, accepts exactly the single-position replacements that
   stay explanations, and a [replace] that would re-admit an answer
   raises and leaves it as it was. *)
let test_example_3_4_frontier () =
  let module F = Explanation.Frontier in
  let o = hand_ontology and wn = whynot_cities in
  let q = F.ids wn in
  let member = F.through q o.Ontology.mem in
  Alcotest.(check bool) "City x City has none" true
    (F.make q member [ "City"; "City" ] = None);
  let f = Option.get (F.make q member [ "Dutch-City"; "East-Coast-City" ]) in
  Alcotest.(check bool) "E1 -> E2" true (F.accepts f 1 "US-City");
  Alcotest.(check bool) "E1 -> E3" true (F.accepts f 0 "European-City");
  Alcotest.(check bool) "E1 -> (Dutch, City) refused" false (F.accepts f 1 "City");
  Alcotest.check_raises "replace re-admitting an answer"
    (Invalid_argument "Explanation.Frontier.replace: not an explanation")
    (fun () -> F.replace f 1 "City");
  Alcotest.(check (list string)) "left unchanged"
    [ "Dutch-City"; "East-Coast-City" ] (F.concepts f);
  F.replace f 0 "European-City";
  Alcotest.(check bool) "E3 -> E4" true (F.accepts f 1 "US-City");
  F.replace f 1 "US-City";
  Alcotest.(check (list string)) "E4" [ "European-City"; "US-City" ]
    (F.concepts f)

(* ------------------------------------------------------------------ *)
(* §5.2: Incremental search w.r.t. O_I (Example 4.9 flavour)           *)
(* ------------------------------------------------------------------ *)

let test_trivial_explanation () =
  let o = Ontology.of_instance Cities.instance in
  let e = Incremental.trivial_explanation whynot_cities in
  Alcotest.(check bool) "nominals explain" true
    (Explanation.is_explanation o whynot_cities e)

let test_incremental_selection_free () =
  let wn = whynot_cities in
  let o = Ontology.of_instance Cities.instance in
  let e = Incremental.one_mge ~variant:Incremental.Selection_free wn in
  Alcotest.(check bool) "is explanation" true
    (Explanation.is_explanation o wn e);
  Alcotest.(check bool) "check_mge agrees" true
    (Incremental.check_mge ~variant:Incremental.Selection_free wn e);
  (* The trivial explanation is strictly less general. *)
  Alcotest.(check bool) "beats nominals" true
    (Explanation.less_general o (Incremental.trivial_explanation wn) e)

let test_incremental_with_selections () =
  let wn = whynot_cities in
  let o = Ontology.of_instance Cities.instance in
  let e = Incremental.one_mge ~variant:Incremental.With_selections wn in
  Alcotest.(check bool) "is explanation" true
    (Explanation.is_explanation o wn e);
  Alcotest.(check bool) "check_mge (sigma) agrees" true
    (Incremental.check_mge ~variant:Incremental.With_selections wn e);
  (* With selections the result is at least as general as some selection-free
     MGE is — both are MGEs in their own concept space; here we just check
     the selection-free result is not strictly more general. *)
  let esf = Incremental.one_mge ~variant:Incremental.Selection_free wn in
  Alcotest.(check bool) "selection-free not strictly above" false
    (Explanation.strictly_less_general o e esf)

(* CHECK-MGE reads a selection-free meet of projections as its position
   mask, and must grow the lub of its extension, not the mask itself.
   Here ext(R.1) = {1} lies in column R.2, so its lub is R.1 & R.2 and
   absorbing 2 gives R.2, whose extension {1, 2} misses Ans = {3}:
   (R.1) is an explanation but not most general. Growing the mask R.1
   alone would try only top, and call it an MGE. *)
let test_check_mge_grows_projection_lub () =
  let instance =
    Instance.empty
    |> Instance.add_fact "R" [ v_int 1; v_int 1 ]
    |> Instance.add_fact "R" [ v_int 1; v_int 2 ]
    |> Instance.add_fact "S" [ v_int 3 ]
  in
  let query =
    Cq.make ~head:[ Cq.Var "x" ] ~atoms:[ { Cq.rel = "S"; args = [ Cq.Var "x" ] } ] ()
  in
  let wn = Whynot.make_exn ~instance ~query ~missing:[ v_int 1 ] () in
  let o = Ontology.of_instance instance in
  let proj attr = Whynot_concept.Ls.proj ~rel:"R" ~attr () in
  Alcotest.(check bool) "(R.1) is an explanation" true
    (Explanation.is_explanation o wn [ proj 1 ]);
  Alcotest.(check bool) "(R.1) is not an MGE" false
    (Incremental.check_mge wn [ proj 1 ]);
  Alcotest.(check bool) "(R.2) is an MGE" true
    (Incremental.check_mge wn [ proj 2 ])

let test_example_4_9_e2_is_mge_wrt_oi () =
  (* E2 = <pi_name(sigma_continent=Europe(Cities)),
           pi_name(sigma_continent=N.America(Cities))> is a most-general
     explanation w.r.t. O_I (Example 4.9). *)
  let open Whynot_concept in
  let sel attr op value = { Ls.attr; op; value } in
  let e2 =
    [
      Ls.proj ~rel:"Cities" ~attr:1
        ~sels:[ sel 4 Cmp_op.Eq (v_str "Europe") ] ();
      Ls.proj ~rel:"Cities" ~attr:1
        ~sels:[ sel 4 Cmp_op.Eq (v_str "N.America") ] ();
    ]
  in
  let o = Ontology.of_instance Cities.instance in
  Alcotest.(check bool) "E2 is explanation" true
    (Explanation.is_explanation o whynot_cities e2);
  (* Example 4.9 claims E2 is an MGE w.r.t. O_I. Over the FULL concept
     language L_S this is not the case (see EXPERIMENTS.md): the
     definitions make O_I's concept set all of L_S, and strictly more
     general explanations exist. Two concrete witnesses:

     (a) selection-free: "cities that are train destinations",
         pi_name(Cities) n pi_city_to(TC) n pi_city_to(Reachable), has
         extension {A, B, R, SF, SC, Kyoto} — a strict superset of the
         European cities — and excludes New York, so the pair still
         misses q(I);
     (b) with order selections: continent in [Asia, Europe] has extension
         {A, B, R, Tokyo, Kyoto}, same argument. *)
  Alcotest.(check bool) "E2 is not an MGE even selection-free" false
    (Incremental.check_mge ~variant:Incremental.Selection_free whynot_cities e2);
  Alcotest.(check bool) "E2 is not an MGE under full L_S" false
    (Incremental.check_mge ~variant:Incremental.With_selections whynot_cities e2);
  let destination_cities =
    Ls.meet_all
      [
        Ls.proj ~rel:"Cities" ~attr:1 ();
        Ls.proj ~rel:"Train-Connections" ~attr:2 ();
        Ls.proj ~rel:"Reachable" ~attr:2 ();
      ]
  in
  let e2a = [ destination_cities; List.nth e2 1 ] in
  Alcotest.(check bool) "witness (a) beats E2" true
    (Explanation.is_explanation o whynot_cities e2a
     && Explanation.strictly_less_general o e2 e2a);
  let interval_first =
    Ls.proj ~rel:"Cities" ~attr:1
      ~sels:[ sel 4 Cmp_op.Ge (v_str "Asia"); sel 4 Cmp_op.Le (v_str "Europe") ]
      ()
  in
  let e2b = [ interval_first; List.nth e2 1 ] in
  Alcotest.(check bool) "witness (b) beats E2" true
    (Explanation.is_explanation o whynot_cities e2b
     && Explanation.strictly_less_general o e2 e2b);
  (* E6 = <{Amsterdam}, {New York}> is an explanation but not an MGE. *)
  let e6 = Incremental.trivial_explanation whynot_cities in
  Alcotest.(check bool) "E6 not MGE" false
    (Incremental.check_mge ~variant:Incremental.With_selections whynot_cities e6)

(* ------------------------------------------------------------------ *)
(* §5.3: MGEs w.r.t. O_S                                              *)
(* ------------------------------------------------------------------ *)

let test_schema_mge_minimal () =
  let wn = whynot_cities in
  (match ok @@ Schema_mge.one_mge `Minimal Cities.schema wn with
   | None -> Alcotest.fail "an explanation always exists (nominals)"
   | Some e ->
     let o = Schema_mge.ontology `Minimal Cities.schema wn in
     Alcotest.(check bool) "is explanation" true
       (Explanation.is_explanation o wn e);
     Alcotest.(check bool) "is most general in O_S[K]-min" true
       (ok @@ Exhaustive.check_mge o wn e))

(* ------------------------------------------------------------------ *)
(* §6: cardinality, shortest, strong                                  *)
(* ------------------------------------------------------------------ *)

let test_cardinality () =
  let o = hand_ontology and wn = whynot_cities in
  (match ok @@ Cardinality.maximal o wn with
   | None -> Alcotest.fail "explanation exists"
   | Some e ->
     let d = Option.get (Cardinality.degree o wn e) in
     (* The card-maximal explanation is <City, East-Coast-City> with degree
        8 + 1 = 9, beating E4 = <European-City, US-City> (3 + 3 = 6): the
        two preference orders genuinely diverge (§6). *)
     Alcotest.(check int) "max degree 9" 9 d;
     (* Greedy achieves the optimum on this easy instance. *)
     (match ok @@ Cardinality.greedy o wn with
      | None -> Alcotest.fail "greedy found nothing"
      | Some g ->
        Alcotest.(check int) "greedy degree" 9
          (Option.get (Cardinality.degree o wn g))));
  let e4_degree =
    Option.get (Cardinality.degree o wn [ "European-City"; "US-City" ])
  in
  Alcotest.(check int) "E4 degree" 6 e4_degree

(* With an instance handle, [Schema_mge.ontology] reads the constant
   pool and every extension through the handle: the same concepts, each
   with the same members among the pool, and the same MGEs. *)
let test_schema_ontology_through_handle () =
  let wn = whynot_cities in
  let handle = Whynot_concept.Subsume_memo.inst wn.Whynot.instance in
  let pool = Value_set.elements (Whynot.constant_pool wn) in
  let members (o : _ Ontology.t) =
    List.map
      (fun c ->
         Whynot_concept.Ls.to_string c
         :: List.map Value.to_string (List.filter (o.mem c) pool))
      (Option.get o.concepts)
  in
  let plain = Schema_mge.ontology `Minimal Cities.schema wn
  and through = Schema_mge.ontology ~handle `Minimal Cities.schema wn in
  Alcotest.(check (list (list string))) "concepts and members"
    (members plain) (members through);
  let explanations o =
    List.map (List.map Whynot_concept.Ls.to_string)
      (ok @@ Exhaustive.all_mges o wn)
  in
  Alcotest.(check (list (list string))) "all_mges"
    (explanations plain) (explanations through)

let test_shortest () =
  let wn = whynot_cities in
  let e = Shortest.irredundant_mge wn in
  let h = Whynot_concept.Subsume_memo.inst Cities.instance in
  List.iter
    (fun c ->
       Alcotest.(check bool) "components irredundant" true
         (Whynot_concept.Irredundant.is_irredundant h c))
    e;
  Alcotest.(check bool) "length positive" true (Shortest.length e > 0)

(* The exact optimum on a small instance: the shortest MGE over O_I[K] is
   an MGE there, no MGE of Algorithm 1 is shorter, and the polynomial
   pipeline's irredundant MGE is no shorter than it. O_I[K] lists every
   extension class by its shortest member, so Algorithm 1 already returns
   the shortest member of each MGE class: <pi_2(R), pi_1(R)> and
   <top, {2}> (not <top, {2} n pi_1(R)>, which is equivalent). *)
let test_shortest_exact () =
  let inst =
    Instance.of_facts
      [ ("R", [ [ v_int 0; v_int 1 ]; [ v_int 2; v_int 3 ]; [ v_int 3; v_int 0 ] ]);
        ("S", [ [ v_int 1 ] ]) ]
  in
  let q =
    Cq.make
      ~head:[ Cq.Var "x"; Cq.Var "y" ]
      ~atoms:
        [
          { Cq.rel = "R"; args = [ Cq.Var "x"; Cq.Var "z" ] };
          { Cq.rel = "R"; args = [ Cq.Var "z"; Cq.Var "y" ] };
        ]
      ()
  in
  let wn = Whynot.make_exn ~instance:inst ~query:q ~missing:[ v_int 3; v_int 2 ] () in
  let o = Ontology.of_instance_finite inst (Whynot.constant_pool wn) in
  let shortest = Whynot_concept.Ls.[ top; nominal (v_int 2) ] in
  Alcotest.(check bool) "all_mges returns <top, {2}>" true
    (List.exists
       (List.equal Whynot_concept.Ls.equal shortest)
       (ok @@ Exhaustive.all_mges o wn));
  match ok @@ Shortest.shortest_mge_selection_free wn with
  | None -> Alcotest.fail "the nominal tuple is an explanation"
  | Some e ->
    Alcotest.(check bool) "the shortest MGE is <top, {2}>" true
      (List.equal Whynot_concept.Ls.equal shortest e);
    Alcotest.(check bool) "an MGE of O_I[K]" true
      (ok @@ Exhaustive.check_mge o wn e);
    Alcotest.(check bool) "no MGE is shorter" true
      (List.for_all
         (fun e' -> Shortest.length e <= Shortest.length e')
         (ok @@ Exhaustive.all_mges o wn));
    Alcotest.(check bool) "no longer than the irredundant MGE" true
      (Shortest.length e <= Shortest.length (Shortest.irredundant_mge wn))

let test_minimise_concept_exact () =
  let open Whynot_concept in
  (* Over the tiny instance R={1,2}, S={1}: pi_1(R) n pi_1(S) has extension
     {1} = pi_1(S): the exact minimiser finds the shorter equivalent. *)
  let inst =
    Instance.of_facts
      [ ("R", [ [ v_int 1 ]; [ v_int 2 ] ]); ("S", [ [ v_int 1 ] ]) ]
  in
  let c =
    Ls.meet (Ls.proj ~rel:"R" ~attr:1 ()) (Ls.proj ~rel:"S" ~attr:1 ())
  in
  let m = Shortest.minimise_concept_exact inst c in
  Alcotest.(check bool) "equivalent" true (Subsume_inst.equivalent inst c m);
  Alcotest.(check bool) "shorter or equal" true (Ls.size m <= Ls.size c);
  Alcotest.(check int) "single conjunct" 1 (List.length (Ls.conjuncts m))

let test_strong () =
  let open Whynot_concept in
  let wn = whynot_cities in
  let sel attr op value = { Ls.attr; op; value } in
  (* An ordinary explanation that is NOT strong: there are legal instances
     where some European city connects to some N.American city in two
     hops. *)
  let e2 =
    [
      Ls.proj ~rel:"Cities" ~attr:1 ~sels:[ sel 4 Cmp_op.Eq (v_str "Europe") ] ();
      Ls.proj ~rel:"Cities" ~attr:1 ~sels:[ sel 4 Cmp_op.Eq (v_str "N.America") ] ();
    ]
  in
  Alcotest.(check bool) "E2 explanation but not strong" true
    (Strong.is_explanation_but_not_strong Cities.schema wn e2);
  (* A strong explanation on a constraint-free schema: q only produces
     R-pairs, so concepts from S cannot be hit at the first position...
     Construct: q(x,y) <- R(x,y); explanation <pi_1(S), top> is strong when
     ext(pi_1(S)) can never meet pi_1(R)?? It can (same constants), so that
     is not strong either. A genuinely strong one uses an unsatisfiable
     combination: <pi_1(S) n {42}, {1}> against answers... Simplest strong
     case: concept with selection contradicting the query's comparison. *)
  let bare =
    Schema.make_exn
      [ { Schema.name = "R"; attrs = [ "a"; "b" ] };
        { Schema.name = "S"; attrs = [ "a" ] } ]
  in
  let q =
    Cq.make ~head:[ Cq.Var "x"; Cq.Var "y" ]
      ~atoms:[ { Cq.rel = "R"; args = [ Cq.Var "x"; Cq.Var "y" ] } ]
      ~comparisons:[ { Cq.subject = "x"; op = Cmp_op.Gt; value = v_int 10 } ]
      ()
  in
  let inst =
    Instance.of_facts
      [ ("R", [ [ v_int 20; v_int 1 ]; [ v_int 5; v_int 7 ] ]) ]
  in
  let wn2 =
    Whynot.make_exn ~schema:bare ~instance:inst ~query:q
      ~missing:[ v_int 5; v_int 1 ] ()
  in
  (* Any pair whose first component forces <= 10 can never be an answer. *)
  let e_strong =
    [ Ls.proj ~rel:"R" ~attr:1 ~sels:[ sel 1 Cmp_op.Le (v_int 10) ] (); Ls.top ]
  in
  Alcotest.(check bool) "explanation" true
    (Explanation.is_explanation (Ontology.of_instance inst) wn2 e_strong);
  Alcotest.(check bool) "strong" true
    (Strong.decide_wrt_schema bare wn2 e_strong = Strong.Strong);
  let e_weak = [ Ls.proj ~rel:"R" ~attr:1 (); Ls.nominal (v_int 99) ] in
  Alcotest.(check bool) "weak is not strong" true
    (Strong.decide_wrt_schema bare wn2 e_weak = Strong.Not_strong)

(* ------------------------------------------------------------------ *)
(* Why-not instance validation                                        *)
(* ------------------------------------------------------------------ *)

let test_whynot_validation () =
  (match
     Whynot.make ~instance:Cities.instance ~query:Cities.two_hop_query
       ~missing:[ v_str "Amsterdam"; v_str "Rome" ] ()
   with
   | Ok _ -> Alcotest.fail "tuple in answers accepted"
   | Error _ -> ());
  (match
     Whynot.make ~instance:Cities.instance ~query:Cities.two_hop_query
       ~missing:[ v_str "Amsterdam" ] ()
   with
   | Ok _ -> Alcotest.fail "wrong arity accepted"
   | Error _ -> ());
  (* 8 city names + 8 populations + 5 countries + 3 continents; the missing
     tuple's constants are already in the active domain. *)
  Alcotest.(check int) "constant pool size" 24
    (Value_set.cardinal (Whynot.constant_pool whynot_cities))

(* ------------------------------------------------------------------ *)
(* SET COVER reduction (Theorem 5.1, Prop 6.4)                        *)
(* ------------------------------------------------------------------ *)

let test_reduction_faithful () =
  let open Whynot_setcover in
  let sc =
    Setcover.make ~universe:[ 0; 1; 2; 3 ]
      ~sets:[ ("A", [ 0; 1 ]); ("B", [ 1; 2 ]); ("C", [ 2; 3 ]); ("D", [ 3 ]) ]
  in
  (* Minimum cover is {A, C} of size 2. *)
  (match Setcover.exact_min_cover sc with
   | Some cover -> Alcotest.(check int) "min cover size" 2 (List.length cover)
   | None -> Alcotest.fail "cover exists");
  let g2 = Reduction.build sc ~slots:2 in
  Alcotest.(check bool) "explanation exists with 2 slots" true
    (ok @@ Exhaustive.exists_explanation g2.Reduction.ontology g2.Reduction.whynot);
  let g1 = Reduction.build sc ~slots:1 in
  Alcotest.(check bool) "no explanation with 1 slot" false
    (ok @@ Exhaustive.exists_explanation g1.Reduction.ontology g1.Reduction.whynot);
  (* Round-trip: a cover gives an explanation and vice versa. *)
  let e = Reduction.sets_to_explanation ~slots:2 [ "A"; "C" ] in
  Alcotest.(check bool) "cover -> explanation" true
    (Explanation.is_explanation g2.Reduction.ontology g2.Reduction.whynot e);
  (match ok @@ Exhaustive.one_mge g2.Reduction.ontology g2.Reduction.whynot with
   | None -> Alcotest.fail "mge exists"
   | Some e ->
     Alcotest.(check bool) "explanation -> cover" true
       (Setcover.is_cover sc (Reduction.explanation_to_sets e)))

(* Kill-sets are bit vectors of [Sys.int_size]-bit words; 140 answers
   span three words on 64-bit hosts. Every Algorithm 1 search must still
   return the literal algorithm's list. *)
let test_exhaustive_many_answers () =
  let open Whynot_setcover in
  let range lo hi = List.init (hi - lo + 1) (fun i -> lo + i) in
  let universe = range 0 139 in
  let sc =
    Setcover.make ~universe
      ~sets:
        [
          ("Lo", range 0 69);
          ("Hi", range 70 139);
          ("Mid", range 35 104);
          ("Even", List.filter (fun u -> u mod 2 = 0) universe);
          ("Odd", List.filter (fun u -> u mod 2 = 1) universe);
          ("Most", range 0 138);
        ]
  in
  List.iter
    (fun slots ->
       let g = Reduction.build sc ~slots in
       let o = g.Reduction.ontology and wn = g.Reduction.whynot in
       let explanations = Whynot_proptest.Oracle.literal_explanations o wn in
       let mges = Whynot_proptest.Oracle.literal_all_mges o wn in
       let name what = Printf.sprintf "%s, %d slot(s)" what slots in
       let check what expected got =
         Alcotest.(check (list (list string))) (name what) expected got
       in
       check "all_mges" mges (ok @@ Exhaustive.all_mges o wn);
       check "all_mges_unpruned" mges (ok @@ Exhaustive.all_mges_unpruned o wn);
       check "explanations_seq" explanations
         (List.of_seq (ok @@ Exhaustive.explanations_seq o wn));
       Alcotest.(check bool) (name "exists_explanation") (explanations <> [])
         (ok @@ Exhaustive.exists_explanation o wn);
       Alcotest.(check (option (list string))) (name "one_mge")
         (Option.map
            (fun e -> ok @@ Exhaustive.generalise o wn e)
            (List.nth_opt explanations 0))
         (ok @@ Exhaustive.one_mge o wn))
    [ 1; 2 ];
  let g = Reduction.build sc ~slots:2 in
  Alcotest.(check int) "covers of size 2" 8
    (List.length
       (Whynot_proptest.Oracle.literal_explanations g.Reduction.ontology
          g.Reduction.whynot))

let prop_reduction_equivalence =
  QCheck2.Test.make ~name:"existence <=> cover of size <= slots" ~count:60
    QCheck2.Gen.(
      triple (int_range 1 5) (int_range 1 5) (int_range 0 1000))
    (fun (n_elements, n_sets, seed) ->
       let open Whynot_setcover in
       let sc =
         Setcover.random ~seed ~n_elements ~n_sets ~density:0.4 ()
       in
       List.for_all
         (fun slots ->
            let g = Reduction.build sc ~slots in
            ok
              (Exhaustive.exists_explanation g.Reduction.ontology
                 g.Reduction.whynot)
            = Setcover.exists_cover_of_size sc slots)
         [ 1; 2; 3 ])

(* ------------------------------------------------------------------ *)
(* Properties: incremental output is an MGE; exhaustive output sound   *)
(* ------------------------------------------------------------------ *)

let random_whynot_gen =
  QCheck2.Gen.(
    let row = pair (int_range 0 4) (int_range 0 4) in
    list_size (int_range 2 8) row >>= fun rows ->
    let inst =
      List.fold_left
        (fun inst (x, y) -> Instance.add_fact "R" [ v_int x; v_int y ] inst)
        Instance.empty rows
    in
    let q =
      Cq.make
        ~head:[ Cq.Var "x"; Cq.Var "y" ]
        ~atoms:
          [
            { Cq.rel = "R"; args = [ Cq.Var "x"; Cq.Var "z" ] };
            { Cq.rel = "R"; args = [ Cq.Var "z"; Cq.Var "y" ] };
          ]
        ()
    in
    let answers = Cq.eval q inst in
    let missing_candidates =
      List.concat_map
        (fun a -> List.map (fun b -> [ v_int a; v_int b ]) [ 0; 1; 2; 3; 4; 9 ])
        [ 0; 1; 2; 3; 4; 9 ]
      |> List.filter (fun t -> not (Relation.mem (Tuple.of_list t) answers))
    in
    match missing_candidates with
    | [] -> return None
    | _ :: _ ->
      map
        (fun i ->
           Some
             (Whynot.make_exn ~instance:inst ~query:q
                ~missing:(List.nth missing_candidates
                            (i mod List.length missing_candidates))
                ()))
        (int_range 0 100))

let prop_incremental_is_mge =
  QCheck2.Test.make ~name:"incremental output passes CHECK-MGE" ~count:60
    random_whynot_gen
    (function
      | None -> true
      | Some wn ->
        let e = Incremental.one_mge ~shorten:false wn in
        Incremental.check_mge wn e
        && Explanation.is_explanation
             (Ontology.of_instance wn.Whynot.instance) wn e)

let prop_incremental_shortened_still_mge =
  QCheck2.Test.make ~name:"irredundant shortening preserves MGE-ness"
    ~count:40 random_whynot_gen
    (function
      | None -> true
      | Some wn ->
        let e = Incremental.one_mge ~shorten:true wn in
        Incremental.check_mge wn e)

let prop_exhaustive_mges_incomparable =
  QCheck2.Test.make ~name:"exhaustive MGEs: sound, maximal, incomparable"
    ~count:40 random_whynot_gen
    (function
      | None -> true
      | Some wn ->
        let o =
          Ontology.of_instance_finite wn.Whynot.instance
            (Whynot.constant_pool wn)
        in
        let mges = ok @@ Exhaustive.all_mges o wn in
        List.for_all (fun e -> Explanation.is_explanation o wn e) mges
        && List.for_all (fun e -> ok @@ Exhaustive.check_mge o wn e) mges
        && List.for_all
             (fun e ->
                List.for_all
                  (fun e' ->
                     e == e'
                     || not (Explanation.less_general o e e'))
                  mges)
             mges)

let prop_pruned_equals_unpruned =
  QCheck2.Test.make ~name:"pruned Algorithm 1 = literal Algorithm 1"
    ~count:30 random_whynot_gen
    (function
      | None -> true
      | Some wn ->
        let o =
          Ontology.of_instance_finite wn.Whynot.instance
            (Whynot.constant_pool wn)
        in
        let same es es' =
          List.length es = List.length es'
          && List.for_all
               (fun e -> List.exists (Explanation.equivalent o e) es')
               es
        in
        same
          (ok @@ Exhaustive.all_mges o wn)
          (ok @@ Exhaustive.all_mges_unpruned o wn))

let prop_cardinality_greedy_leq_exact =
  QCheck2.Test.make ~name:"greedy degree <= exact maximal degree" ~count:40
    QCheck2.Gen.(triple (int_range 1 4) (int_range 1 4) (int_range 0 500))
    (fun (n_elements, n_sets, seed) ->
       let open Whynot_setcover in
       let sc = Setcover.random ~seed ~n_elements ~n_sets ~density:0.5 () in
       let g = Reduction.build sc ~slots:2 in
       match
         ( ok @@ Cardinality.greedy g.Reduction.ontology g.Reduction.whynot,
           ok @@ Cardinality.maximal g.Reduction.ontology g.Reduction.whynot )
       with
       | None, None -> true
       | Some _, None -> false
       | None, Some _ -> false (* greedy with feasibility check is complete *)
       | Some gr, Some ex ->
         Option.get (Cardinality.degree g.Reduction.ontology g.Reduction.whynot gr)
         <= Option.get (Cardinality.degree g.Reduction.ontology g.Reduction.whynot ex))

(* Greedy picks, per position, the highest-degree candidate that keeps
   the tuple completable: exactly the literal first explanation once every
   position lists its concepts by decreasing degree. *)
let prop_cardinality_greedy_is_first_by_degree =
  QCheck2.Test.make ~name:"greedy = first explanation by decreasing degree"
    ~count:60
    QCheck2.Gen.(triple (int_range 1 5) (int_range 1 5) (int_range 0 1000))
    (fun (n_elements, n_sets, seed) ->
       let open Whynot_setcover in
       let sc = Setcover.random ~seed ~n_elements ~n_sets ~density:0.5 () in
       List.for_all
         (fun slots ->
            let g = Reduction.build sc ~slots in
            let o = g.Reduction.ontology and wn = g.Reduction.whynot in
            let degree c = Option.get (Cardinality.degree o wn [ c ]) in
            let by_degree =
              {
                o with
                Ontology.concepts =
                  Option.map
                    (List.stable_sort (fun c c' ->
                         Int.compare (degree c') (degree c)))
                    o.Ontology.concepts;
              }
            in
            ok @@ Cardinality.greedy o wn
            = List.nth_opt
                (Whynot_proptest.Oracle.literal_explanations by_degree wn) 0)
         [ 1; 2; 3 ])

(* The branch-and-bound over Algorithm 1's plan returns an explanation
   of the best degree among all explanations the literal product yields. *)
let prop_cardinality_maximal_is_best_literal =
  QCheck2.Test.make ~name:"exact maximal degree = best literal degree"
    ~count:60
    QCheck2.Gen.(triple (int_range 1 5) (int_range 1 5) (int_range 0 1000))
    (fun (n_elements, n_sets, seed) ->
       let open Whynot_setcover in
       let sc = Setcover.random ~seed ~n_elements ~n_sets ~density:0.5 () in
       List.for_all
         (fun slots ->
            let g = Reduction.build sc ~slots in
            let o = g.Reduction.ontology and wn = g.Reduction.whynot in
            let degree e = Option.get (Cardinality.degree o wn e) in
            let best =
              List.fold_left
                (fun acc e -> max acc (Some (degree e)))
                None
                (Whynot_proptest.Oracle.literal_explanations o wn)
            in
            match ok @@ Cardinality.maximal o wn with
            | None -> best = None
            | Some e ->
              Explanation.is_explanation o wn e && Some (degree e) = best)
         [ 1; 2; 3 ])

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_reduction_equivalence;
      prop_incremental_is_mge;
      prop_incremental_shortened_still_mge;
      prop_exhaustive_mges_incomparable;
      prop_pruned_equals_unpruned;
      prop_cardinality_greedy_leq_exact;
      prop_cardinality_greedy_is_first_by_degree;
      prop_cardinality_maximal_is_best_literal;
    ]

(* ------------------------------------------------------------------ *)
(* Edge cases                                                         *)
(* ------------------------------------------------------------------ *)

let test_empty_answer_set () =
  (* With no answers at all, every covering tuple is an explanation and the
     most general one is all-top (w.r.t. O_I). *)
  let inst = Instance.of_facts [ ("R", [ [ v_int 1; v_int 2 ] ]) ] in
  let q =
    Cq.make
      ~head:[ Cq.Var "x"; Cq.Var "y" ]
      ~atoms:
        [
          { Cq.rel = "R"; args = [ Cq.Var "x"; Cq.Var "y" ] };
          { Cq.rel = "R"; args = [ Cq.Var "y"; Cq.Var "x" ] };
        ]
      ()
  in
  let wn = Whynot.make_exn ~instance:inst ~query:q ~missing:[ v_int 1; v_int 2 ] () in
  Alcotest.(check int) "no answers" 0 (Relation.cardinal wn.Whynot.answers);
  let e = Incremental.one_mge wn in
  Alcotest.(check bool) "all-top MGE" true
    (List.for_all Whynot_concept.Ls.is_top e)

let test_unary_whynot () =
  let inst = Instance.of_facts [ ("R", [ [ v_int 1 ]; [ v_int 2 ] ]) ] in
  let q =
    Cq.make ~head:[ Cq.Var "x" ]
      ~atoms:[ { Cq.rel = "R"; args = [ Cq.Var "x" ] } ]
      ~comparisons:[ { Cq.subject = "x"; op = Cmp_op.Le; value = v_int 1 } ]
      ()
  in
  let wn = Whynot.make_exn ~instance:inst ~query:q ~missing:[ v_int 2 ] () in
  let e = Incremental.one_mge ~variant:Incremental.With_selections wn in
  Alcotest.(check int) "unary explanation" 1 (List.length e);
  Alcotest.(check bool) "check" true
    (Incremental.check_mge ~variant:Incremental.With_selections wn e)

let test_missing_constants_outside_adom () =
  (* The why-not tuple may mention constants the database has never seen;
     the nominal explanation still works and the algorithms cope. *)
  let wn =
    Whynot.make_exn ~instance:Cities.instance ~query:Cities.two_hop_query
      ~missing:[ v_str "Paris"; v_str "Osaka" ] ()
  in
  let o = Ontology.of_instance Cities.instance in
  let e = Incremental.one_mge wn in
  Alcotest.(check bool) "explanation" true (Explanation.is_explanation o wn e);
  Alcotest.(check bool) "most general" true (Incremental.check_mge wn e);
  (* Only one position can lift to top: with ⟨top, top⟩ the product covers
     the (non-empty) answer set. The algorithm lifts the first position and
     keeps the second specific. *)
  Alcotest.(check bool) "exactly one top" true
    (List.length (List.filter Whynot_concept.Ls.is_top e) = 1)

let test_schema_mge_selection_free_fragment () =
  (* A small schema where the selection-free O_S[K] fragment is feasible. *)
  let schema =
    Schema.make_exn
      ~inds:[ Ind.make ~lhs_rel:"R" ~lhs_attrs:[ 1 ] ~rhs_rel:"S" ~rhs_attrs:[ 1 ] ]
      [ { Schema.name = "R"; attrs = [ "a"; "b" ] };
        { Schema.name = "S"; attrs = [ "a"; "b" ] } ]
  in
  let inst =
    Instance.of_facts
      [ ("R", [ [ v_int 1; v_int 2 ] ]);
        ("S", [ [ v_int 1; v_int 9 ]; [ v_int 3; v_int 4 ] ]) ]
  in
  let q =
    Cq.make
      ~head:[ Cq.Var "x"; Cq.Var "y" ]
      ~atoms:[ { Cq.rel = "R"; args = [ Cq.Var "x"; Cq.Var "y" ] } ]
      ()
  in
  let wn = Whynot.make_exn ~schema ~instance:inst ~query:q ~missing:[ v_int 3; v_int 4 ] () in
  match ok @@ Schema_mge.one_mge `Selection_free schema wn with
  | None -> Alcotest.fail "explanation exists"
  | Some e ->
    let o = Schema_mge.ontology `Selection_free schema wn in
    Alcotest.(check bool) "is explanation" true (Explanation.is_explanation o wn e);
    Alcotest.(check bool) "is MGE in the fragment" true (ok @@ Exhaustive.check_mge o wn e)

let test_strong_views_only_complete () =
  (* On a views-only schema the strong verdict is complete (never Unknown):
     a view selecting small values can never produce large answers. *)
  let views =
    [ { View.name = "V";
        body =
          Ucq.of_cq
            (Cq.make ~head:[ Cq.Var "x" ]
               ~atoms:[ { Cq.rel = "R"; args = [ Cq.Var "x"; Cq.Var "y" ] } ]
               ~comparisons:[ { Cq.subject = "x"; op = Cmp_op.Lt; value = v_int 10 } ]
               ()) } ]
  in
  let schema =
    Schema.make_exn ~views
      [ { Schema.name = "R"; attrs = [ "a"; "b" ] };
        { Schema.name = "V"; attrs = [ "a" ] } ]
  in
  let inst =
    Schema.complete schema (Instance.of_facts [ ("R", [ [ v_int 1; v_int 2 ]; [ v_int 50; v_int 3 ] ]) ])
  in
  let q =
    Cq.make ~head:[ Cq.Var "x" ]
      ~atoms:[ { Cq.rel = "V"; args = [ Cq.Var "x" ] } ]
      ()
  in
  let wn = Whynot.make_exn ~schema ~instance:inst ~query:q ~missing:[ v_int 50 ] () in
  let sel attr op value = { Whynot_concept.Ls.attr; op; value } in
  let big = Whynot_concept.Ls.proj ~rel:"R" ~attr:1 ~sels:[ sel 1 Cmp_op.Ge (v_int 10) ] () in
  Alcotest.(check bool) "strong (complete class)" true
    (Strong.decide_wrt_schema schema wn [ big ] = Strong.Strong);
  let small = Whynot_concept.Ls.proj ~rel:"R" ~attr:2 () in
  Alcotest.(check bool) "not strong" true
    (Strong.decide_wrt_schema schema wn [ small ] = Strong.Not_strong)

let test_ranked () =
  let ranked = ok @@ Cardinality.ranked hand_ontology whynot_cities in
  Alcotest.(check int) "two MGEs ranked" 2 (List.length ranked);
  (match ranked with
   | (e, d) :: (_, d') :: _ ->
     Alcotest.(check bool) "descending degrees" true (d >= d');
     Alcotest.(check (list string)) "degree-9 first" [ "City"; "East-Coast-City" ] e;
     Alcotest.(check int) "top degree 9" 9 d
   | _ -> Alcotest.fail "two entries expected")

(* ------------------------------------------------------------------ *)
(* Lazy enumeration                                                   *)
(* ------------------------------------------------------------------ *)

let test_lazy_enumeration () =
  let o = hand_ontology and wn = whynot_cities in
  (* The stream agrees with the batch computation. *)
  let streamed = List.of_seq (ok @@ Exhaustive.mges_seq o wn) in
  let batch = ok @@ Exhaustive.all_mges o wn in
  Alcotest.(check int) "same count" (List.length batch) (List.length streamed);
  List.iter
    (fun e ->
       Alcotest.(check bool) "streamed MGE in batch" true
         (List.exists (Explanation.equivalent o e) batch))
    streamed;
  (* Taking just the first element does not force the rest. *)
  (match Seq.uncons (ok @@ Exhaustive.mges_seq o wn) with
   | Some (e, _) ->
     Alcotest.(check bool) "first is an MGE" true (ok @@ Exhaustive.check_mge o wn e)
   | None -> Alcotest.fail "an MGE exists");
  (* All explanations stream: count matches a brute-force filter. *)
  let n_expl = Seq.length (ok @@ Exhaustive.explanations_seq o wn) in
  Alcotest.(check bool) "at least the 4 named + 2 MGEs" true (n_expl >= 5)

let prop_lazy_agrees =
  QCheck2.Test.make ~name:"mges_seq = all_mges on random gadgets" ~count:40
    QCheck2.Gen.(triple (int_range 1 4) (int_range 1 4) (int_range 0 300))
    (fun (n_elements, n_sets, seed) ->
       let open Whynot_setcover in
       let sc = Setcover.random ~seed ~n_elements ~n_sets ~density:0.5 () in
       let g = Reduction.build sc ~slots:2 in
       let o = g.Reduction.ontology and wn = g.Reduction.whynot in
       let streamed = List.of_seq (ok @@ Exhaustive.mges_seq o wn) in
       let batch = ok @@ Exhaustive.all_mges o wn in
       List.length streamed = List.length batch
       && List.for_all
            (fun e -> List.exists (Explanation.equivalent o e) batch)
            streamed)

(* ------------------------------------------------------------------ *)
(* Why explanations (the §7 dual, implemented as an extension)        *)
(* ------------------------------------------------------------------ *)

let test_why_explanations () =
  let why =
    ok
    @@ Why.make ~instance:Cities.instance ~query:Cities.two_hop_query
         ~witness:[ v_str "Amsterdam"; v_str "Rome" ] ()
  in
  let o = Ontology.of_instance Cities.instance in
  (* The nominal tuple is always a why explanation. *)
  Alcotest.(check bool) "nominals explain why" true
    (Why.is_why_explanation o why
       [ Whynot_concept.Ls.nominal (v_str "Amsterdam");
         Whynot_concept.Ls.nominal (v_str "Rome") ]);
  (* A rectangle leaking outside q(I) is rejected. *)
  Alcotest.(check bool) "city x city is not a why explanation" false
    (Why.is_why_explanation o why
       [ Whynot_concept.Ls.proj ~rel:"Cities" ~attr:1 ();
         Whynot_concept.Ls.proj ~rel:"Cities" ~attr:1 () ]);
  (* The incremental dual returns a most-general why explanation. *)
  let e = Why.one_mge why in
  Alcotest.(check bool) "is why explanation" true
    (Why.is_why_explanation o why e);
  Alcotest.(check bool) "check agrees" true (Why.check_mge why e);
  (* With selections, position 2 generalises to the Berlin destinations:
     {Amsterdam} x {Amsterdam, Rome} is inside q(I). *)
  let es = Why.one_mge ~variant:Incremental.With_selections why in
  Alcotest.(check bool) "sigma variant most general" true
    (Why.check_mge ~variant:Incremental.With_selections why es);
  let snd_ext =
    match Whynot_concept.Semantics.extension (List.nth es 1) Cities.instance with
    | Whynot_concept.Semantics.All -> Value_set.empty
    | Whynot_concept.Semantics.Fin s -> s
  in
  Alcotest.(check bool) "second position covers {Amsterdam, Rome}" true
    (Value_set.subset (Value_set.of_strings [ "Amsterdam"; "Rome" ]) snd_ext)

let test_why_validation () =
  match
    Why.make ~instance:Cities.instance ~query:Cities.two_hop_query
      ~witness:[ v_str "Amsterdam"; v_str "New York" ] ()
  with
  | Ok _ -> Alcotest.fail "non-answer accepted as witness"
  | Error _ -> ()

let () =
  Alcotest.run "core"
    [
      ( "example-3.4",
        [
          Alcotest.test_case "explanations" `Quick test_example_3_4_explanations;
          Alcotest.test_case "MGE = E4" `Quick test_example_3_4_mge;
          Alcotest.test_case "frontier" `Quick test_example_3_4_frontier;
          Alcotest.test_case "consistency" `Quick test_consistency_fig3;
        ] );
      ( "example-4.5",
        [ Alcotest.test_case "MGE = E1" `Quick test_example_4_5_mge ] );
      ( "incremental",
        [
          Alcotest.test_case "trivial explanation" `Quick test_trivial_explanation;
          Alcotest.test_case "selection-free" `Quick test_incremental_selection_free;
          Alcotest.test_case "with selections" `Quick test_incremental_with_selections;
          Alcotest.test_case "example 4.9 E2" `Quick test_example_4_9_e2_is_mge_wrt_oi;
          Alcotest.test_case "check_mge grows a projection's lub" `Quick
            test_check_mge_grows_projection_lub;
        ] );
      ( "schema-mge",
        [ Alcotest.test_case "minimal fragment" `Quick test_schema_mge_minimal ] );
      ( "variations",
        [
          Alcotest.test_case "cardinality" `Quick test_cardinality;
          Alcotest.test_case "schema ontology through a handle" `Quick
            test_schema_ontology_through_handle;
          Alcotest.test_case "shortest/irredundant" `Quick test_shortest;
          Alcotest.test_case "shortest/exact" `Quick test_shortest_exact;
          Alcotest.test_case "exact concept minimisation" `Quick test_minimise_concept_exact;
          Alcotest.test_case "strong" `Quick test_strong;
        ] );
      ( "validation",
        [ Alcotest.test_case "why-not instance" `Quick test_whynot_validation ] );
      ( "reduction",
        [
          Alcotest.test_case "faithfulness" `Quick test_reduction_faithful;
          Alcotest.test_case "Algorithm 1 over 140 answers" `Quick
            test_exhaustive_many_answers;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "empty answers" `Quick test_empty_answer_set;
          Alcotest.test_case "unary query" `Quick test_unary_whynot;
          Alcotest.test_case "out-of-adom tuple" `Quick test_missing_constants_outside_adom;
          Alcotest.test_case "O_S[K] selection-free" `Quick test_schema_mge_selection_free_fragment;
          Alcotest.test_case "strong complete on views" `Quick test_strong_views_only_complete;
          Alcotest.test_case "ranked MGEs" `Quick test_ranked;
        ] );
      ( "lazy",
        [
          Alcotest.test_case "enumeration" `Quick test_lazy_enumeration;
          QCheck_alcotest.to_alcotest prop_lazy_agrees;
        ] );
      ( "why (dual)",
        [
          Alcotest.test_case "explanations" `Quick test_why_explanations;
          Alcotest.test_case "validation" `Quick test_why_validation;
        ] );
      ("properties", qcheck_cases);
    ]
