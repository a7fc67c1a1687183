(* Tests for the workload generators: every generated artifact must satisfy
   its invariants (schema constraints, well-formed why-not questions), so
   the benchmark harness measures algorithms on legal inputs. *)

open Whynot_relational
module Generate = Whynot_workload.Generate
module Retail = Whynot_workload.Retail
module Cities = Whynot_workload.Cities
module Ontology = Whynot_core.Ontology

let test_retail () =
  let instance, query, missing = Retail.whynot_headsets () in
  (match Schema.satisfies Retail.schema instance with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "retail constraints: %s" msg);
  let answers = Cq.eval query instance in
  Alcotest.(check bool) "missing tuple absent" false
    (Relation.mem (Tuple.of_list missing) answers);
  Alcotest.(check bool) "some answers exist" true
    (Relation.cardinal answers > 0);
  (* The zero-quantity Stock row must not surface in InStock. *)
  let in_stock = Option.get (Instance.relation instance "InStock") in
  Alcotest.(check bool) "qty=0 filtered" false
    (Relation.mem (Tuple.of_list [ Value.str "P0034"; Value.str "S020" ]) in_stock)

let test_retail_constraints_directly () =
  (* Re-check every declared constraint through the Fd/Ind primitives, not
     just the aggregate [Schema.satisfies] verdict. *)
  let rel name = Option.get (Instance.relation Retail.instance name) in
  List.iter
    (fun (fd : Fd.t) ->
       Alcotest.(check bool)
         (Format.asprintf "%a" Fd.pp fd)
         true
         (Fd.satisfied_in fd (rel fd.Fd.rel)))
    (Schema.fds Retail.schema);
  List.iter
    (fun (ind : Ind.t) ->
       Alcotest.(check bool)
         (Format.asprintf "%a" Ind.pp ind)
         true
         (Ind.satisfied_in ind ~lhs:(rel ind.Ind.lhs_rel)
            ~rhs:(rel ind.Ind.rhs_rel)))
    (Schema.inds Retail.schema);
  (* The bluetooth headset is classified as electronics by the view. *)
  let electronics = rel "Electronics" in
  Alcotest.(check bool) "P0034 in Electronics" true
    (Relation.mem (Tuple.of_list [ Value.str "P0034" ]) electronics)

let test_cities_figures () =
  (match Schema.satisfies Cities.schema Cities.instance with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "figure 2 constraints: %s" msg);
  (* Example 3.4: q(I) has exactly four answers, and the why-not tuple is
     not among them. *)
  let answers = Cq.eval Cities.two_hop_query Cities.instance in
  Alcotest.(check bool) "answers are Example 3.4's" true
    (Relation.equal answers Cities.answers);
  Alcotest.(check int) "four answers" 4 (Relation.cardinal answers);
  Alcotest.(check bool) "(Amsterdam, New York) missing" false
    (Relation.mem (Tuple.of_list Cities.missing_tuple) answers);
  (* The published instance is exactly the base data plus materialised
     views — nothing hand-edited. *)
  Alcotest.(check bool) "instance = complete(base)" true
    (Instance.equal
       (Schema.complete Cities.schema Cities.base_instance)
       Cities.instance);
  let fd =
    match Schema.fds Cities.schema with [ fd ] -> fd | _ -> Alcotest.fail "one FD"
  in
  Alcotest.(check bool) "country -> continent holds" true
    (Fd.satisfied_in fd (Option.get (Instance.relation Cities.instance fd.Fd.rel)))

let test_cities_hand_ontology () =
  let o =
    Ontology.of_extensions ~name:"figure-3" ~subsumptions:Cities.hand_hasse
      ~extensions:
        (List.map
           (fun (c, vs) -> (c, Value_set.of_strings vs))
           Cities.hand_extensions)
  in
  let concepts = Option.get o.Ontology.concepts in
  List.iter
    (fun c ->
       Alcotest.(check bool) (c ^ " declared") true (List.mem c concepts))
    Cities.hand_concepts;
  (* Figure 3 is consistent: extensions grow monotonically along the Hasse
     diagram, probed on every constant the figure mentions. *)
  let probes =
    List.concat_map
      (fun (_, vs) -> List.map Value.str vs)
      Cities.hand_extensions
  in
  Alcotest.(check int) "no consistency violations" 0
    (List.length (Result.get_ok (Ontology.consistency_violations o probes)))

let test_cities_obda () =
  let induced = Whynot_obda.Induced.prepare Cities.obda_spec Cities.instance in
  (match Whynot_obda.Induced.consistent induced with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "figure 4 retrieval inconsistent: %s" msg);
  let ext name = Whynot_obda.Induced.extension induced (Whynot_dllite.Dl.Atom name) in
  Alcotest.(check bool) "Amsterdam is a certain Dutch-City" true
    (Value_set.mem Cities.amsterdam (ext "Dutch-City"));
  Alcotest.(check bool) "Dutch-City closure reaches City" true
    (Value_set.mem Cities.amsterdam (ext "City"));
  Alcotest.(check bool) "Amsterdam is no N.A.-City" false
    (Value_set.mem Cities.amsterdam (ext "N.A.-City"));
  Alcotest.(check bool) "New York is a certain N.A.-City" true
    (Value_set.mem Cities.new_york (ext "N.A.-City"));
  (* Differential tie-in: the forward-chained certain extensions agree
     with the proptest chase oracle on the paper's own specification. *)
  List.iter
    (fun b ->
       Alcotest.(check bool)
         (Format.asprintf "chase agrees on %a" Whynot_dllite.Dl.pp_basic b)
         true
         (Value_set.equal
            (Whynot_obda.Induced.extension induced b)
            (Whynot_proptest.Oracle.chase_certain_extension Cities.obda_spec
               Cities.instance b)))
    (Whynot_obda.Induced.concepts induced)

let cities_like_sweep =
  QCheck2.Test.make ~name:"cities_like legal across random seeds" ~count:25
    QCheck2.Gen.(
      triple (int_range 0 10000) (int_range 4 40) (int_range 2 6))
    (fun (seed, n_cities, n_countries) ->
       let schema, inst =
         Generate.cities_like ~seed ~n_cities ~n_countries
           ~n_connections:(2 * n_cities) ()
       in
       (match Schema.satisfies schema inst with
        | Ok () -> ()
        | Error msg -> QCheck2.Test.fail_reportf "seed=%d: %s" seed msg);
       let wn = Generate.cities_whynot (schema, inst) in
       Whynot_core.Whynot.arity wn = 2
       && not
            (Relation.mem wn.Whynot_core.Whynot.missing
               wn.Whynot_core.Whynot.answers))

let test_cities_like_legal () =
  List.iter
    (fun (n, seed) ->
       let schema, inst =
         Generate.cities_like ~seed ~n_cities:n ~n_countries:(max 2 (n / 5))
           ~n_connections:(2 * n) ()
       in
       (match Schema.satisfies schema inst with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "n=%d seed=%d: %s" n seed msg);
       let wn = Generate.cities_whynot (schema, inst) in
       Alcotest.(check bool) "why-not well-formed" true
         (Whynot_core.Whynot.arity wn = 2))
    [ (10, 1); (20, 2); (40, 3); (80, 4); (30, 99) ]

let test_table1_schemas () =
  List.iter
    (fun p ->
       let s = Generate.wide_schema ~positions:p in
       Alcotest.(check bool) "positions >= requested" true
         (List.length (Schema.positions s) >= p))
    [ 4; 9; 16 ];
  let fd_s = Generate.fd_schema ~positions:8 in
  Alcotest.(check int) "fds" 4 (List.length (Schema.fds fd_s));
  let ind_s = Generate.ind_chain_schema ~n_relations:5 in
  Alcotest.(check int) "inds" 4 (List.length (Schema.inds ind_s));
  let v_s = Generate.ucq_view_schema ~n_disjuncts:3 in
  Alcotest.(check bool) "view declared" true (Schema.has_views v_s);
  let n_s = Generate.nested_view_schema ~depth:3 in
  Alcotest.(check bool) "nested not flat" false
    (View.is_flat (Schema.views n_s));
  (* Unfolding V_depth doubles atoms per level. *)
  let q =
    Whynot_concept.To_query.query n_s
      (Whynot_concept.Ls.proj ~rel:"V3" ~attr:1 ())
  in
  (match View.unfold_cq (Schema.views n_s) q with
   | [ unfolded ] ->
     Alcotest.(check int) "2^3 base atoms" 8 (List.length unfolded.Cq.atoms)
   | _ -> Alcotest.fail "single disjunct expected")

let test_random_concepts () =
  let schema = Generate.wide_schema ~positions:8 in
  let c1 = Generate.random_selection_free_concept ~seed:1 schema ~conjuncts:3 () in
  Alcotest.(check bool) "selection-free" true (Whynot_concept.Ls.is_selection_free c1);
  let c2 = Generate.random_selection_concept ~seed:2 schema ~conjuncts:2 () in
  Alcotest.(check bool) "has selections" false
    (Whynot_concept.Ls.is_selection_free c2);
  (* Determinism: the same seed yields the same concept. *)
  Alcotest.(check bool) "deterministic" true
    (Whynot_concept.Ls.equal c1
       (Generate.random_selection_free_concept ~seed:1 schema ~conjuncts:3 ()))

let test_random_hand_ontology () =
  let o = Generate.random_hand_ontology ~seed:5 ~n_concepts:12 ~n_constants:9 () in
  let concepts = Option.get o.Whynot_core.Ontology.concepts in
  Alcotest.(check int) "12 concepts" 12 (List.length concepts);
  (* Monotone extensions: consistency violations are empty on the constant
     pool. *)
  let probes = List.init 9 (fun k -> Value.str (Printf.sprintf "k%d" k)) in
  Alcotest.(check int) "consistent" 0
    (List.length (Result.get_ok (Whynot_core.Ontology.consistency_violations o probes)))

let test_random_tbox () =
  let tb = Generate.random_tbox ~seed:3 ~n_atoms:6 ~n_roles:2 ~n_axioms:12 () in
  Alcotest.(check int) "axiom count" 12 (Whynot_dllite.Tbox.size tb);
  (* Saturating a random TBox never raises and stays sound on its own
     canonical model. *)
  let r = Whynot_dllite.Reasoner.saturate tb in
  Alcotest.(check bool) "canonical model satisfies" true
    (Whynot_dllite.Interp.satisfies (Whynot_dllite.Canonical.build r) tb)

let test_arity_whynot () =
  List.iter
    (fun arity ->
       let wn = Generate.arity_whynot ~arity ~n_answers:5 ~n_constants:5 () in
       Alcotest.(check int) "arity" arity (Whynot_core.Whynot.arity wn);
       Alcotest.(check int) "answers are the diagonal" 5
         (Relation.cardinal wn.Whynot_core.Whynot.answers))
    [ 1; 2; 3; 4 ]

let () =
  Alcotest.run "workload"
    [
      ( "retail",
        [
          Alcotest.test_case "invariants" `Quick test_retail;
          Alcotest.test_case "constraints directly" `Quick
            test_retail_constraints_directly;
        ] );
      ( "cities",
        [
          Alcotest.test_case "figures 1-2 / example 3.4" `Quick
            test_cities_figures;
          Alcotest.test_case "figure 3 hand ontology" `Quick
            test_cities_hand_ontology;
          Alcotest.test_case "figure 4 obda" `Quick test_cities_obda;
        ] );
      ( "generators",
        [
          Alcotest.test_case "cities_like legal" `Quick test_cities_like_legal;
          QCheck_alcotest.to_alcotest ~speed_level:`Quick cities_like_sweep;
          Alcotest.test_case "table-1 schemas" `Quick test_table1_schemas;
          Alcotest.test_case "random concepts" `Quick test_random_concepts;
          Alcotest.test_case "random hand ontology" `Quick test_random_hand_ontology;
          Alcotest.test_case "random tbox" `Quick test_random_tbox;
          Alcotest.test_case "arity why-not" `Quick test_arity_whynot;
        ] );
    ]
