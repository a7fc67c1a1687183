(* External ontologies via OBDA (§4.1, Example 4.5).

   The DL-LiteR TBox and GAV mappings of Figure 4 induce an S-ontology
   whose concepts are the basic concept expressions of the TBox and whose
   extensions are certain extensions computed from the mappings — all in
   polynomial time (Theorems 4.1/4.2). We then answer the same why-not
   question as the quickstart, now with TBox-level concepts.

   Run with: dune exec examples/obda_cities.exe *)

open Whynot_relational
open Whynot_dllite
open Whynot_core
module Cities = Whynot_workload.Cities

let section title = Format.printf "@.== %s ==@." title

let () =
  section "Figure 4: the DL-LiteR TBox";
  Format.printf "%a@." Tbox.pp Cities.obda_tbox;

  section "Figure 4: the GAV mapping assertions";
  List.iter
    (fun m -> Format.printf "%a@." Whynot_obda.Mapping.pp m)
    Cities.obda_mappings;

  section "The induced S-ontology (Definition 4.4)";
  let induced = Whynot_obda.Induced.prepare Cities.obda_spec Cities.instance in
  (match Whynot_obda.Induced.consistent induced with
   | Ok () -> Format.printf "retrieved assertions: consistent with the TBox@."
   | Error msg -> Format.printf "INCONSISTENT: %s@." msg);
  let concepts = Whynot_obda.Induced.concepts induced in
  Format.printf "%d basic concepts occur in T@." (List.length concepts);
  List.iter
    (fun c ->
       Format.printf "ext(%a) = %a@." Dl.pp_basic c Value_set.pp
         (Whynot_obda.Induced.extension induced c))
    concepts;

  section "Why-not (Amsterdam, New York) with TBox concepts (Example 4.5)";
  let ontology = Ontology.of_obda induced in
  let wn =
    Whynot.make_exn ~schema:Cities.schema ~instance:Cities.instance
      ~query:Cities.two_hop_query ~missing:Cities.missing_tuple ()
  in
  let named =
    [
      ("E1", [ Dl.Atom "EU-City"; Dl.Atom "N.A.-City" ]);
      ("E2", [ Dl.Atom "Dutch-City"; Dl.Atom "N.A.-City" ]);
      ("E3", [ Dl.Atom "EU-City"; Dl.Atom "US-City" ]);
      ("E4", [ Dl.Atom "Dutch-City"; Dl.Atom "US-City" ]);
    ]
  in
  List.iter
    (fun (name, e) ->
       Format.printf "%s = %a : explanation? %b  most general? %b@." name
         (Explanation.pp ontology) e
         (Explanation.is_explanation ontology wn e)
         (Result.get_ok (Exhaustive.check_mge ontology wn e)))
    named;

  section "All most-general explanations (Algorithm 1 over O_B)";
  List.iter
    (fun e -> Format.printf "MGE: %a@." (Explanation.pp ontology) e)
    (Result.get_ok (Exhaustive.all_mges ontology wn));

  Format.printf
    "@.E1 = <EU-City, N.A.-City> is the most general of E1..E4, as in the@.\
     paper: Amsterdam is certain to be an EU city, New York a North@.\
     American one, and no such pair is two train hops apart.@.";

  section "Queries posed against the ontology (§7, via PerfectRef)";
  (* The same why-not question, but with the query phrased over the TBox
     vocabulary and answered under certain-answer semantics. *)
  let ontology_query =
    Cq.make
      ~head:[ Cq.Var "x"; Cq.Var "y" ]
      ~atoms:
        [
          { Cq.rel = "connected"; args = [ Cq.Var "x"; Cq.Var "z" ] };
          { Cq.rel = "connected"; args = [ Cq.Var "z"; Cq.Var "y" ] };
        ]
      ()
  in
  let rewriting =
    Whynot_obda.Rewrite.rewrite Cities.obda_tbox ontology_query
  in
  Format.printf "PerfectRef rewriting has %d disjunct(s)@."
    (List.length rewriting.Ucq.disjuncts);
  (match
     Obda_whynot.explain induced ~query:ontology_query
       ~missing:Cities.missing_tuple
   with
   | Ok mges ->
     List.iter
       (fun e -> Format.printf "ontology-level MGE: %a@." (Explanation.pp ontology) e)
       mges
   | Error e -> Format.printf "error: %s@." (Whynot_error.to_string e))
