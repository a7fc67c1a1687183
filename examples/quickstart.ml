(* Quickstart: the paper's running example end to end.

   Loads the schema of Figure 1 and the instance of Figure 2, asks the
   why-not question of Example 3.4 ("why is (Amsterdam, New York) not
   connected in two hops?"), and explains it with the hand ontology of
   Figure 3.

   Run with: dune exec examples/quickstart.exe *)

open Whynot_relational
open Whynot_core
module Cities = Whynot_workload.Cities

let section title = Format.printf "@.== %s ==@." title

let () =
  section "Figure 1: the schema";
  Format.printf "%a" Schema.pp Cities.schema;

  section "Figure 2: the instance (views materialised)";
  Format.printf "%a" Instance.pp Cities.instance;

  section "Example 3.4: the query and its answers";
  Format.printf "q(x,y) = exists z. TC(x,z) & TC(z,y)@.";
  Format.printf "q(I) = @[<v>%a@]@." Relation.pp Cities.answers;

  let wn =
    Whynot.make_exn ~schema:Cities.schema ~instance:Cities.instance
      ~query:Cities.two_hop_query ~missing:Cities.missing_tuple ()
  in
  Format.printf "@.%a@." Whynot.pp wn;

  section "Figure 3: the hand ontology";
  let ontology =
    Ontology.of_extensions ~name:"figure3"
      ~subsumptions:Cities.hand_hasse
      ~extensions:
        (List.map
           (fun (c, ext) -> (c, Value_set.of_strings ext))
           Cities.hand_extensions)
  in
  List.iter
    (fun (c, ext) ->
       Format.printf "ext(%s) = {%s}@." c (String.concat ", " ext))
    Cities.hand_extensions;

  section "Explanations E1..E4 of Example 3.4";
  let named =
    [
      ("E1", [ "Dutch-City"; "East-Coast-City" ]);
      ("E2", [ "Dutch-City"; "US-City" ]);
      ("E3", [ "European-City"; "East-Coast-City" ]);
      ("E4", [ "European-City"; "US-City" ]);
    ]
  in
  List.iter
    (fun (name, e) ->
       Format.printf "%s = %a : explanation? %b  most general? %b@." name
         (Explanation.pp ontology) e
         (Explanation.is_explanation ontology wn e)
         (Result.get_ok (Exhaustive.check_mge ontology wn e)))
    named;

  section "All most-general explanations (Algorithm 1)";
  List.iter
    (fun e -> Format.printf "MGE: %a@." (Explanation.pp ontology) e)
    (Result.get_ok (Exhaustive.all_mges ontology wn));
  Format.printf
    "@.The most general of E1..E4 is E4: Amsterdam is a European city,@.\
     New York is a US city, and no European city reaches a US city in@.\
     two train hops.@."
