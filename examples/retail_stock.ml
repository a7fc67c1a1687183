(* The introduction's motivating scenario: a retail database where a user
   asks why the pair (P0034, S012) — a bluetooth headset and a San
   Francisco store — is not among the products-in-stock pairs.

   With a product/store ontology, the why-not framework answers at the
   right abstraction level: "no San Francisco store stocks any bluetooth
   headset" (and, most generally, none in California).

   Run with: dune exec examples/retail_stock.exe *)

open Whynot_relational
open Whynot_core
module Retail = Whynot_workload.Retail

let section title = Format.printf "@.== %s ==@." title

let () =
  let instance, query, missing = Retail.whynot_headsets () in
  section "The retail database";
  Format.printf "%a" Instance.pp
    (Instance.restrict [ "Products"; "Stores"; "Stock" ] instance);

  section "The query and the why-not question";
  Format.printf "q(pid, sid) = exists qty. Stock(pid, sid, qty) & qty > 0@.";
  let wn = Whynot.make_exn ~schema:Retail.schema ~instance ~query ~missing () in
  Format.printf "%a@." Whynot.pp wn;

  section "The product/store ontology";
  let ontology =
    Ontology.of_extensions ~name:"retail"
      ~subsumptions:Retail.hand_ontology_subsumptions
      ~extensions:
        (List.map
           (fun (c, ext) -> (c, Value_set.of_strings ext))
           Retail.hand_ontology_extensions)
  in
  List.iter
    (fun (c, ext) ->
       Format.printf "ext(%s) = {%s}@." c (String.concat ", " ext))
    Retail.hand_ontology_extensions;

  section "Most-general explanations";
  let mges = Result.get_ok (Exhaustive.all_mges ontology wn) in
  List.iter
    (fun e -> Format.printf "MGE: %a@." (Explanation.pp ontology) e)
    mges;
  Format.printf
    "@.Reading: the headset is missing from the result not for a@.\
     row-level reason but because no Californian store stocks any@.\
     bluetooth headset at all — the high-level explanation the paper's@.\
     introduction motivates.@.";

  section "Derived-ontology view of the same question (Algorithm 2)";
  let e = Incremental.one_mge ~variant:Incremental.With_selections wn in
  let o_i = Ontology.of_instance instance in
  Format.printf "MGE w.r.t. O_I: %a@." (Explanation.pp o_i) e
