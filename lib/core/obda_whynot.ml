let make induced ~query ~missing =
  let spec = Whynot_obda.Induced.spec induced in
  if not (Whynot_obda.Rewrite.is_ontology_query (Whynot_obda.Spec.tbox spec) query)
  then Error (`Invalid_whynot "the query is not over the ontology's signature")
  else
    match Whynot_obda.Induced.consistent induced with
    | Error msg -> Error (`Inconsistent ("inconsistent retrieved assertions: " ^ msg))
    | Ok () ->
      let answers = Whynot_obda.Rewrite.certain_answers induced query in
      Whynot.make ~answers
        ~instance:(Whynot_obda.Induced.instance induced)
        ~query ~missing ()

let explain induced ~query ~missing =
  Result.bind (make induced ~query ~missing)
    (Exhaustive.all_mges (Ontology.of_obda induced))
