type fragment =
  [ `Minimal
  | `Selection_free
  ]

module Obs = Whynot_obs.Obs

let c_concepts =
  Obs.counter "mge.schema.concepts"
    ~doc:"finite schema-ontology concept pool sizes enumerated"

let ontology ?handle fragment schema wn =
  let pool = Whynot.constant_pool ?handle wn in
  let o =
    Ontology.of_schema_finite
      ~minimal_only:(fragment = `Minimal)
      ?handle schema wn.Whynot.instance pool
  in
  (match o.Ontology.concepts with
   | Some cs -> Obs.add c_concepts (List.length cs)
   | None -> ());
  o

let one_mge fragment schema wn =
  Exhaustive.one_mge (ontology fragment schema wn) wn

let all_mges fragment schema wn =
  Exhaustive.all_mges (ontology fragment schema wn) wn
