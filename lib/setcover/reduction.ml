open Whynot_relational

type gadget = {
  ontology : string Whynot_core.Ontology.t;
  whynot : Whynot_core.Whynot.t;
  element_constant : int -> Value.t;
  missing_constant : Value.t;
}

let element_constant u = Value.Str (Printf.sprintf "x%d" u)
let missing_constant = Value.Str "a"

let chain_query m =
  let var i = Cq.Var (Printf.sprintf "v%d" i) in
  let head = List.init m (fun i -> var (i + 1)) in
  let atoms =
    if m = 1 then [ { Cq.rel = "E"; args = [ var 1; var 1 ] } ]
    else
      List.init (m - 1) (fun i ->
          { Cq.rel = "E"; args = [ var (i + 1); var (i + 2) ] })
  in
  Cq.make ~head ~atoms ()

let build sc ~slots =
  if slots < 1 then invalid_arg "Reduction.build: slots must be >= 1";
  if sc.Setcover.universe = [] then
    invalid_arg "Reduction.build: empty universe";
  let instance =
    Instance.of_facts
      [
        ( "E",
          List.map
            (fun u -> [ element_constant u; element_constant u ])
            sc.Setcover.universe );
      ]
  in
  let query = chain_query slots in
  let whynot =
    Whynot_core.Whynot.make_exn ~instance ~query
      ~missing:(List.init slots (fun _ -> missing_constant))
      ()
  in
  let extensions =
    List.map
      (fun (name, elems) ->
         ( name,
           Value_set.of_list
             (missing_constant
              :: List.filter_map
                   (fun u ->
                      if List.mem u elems then None
                      else Some (element_constant u))
                   sc.Setcover.universe) ))
      sc.Setcover.sets
  in
  let ontology =
    Whynot_core.Ontology.of_extensions ~name:"set-cover-gadget" ~subsumptions:[]
      ~extensions
  in
  { ontology; whynot; element_constant; missing_constant }

let explanation_to_sets e = e

let sets_to_explanation ~slots names =
  match names with
  | [] -> invalid_arg "Reduction.sets_to_explanation: empty cover"
  | first :: _ ->
    if List.length names > slots then
      invalid_arg "Reduction.sets_to_explanation: cover exceeds slots"
    else
      names @ List.init (slots - List.length names) (fun _ -> first)
