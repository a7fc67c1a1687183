open Whynot_relational

module Int_set = Set.Make (Int)

let pool_list wn = Value_set.elements (Whynot.constant_pool wn)

let concept_degree o pool c =
  List.length (List.filter (fun v -> o.Ontology.mem c v) pool)

let explanation_degree o pool e =
  List.fold_left (fun acc c -> acc + concept_degree o pool c) 0 e

let degree o wn e =
  (* A concept whose membership holds for every probe and is known infinite
     cannot be distinguished through [mem]; over finite ontologies this
     does not arise, and for derived ontologies the caller should treat
     full-pool concepts with care. We simply count pool members. *)
  Some (explanation_degree o (pool_list wn) e)

let finite o k =
  match o.Ontology.concepts with
  | Some cs -> k cs
  | None ->
    Error
      (`Infinite_ontology
         ("Cardinality: ontology " ^ o.Ontology.name ^ " is not finite"))

(* Candidate concepts per position with kill-sets and degrees. *)
let prepared o cs wn =
  let pool = pool_list wn in
  let answers = Relation.to_list wn.Whynot.answers in
  List.mapi
    (fun pos a ->
       List.filter_map
         (fun c ->
            if o.Ontology.mem c a then
              let kills =
                List.mapi
                  (fun i t ->
                     if o.Ontology.mem c (Tuple.get t (pos + 1)) then None
                     else Some i)
                  answers
                |> List.filter_map Fun.id |> Int_set.of_list
              in
              Some (c, kills, concept_degree o pool c)
            else None)
         cs)
    (Whynot.missing_values wn)

let suffix_reach per_position =
  let rec go = function
    | [] -> [ Int_set.empty ]
    | cands :: rest ->
      let tails = go rest in
      let reach =
        List.fold_left
          (fun acc (_, ks, _) -> Int_set.union acc ks)
          (List.hd tails) cands
      in
      reach :: tails
  in
  go per_position

let all_answers wn =
  Int_set.of_list (List.init (Relation.cardinal wn.Whynot.answers) (fun i -> i))

let maximal_branch_and_bound o cs wn =
  let per_position = prepared o cs wn in
  if List.exists (fun cands -> cands = []) per_position then None
  else
    let all = all_answers wn in
    let reaches = suffix_reach per_position in
    (* Sort candidates by decreasing degree so good solutions come early. *)
    let per_position =
      List.map
        (List.sort (fun (_, _, d1) (_, _, d2) -> Stdlib.compare d2 d1))
        per_position
    in
    let suffix_max_degree =
      let rec go = function
        | [] -> [ 0 ]
        | cands :: rest ->
          let tails = go rest in
          let best =
            List.fold_left (fun acc (_, _, d) -> max acc d) 0 cands
          in
          (best + List.hd tails) :: tails
      in
      List.tl (go per_position)
    in
    let best = ref None in
    let best_score = ref min_int in
    let rec search killed score chosen cands reaches bounds =
      match cands, reaches, bounds with
      | [], _, _ ->
        if Int_set.equal killed all && score > !best_score then begin
          best_score := score;
          best := Some (List.rev chosen)
        end
      | options :: rest, _ :: rest_reach, bound :: rest_bounds ->
        let reachable =
          match rest_reach with r :: _ -> r | [] -> Int_set.empty
        in
        List.iter
          (fun (c, ks, d) ->
             let killed' = Int_set.union killed ks in
             if
               score + d + bound > !best_score
               && Int_set.subset (Int_set.diff all killed') reachable
             then
               search killed' (score + d) (c :: chosen) rest rest_reach
                 rest_bounds)
          options
      | _ -> ()
    in
    search Int_set.empty 0 [] per_position reaches suffix_max_degree;
    !best

let maximal o wn = finite o (fun cs -> Ok (maximal_branch_and_bound o cs wn))

(* Per position, the highest-degree candidate that keeps the tuple
   completable: the first explanation Algorithm 1 meets when every
   position lists its candidates by decreasing degree (stable, so ties
   keep the ontology's order). *)
let greedy o wn =
  let pool = pool_list wn in
  let by_degree cs =
    List.map (fun c -> (c, concept_degree o pool c)) cs
    |> List.stable_sort (fun (_, d1) (_, d2) -> Int.compare d2 d1)
    |> List.map fst
  in
  Result.map
    (fun s -> Option.map fst (Seq.uncons s))
    (Exhaustive.explanations_seq
       { o with concepts = Option.map by_degree o.Ontology.concepts }
       wn)

let ranked o wn =
  let pool = pool_list wn in
  Result.map
    (fun mges ->
       List.map (fun e -> (e, explanation_degree o pool e)) mges
       |> List.sort (fun (_, d1) (_, d2) -> Stdlib.compare d2 d1))
    (Exhaustive.all_mges o wn)
