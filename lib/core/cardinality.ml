open Whynot_relational

let pool_list wn = Value_set.elements (Whynot.constant_pool wn)

let concept_degree o pool c = List.length (List.filter (o.Ontology.mem c) pool)

let explanation_degree o pool e =
  List.fold_left (fun acc c -> acc + concept_degree o pool c) 0 e

let degree o wn e =
  (* A concept whose membership holds for every probe and is known infinite
     cannot be distinguished through [mem]; over finite ontologies this
     does not arise, and for derived ontologies the caller should treat
     full-pool concepts with care. We simply count pool members. *)
  Some (explanation_degree o (pool_list wn) e)

(* A position's candidates with their degrees, by decreasing degree
   (stable, so ties keep the ontology's order): good solutions come
   early. *)
let sorted_by_degree o pool cands =
  let ds = Array.map (fun (c, ks) -> (c, ks, concept_degree o pool c)) cands in
  Array.stable_sort (fun (_, _, d1) (_, _, d2) -> Int.compare d2 d1) ds;
  ds

(* Branch-and-bound over Algorithm 1's plan: a branch is cut when the
   positions left cannot kill every remaining answer, or cannot add
   enough degree to beat the best explanation found so far. *)
let branch_and_bound p positions =
  let m = Array.length positions in
  (* [bound.(j)]: the most degree positions [j..] can add. *)
  let bound = Array.make (m + 1) 0 in
  for j = m - 1 downto 0 do
    bound.(j) <-
      Array.fold_left (fun acc (_, _, d) -> max acc d) 0 positions.(j)
      + bound.(j + 1)
  done;
  let best = ref None and best_score = ref min_int in
  let rec search j killed score chosen =
    if j < m then
      Array.iter
        (fun (c, ks, d) ->
           let killed' = Exhaustive.union killed ks in
           if
             score + d + bound.(j + 1) > !best_score
             && Exhaustive.completable p (j + 1) killed'
           then search (j + 1) killed' (score + d) (c :: chosen))
        positions.(j)
    else if Exhaustive.completable p m killed && score > !best_score then begin
      best_score := score;
      best := Some (List.rev chosen)
    end
  in
  search 0 (Exhaustive.nothing p) 0 [];
  !best

let maximal o wn =
  Result.map
    (fun p ->
       let pool = pool_list wn in
       branch_and_bound p
         (Array.map (sorted_by_degree o pool) (Exhaustive.candidates p)))
    (Exhaustive.plan_of o wn)

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
