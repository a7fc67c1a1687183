open Whynot_relational
module Obs = Whynot_obs.Obs

let c_candidates =
  Obs.counter "mge.exhaustive.candidates"
    ~doc:"Algorithm 1 per-position candidate concepts retained"

let c_tuples =
  Obs.counter "mge.exhaustive.tuples"
    ~doc:"Algorithm 1 candidate explanation tuples examined"

let concepts_exn o =
  match o.Ontology.concepts with
  | Some cs -> cs
  | None -> invalid_arg "Exhaustive: the ontology must be finite"

(* Per-position candidate concepts: those whose extension contains the
   corresponding component of the missing tuple (line 1 of Algorithm 1). *)
let candidates o wn =
  let cs = concepts_exn o in
  let per_position =
    List.map
      (fun a -> List.filter (fun c -> o.Ontology.mem c a) cs)
      (Whynot.missing_values wn)
  in
  List.iter (fun cands -> Obs.add c_candidates (List.length cands)) per_position;
  per_position

(* The kill-set of a concept at a position: which answer tuples have their
   component outside the concept's extension. Explanations are exactly the
   tuples of candidates whose kill-sets cover all answers. *)
let kill_set o wn position c =
  let answers = Relation.to_list wn.Whynot.answers in
  List.mapi (fun i t -> (i, not (o.Ontology.mem c (Tuple.get t (position + 1))))) answers
  |> List.filter_map (fun (i, killed) -> if killed then Some i else None)

module Int_set = Set.Make (Int)

let product_fold f acc per_position =
  let rec go acc chosen = function
    | [] -> f acc (List.rev chosen)
    | cands :: rest ->
      List.fold_left (fun acc c -> go acc (c :: chosen) rest) acc cands
  in
  go acc [] per_position

let enumerate_explanations o wn per_position =
  let n_answers = Relation.cardinal wn.Whynot.answers in
  let all = Int_set.of_list (List.init n_answers (fun i -> i)) in
  let with_kills =
    List.mapi
      (fun pos cands ->
         List.map (fun c -> (c, Int_set.of_list (kill_set o wn pos c))) cands)
      per_position
  in
  product_fold
    (fun acc chosen ->
       Obs.incr c_tuples;
       let killed =
         List.fold_left
           (fun s (_, ks) -> Int_set.union s ks)
           Int_set.empty chosen
       in
       if Int_set.equal killed all then List.map fst chosen :: acc else acc)
    [] with_kills

let keep_most_general o explanations =
  (* Drop explanations strictly below another; keep one representative per
     equivalence class. *)
  let maximal =
    List.filter
      (fun e ->
         not
           (List.exists
              (fun e' -> Explanation.strictly_less_general o e e')
              explanations))
      explanations
  in
  List.fold_left
    (fun acc e ->
       if List.exists (fun e' -> Explanation.equivalent o e e') acc then acc
       else e :: acc)
    [] maximal
  |> List.rev

let all_mges_unpruned_exn o wn =
  keep_most_general o (enumerate_explanations o wn (candidates o wn))

(* Preprocessing for the pruned variant: per position, drop a candidate
   when another candidate subsumes it and kills at least the same answers —
   the dropped one can never appear in a most-general explanation that the
   keeper cannot match or beat. *)
let prune_candidates o wn per_position =
  List.mapi
    (fun pos cands ->
       let with_kills =
         List.map (fun c -> (c, Int_set.of_list (kill_set o wn pos c))) cands
       in
       let dominated (c, ks) =
         List.exists
           (fun (c', ks') ->
              (not (o.Ontology.equal c c'))
              && o.Ontology.subsumes c c'
              && (not (o.Ontology.subsumes c' c))
              && Int_set.subset ks ks')
           with_kills
       in
       List.map fst (List.filter (fun ck -> not (dominated ck)) with_kills))
    per_position

let all_mges_exn o wn =
  let per_position = prune_candidates o wn (candidates o wn) in
  keep_most_general o (enumerate_explanations o wn per_position)

(* Existence: backtracking over positions accumulating killed answers, with
   the pruning rule that the remaining positions must be able to cover the
   still-alive answers. *)
let exists_explanation_exn o wn =
  let per_position = candidates o wn in
  if List.length per_position <> Whynot.arity wn then false
  else if List.exists (fun cands -> cands = []) per_position then false
  else
    let n_answers = Relation.cardinal wn.Whynot.answers in
    let all = Int_set.of_list (List.init n_answers (fun i -> i)) in
    let with_kills =
      List.mapi
        (fun pos cands ->
           List.map (fun c -> Int_set.of_list (kill_set o wn pos c)) cands)
        per_position
    in
    (* Union of everything a position can still kill. *)
    let position_reach =
      List.map
        (fun kss -> List.fold_left Int_set.union Int_set.empty kss)
        with_kills
    in
    let rec suffix_reach = function
      | [] -> [ Int_set.empty ]
      | r :: rest ->
        let tails = suffix_reach rest in
        Int_set.union r (List.hd tails) :: tails
    in
    let reaches = suffix_reach position_reach in
    let rec search killed kss reaches =
      match kss, reaches with
      | [], _ -> Int_set.equal killed all
      | kill_options :: rest, _ :: rest_reach ->
        let reachable =
          match rest_reach with
          | r :: _ -> r
          | [] -> Int_set.empty
        in
        List.exists
          (fun ks ->
             let killed' = Int_set.union killed ks in
             Int_set.subset (Int_set.diff all killed') reachable
             && search killed' rest rest_reach)
          kill_options
      | _ :: _, [] -> false
    in
    search Int_set.empty with_kills reaches

let strict_upgrades o c =
  List.filter
    (fun c' ->
       o.Ontology.subsumes c c' && not (o.Ontology.subsumes c' c))
    (concepts_exn o)

(* The first strict single-position upgrade, in position order, that keeps
   the frontier's tuple an explanation. *)
let upgrade_once o f =
  let rec try_positions j = function
    | [] -> None
    | c :: rest ->
      (match
         List.find_opt (Explanation.Frontier.accepts f j) (strict_upgrades o c)
       with
       | Some c' -> Some (j, c')
       | None -> try_positions (j + 1) rest)
  in
  try_positions 0 (Explanation.Frontier.concepts f)

let rec climb o f =
  match upgrade_once o f with
  | None -> Explanation.Frontier.concepts f
  | Some (j, c') ->
    Explanation.Frontier.replace f j c';
    climb o f

let generalise_exn o wn e =
  match Explanation.Frontier.make o wn e with
  | None -> invalid_arg "Exhaustive.generalise: not an explanation"
  | Some f -> climb o f

let check_mge_exn o wn e =
  match Explanation.Frontier.make o wn e with
  | None -> false
  | Some f -> Option.is_none (upgrade_once o f)

let is_most_general_exn = check_mge_exn

let one_mge_exn o wn =
  (* Find any explanation via the existence search, then climb. *)
  let per_position = candidates o wn in
  if List.exists (fun cands -> cands = []) per_position then None
  else
    let n_answers = Relation.cardinal wn.Whynot.answers in
    let all = Int_set.of_list (List.init n_answers (fun i -> i)) in
    let with_kills =
      List.mapi
        (fun pos cands ->
           List.map (fun c -> (c, Int_set.of_list (kill_set o wn pos c))) cands)
        per_position
    in
    let rec search killed chosen = function
      | [] ->
        if Int_set.equal killed all then Some (List.rev chosen) else None
      | options :: rest ->
        List.fold_left
          (fun found (c, ks) ->
             match found with
             | Some _ -> found
             | None -> search (Int_set.union killed ks) (c :: chosen) rest)
          None options
    in
    Option.map (generalise_exn o wn) (search Int_set.empty [] with_kills)

(* --- lazy enumeration --- *)

let explanations_seq_exn o wn =
  let per_position = candidates o wn in
  let n_answers = Relation.cardinal wn.Whynot.answers in
  let all = Int_set.of_list (List.init n_answers (fun i -> i)) in
  let with_kills =
    List.mapi
      (fun pos cands ->
         List.map (fun c -> (c, Int_set.of_list (kill_set o wn pos c))) cands)
      per_position
  in
  let rec seq killed chosen rest () =
    match rest with
    | [] ->
      if Int_set.equal killed all then Seq.Cons (List.rev chosen, Seq.empty)
      else Seq.Nil
    | options :: more ->
      let branches =
        List.to_seq options
        |> Seq.concat_map (fun (c, ks) ->
            seq (Int_set.union killed ks) (c :: chosen) more)
      in
      branches ()
  in
  if List.length per_position <> Whynot.arity wn then Seq.empty
  else seq Int_set.empty [] with_kills

let mges_seq_exn o wn =
  let seen = ref [] in
  explanations_seq_exn o wn
  |> Seq.filter (fun e -> is_most_general_exn o wn e)
  |> Seq.filter (fun e ->
      if List.exists (fun e' -> Explanation.equivalent o e e') !seen then false
      else begin
        seen := e :: !seen;
        true
      end)

(* --- result-returning public surface --- *)

let finite o k =
  match o.Ontology.concepts with
  | Some _ -> k ()
  | None ->
    Error
      (`Infinite_ontology
         ("Exhaustive: ontology " ^ o.Ontology.name ^ " is not finite"))

let all_mges o wn = finite o (fun () -> Ok (all_mges_exn o wn))
let all_mges_unpruned o wn = finite o (fun () -> Ok (all_mges_unpruned_exn o wn))
let exists_explanation o wn = finite o (fun () -> Ok (exists_explanation_exn o wn))
let one_mge o wn = finite o (fun () -> Ok (one_mge_exn o wn))
let check_mge o wn e = finite o (fun () -> Ok (check_mge_exn o wn e))
let is_most_general o wn e = finite o (fun () -> Ok (is_most_general_exn o wn e))

let generalise o wn e =
  finite o (fun () ->
      match Explanation.Frontier.make o wn e with
      | Some f -> Ok (climb o f)
      | None ->
        Error (`Not_an_explanation "Exhaustive.generalise: not an explanation"))

let explanations_seq o wn = finite o (fun () -> Ok (explanations_seq_exn o wn))
let mges_seq o wn = finite o (fun () -> Ok (mges_seq_exn o wn))

(* --- the exploration plan shared with Whynot_parallel --- *)

module Plan = struct
  type 'c position = {
    candidates : ('c * Int_set.t) array;  (* candidate, kill-set *)
  }

  type 'c t = {
    ontology : 'c Ontology.t;
    whynot : Whynot.t;
    all_answers : Int_set.t;
    positions : 'c position array;
  }

  let prepare ?(prune = true) o wn =
    finite o (fun () ->
        let per_position = candidates o wn in
        let per_position =
          if prune then prune_candidates o wn per_position else per_position
        in
        let n_answers = Relation.cardinal wn.Whynot.answers in
        let all = Int_set.of_list (List.init n_answers (fun i -> i)) in
        let positions =
          Array.of_list
            (List.mapi
               (fun pos cands ->
                  {
                    candidates =
                      Array.of_list
                        (List.map
                           (fun c ->
                              (c, Int_set.of_list (kill_set o wn pos c)))
                           cands);
                  })
               per_position)
        in
        Ok { ontology = o; whynot = wn; all_answers = all; positions })
end
