open Whynot_relational
module Obs = Whynot_obs.Obs

let c_candidates =
  Obs.counter "mge.exhaustive.candidates"
    ~doc:"Algorithm 1 per-position candidate concepts retained"

let c_tuples =
  Obs.counter "mge.exhaustive.tuples"
    ~doc:"Algorithm 1 candidate tuples reaching the last position after the \
          suffix-reach cut"

(* Every entry needs the finite concept list [cs]; it checks
   [o.concepts] once and hands [cs] down. *)
let finite o k =
  match o.Ontology.concepts with
  | Some cs -> k cs
  | None ->
    Error
      (`Infinite_ontology
         ("Exhaustive: ontology " ^ o.Ontology.name ^ " is not finite"))

(* The search plan: per position, the candidate concepts (those whose
   extension contains that position's missing value, line 1 of
   Algorithm 1) with their kill-sets, the answers whose component at the
   position falls outside the concept's extension. Explanations are
   exactly the tuples of candidates whose kill-sets cover every answer.
   [reach.(j)] is everything positions [j..] can still kill. *)
type answers = Bits.t

type 'c plan = {
  positions : ('c * answers) array array;
  n : int;  (* the number of answers *)
  all : answers;
  reach : answers array;
}

(* Drop a candidate when another one at the same position lies strictly
   above it and kills at least the same answers: every explanation through
   the dropped one is strictly below the same tuple through the keeper, so
   the MGEs are unchanged. *)
let prune_position o cands =
  let dominated (c, ks) =
    Array.exists
      (fun (c', ks') ->
         (not (o.Ontology.equal c c'))
         && o.Ontology.subsumes c c'
         && (not (o.Ontology.subsumes c' c))
         && Bits.subset ks ks')
      cands
  in
  Array.of_list
    (List.filter (fun ck -> not (dominated ck)) (Array.to_list cands))

let plan ?(prune = false) o cs wn =
  let answers = Array.of_list (Relation.to_list wn.Whynot.answers) in
  let n = Array.length answers in
  (* [mem] is [o.mem c], applied once per candidate. *)
  let kill_set j mem =
    let ks = Bits.empty n in
    Array.iteri
      (fun i t -> if not (mem (Tuple.get t (j + 1))) then Bits.add ks i)
      answers;
    ks
  in
  let positions =
    Array.of_list
      (List.mapi
         (fun j a ->
            let cands =
              List.filter_map
                (fun c ->
                   let mem = o.Ontology.mem c in
                   if mem a then Some (c, kill_set j mem) else None)
                cs
            in
            Obs.add c_candidates (List.length cands);
            let cands = Array.of_list cands in
            if prune then prune_position o cands else cands)
         (Whynot.missing_values wn))
  in
  let m = Array.length positions in
  let reach = Array.make (m + 1) (Bits.empty n) in
  for j = m - 1 downto 0 do
    reach.(j) <-
      Array.fold_left (fun s (_, ks) -> Bits.union s ks) reach.(j + 1)
        positions.(j)
  done;
  { positions; n; all = Bits.full n; reach }

let plan_of o wn = finite o (fun cs -> Ok (plan o cs wn))
let candidates p = p.positions
let nothing p = Bits.empty p.n
let union = Bits.union
let completable p j killed = Bits.covers p.all killed p.reach.(j)

(* Every explanation of the plan, lazily, in product order. The union of
   the prefix's kill-sets travels down; a branch is cut as soon as the
   positions left cannot kill every answer still alive. *)
let explanations p =
  let m = Array.length p.positions in
  let rec node j killed chosen rest () =
    if j = m then begin
      Obs.incr c_tuples;
      if Bits.equal killed p.all then Seq.Cons (List.rev chosen, rest)
      else rest ()
    end
    else if completable p j killed then branch j killed chosen 0 rest ()
    else rest ()
  and branch j killed chosen i rest () =
    let cands = p.positions.(j) in
    if i = Array.length cands then rest ()
    else
      let c, ks = cands.(i) in
      node (j + 1) (Bits.union killed ks) (c :: chosen)
        (branch j killed chosen (i + 1) rest) ()
  in
  node 0 (nothing p) [] Seq.empty

(* Drop explanations strictly below another; keep the first representative
   of each equivalence class. *)
let keep_most_general o explanations =
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

(* The explanations are taken in reverse product order, the order in which
   the literal algorithm's accumulator leaves them; which representative of
   an equivalence class survives depends on it. *)
let mges ~prune o cs wn =
  explanations (plan ~prune o cs wn)
  |> Seq.fold_left (fun acc e -> e :: acc) []
  |> keep_most_general o

let all_mges o wn = finite o (fun cs -> Ok (mges ~prune:true o cs wn))
let all_mges_unpruned o wn = finite o (fun cs -> Ok (mges ~prune:false o cs wn))
let explanations_seq o wn = finite o (fun cs -> Ok (explanations (plan o cs wn)))

let exists_explanation o wn =
  Result.map (fun s -> not (Seq.is_empty s)) (explanations_seq o wn)

let strict_upgrades o cs c =
  List.filter
    (fun c' ->
       o.Ontology.subsumes c c' && not (o.Ontology.subsumes c' c))
    cs

(* The first strict single-position upgrade, in position order, that keeps
   the frontier's tuple an explanation. *)
let upgrade_once o cs f =
  let rec try_positions j = function
    | [] -> None
    | c :: rest ->
      (match
         List.find_opt (Explanation.Frontier.accepts f j)
           (strict_upgrades o cs c)
       with
       | Some c' -> Some (j, c')
       | None -> try_positions (j + 1) rest)
  in
  try_positions 0 (Explanation.Frontier.concepts f)

let rec climb o cs f =
  match upgrade_once o cs f with
  | None -> Explanation.Frontier.concepts f
  | Some (j, c') ->
    Explanation.Frontier.replace f j c';
    climb o cs f

(* Frontiers over ids with no handle, through the ontology's value
   membership; every entry encodes the question once ([Frontier.ids])
   and hands the ids down. *)
let frontier o q e =
  Explanation.Frontier.make q (Explanation.Frontier.through q o.Ontology.mem) e

let climb_from o cs q e =
  match frontier o q e with
  | Some f -> Ok (climb o cs f)
  | None ->
    Error (`Not_an_explanation "Exhaustive.generalise: not an explanation")

let generalise o wn e =
  finite o (fun cs -> climb_from o cs (Explanation.Frontier.ids wn) e)

let is_mge o cs q e =
  match frontier o q e with
  | None -> false
  | Some f -> Option.is_none (upgrade_once o cs f)

let check_mge o wn e =
  finite o (fun cs -> Ok (is_mge o cs (Explanation.Frontier.ids wn) e))

(* The first explanation in product order, climbed. *)
let one_mge o wn =
  finite o (fun cs ->
      match Seq.uncons (explanations (plan o cs wn)) with
      | None -> Ok None
      | Some (e, _) ->
        Result.map Option.some
          (climb_from o cs (Explanation.Frontier.ids wn) e))

let mges_seq o wn =
  finite o (fun cs ->
      let q = Explanation.Frontier.ids wn and seen = ref [] in
      Ok
        (explanations (plan o cs wn)
         |> Seq.filter (is_mge o cs q)
         |> Seq.filter (fun e ->
             if List.exists (fun e' -> Explanation.equivalent o e e') !seen
             then false
             else begin
               seen := e :: !seen;
               true
             end)))
