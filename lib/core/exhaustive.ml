open Whynot_relational
module Obs = Whynot_obs.Obs

let c_candidates =
  Obs.counter "mge.exhaustive.candidates"
    ~doc:"Algorithm 1 per-position candidate concepts retained"

let c_tuples =
  Obs.counter "mge.exhaustive.tuples"
    ~doc:"Algorithm 1 candidate tuples reaching the last position after the \
          suffix-reach cut"

let concepts_exn o =
  match o.Ontology.concepts with
  | Some cs -> cs
  | None -> invalid_arg "Exhaustive: the ontology must be finite"

(* Sets of answer indices, as bit vectors of [Sys.int_size]-bit words. *)
module Bits = struct
  let width = Sys.int_size
  let empty n = Array.make ((n + width - 1) / width) 0
  let add s i = s.(i / width) <- s.(i / width) lor (1 lsl (i mod width))

  let full n =
    let s = empty n in
    for i = 0 to n - 1 do add s i done;
    s

  let union a b = Array.map2 ( lor ) a b
  let subset a b = Array.for_all2 (fun x y -> x land lnot y = 0) a b

  (* [covers all a b]: every member of [all] is in [a] or in [b]. *)
  let covers all a b =
    let rec go k =
      k = Array.length all
      || (all.(k) land lnot (a.(k) lor b.(k)) = 0 && go (k + 1))
    in
    go 0
end

(* The search plan: per position, the candidate concepts (those whose
   extension contains that position's missing value, line 1 of
   Algorithm 1) with their kill-sets, the answers whose component at the
   position falls outside the concept's extension. Explanations are
   exactly the tuples of candidates whose kill-sets cover every answer.
   [reach.(j)] is everything positions [j..] can still kill. *)
type 'c plan = {
  positions : ('c * int array) array array;
  all : int array;
  reach : int array array;
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

let plan ?(prune = false) o wn =
  let cs = concepts_exn o in
  let answers = Array.of_list (Relation.to_list wn.Whynot.answers) in
  let n = Array.length answers in
  let kill_set j c =
    let ks = Bits.empty n in
    Array.iteri
      (fun i t ->
         if not (o.Ontology.mem c (Tuple.get t (j + 1))) then Bits.add ks i)
      answers;
    ks
  in
  let positions =
    Array.of_list
      (List.mapi
         (fun j a ->
            let cands = List.filter (fun c -> o.Ontology.mem c a) cs in
            Obs.add c_candidates (List.length cands);
            let cands =
              Array.of_list (List.map (fun c -> (c, kill_set j c)) cands)
            in
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
  { positions; all = Bits.full n; reach }

(* Every explanation of the plan, lazily, in product order. The union of
   the prefix's kill-sets travels down; a branch is cut as soon as the
   positions left cannot kill every answer still alive. *)
let explanations p =
  let m = Array.length p.positions in
  let rec node j killed chosen rest () =
    if j = m then begin
      Obs.incr c_tuples;
      if killed = p.all then Seq.Cons (List.rev chosen, rest) else rest ()
    end
    else if Bits.covers p.all killed p.reach.(j) then
      branch j killed chosen 0 rest ()
    else rest ()
  and branch j killed chosen i rest () =
    let cands = p.positions.(j) in
    if i = Array.length cands then rest ()
    else
      let c, ks = cands.(i) in
      node (j + 1) (Bits.union killed ks) (c :: chosen)
        (branch j killed chosen (i + 1) rest) ()
  in
  node 0 (Array.make (Array.length p.all) 0) [] Seq.empty

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
let mges ~prune o wn =
  explanations (plan ~prune o wn)
  |> Seq.fold_left (fun acc e -> e :: acc) []
  |> keep_most_general o

let all_mges_exn o wn = mges ~prune:true o wn
let all_mges_unpruned_exn o wn = mges ~prune:false o wn
let explanations_seq_exn o wn = explanations (plan o wn)
let exists_explanation_exn o wn = not (Seq.is_empty (explanations_seq_exn o wn))

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

(* The first explanation in product order, climbed. *)
let one_mge_exn o wn =
  Option.map
    (fun (e, _) -> generalise_exn o wn e)
    (Seq.uncons (explanations_seq_exn o wn))

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
let all_mges_unpruned o wn =
  finite o (fun () -> Ok (all_mges_unpruned_exn o wn))

let exists_explanation o wn =
  finite o (fun () -> Ok (exists_explanation_exn o wn))

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
