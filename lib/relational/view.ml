type def = {
  name : string;
  body : Ucq.t;
}

type t = {
  defs : def list;
  levels : def list list;
      (* dependency levels: the first reads data relations only, and each
         later one reads views of the levels before it *)
}

module Str_set = Set.Make (String)

let def_view_mentions all_names d =
  List.filter (fun r -> List.mem r all_names) (Ucq.atoms_relations d.body)

let make defs_list =
  let names = List.map (fun d -> d.name) defs_list in
  let dup =
    List.find_opt
      (fun n -> List.length (List.filter (String.equal n) names) > 1)
      names
  in
  match dup with
  | Some n -> Error (Printf.sprintf "duplicate view definition for %s" n)
  | None ->
    (* Kahn's algorithm for a topological order, one level per round;
       failure means a cycle. *)
    let rec topo pending done_rev levels_rev =
      if pending = [] then Ok (List.rev levels_rev)
      else
        let ready, blocked =
          List.partition
            (fun d ->
               List.for_all
                 (fun dep ->
                    not (List.mem dep names)
                    || List.exists (String.equal dep) done_rev)
                 (def_view_mentions names d))
            pending
        in
        if ready = [] then
          Error
            (Printf.sprintf "cyclic view definitions among: %s"
               (String.concat ", " (List.map (fun d -> d.name) blocked)))
        else
          topo blocked
            (List.rev_append (List.map (fun d -> d.name) ready) done_rev)
            (ready :: levels_rev)
    in
    (match topo defs_list [] [] with
     | Error _ as e -> e
     | Ok levels -> Ok { defs = defs_list; levels })

let make_exn defs_list =
  match make defs_list with
  | Ok t -> t
  | Error msg -> invalid_arg ("View.make_exn: " ^ msg)

let defs t = t.defs
let view_names t = List.map (fun d -> d.name) t.defs
let is_view t name = List.exists (fun d -> String.equal d.name name) t.defs

let find_def t name = List.find_opt (fun d -> String.equal d.name name) t.defs

let depends_on t name =
  match find_def t name with
  | None -> []
  | Some d -> def_view_mentions (view_names t) d

let topological_order t =
  List.concat_map (List.map (fun d -> d.name)) t.levels

let is_flat t = List.for_all (fun d -> depends_on t d.name = []) t.defs

let is_linear t =
  let names = view_names t in
  List.for_all
    (fun d ->
       List.for_all
         (fun (q : Cq.t) ->
            let view_atoms =
              List.filter (fun (a : Cq.atom) -> List.mem a.rel names)
                q.Cq.atoms
            in
            List.length view_atoms <= 1)
         d.body.Ucq.disjuncts)
    t.defs

let has_comparisons t =
  List.exists
    (fun d ->
       List.exists (fun (q : Cq.t) -> q.Cq.comparisons <> [])
         d.body.Ucq.disjuncts)
    t.defs

(* The views of one level read one index over the instance the levels
   before them made. *)
let materialise t inst =
  List.fold_left
    (fun inst level ->
       let idx = Eval_index.of_instance inst in
       List.fold_left
         (fun acc d -> Instance.add_relation d.name (Ucq.eval_in idx d.body) acc)
         inst level)
    inst t.levels

(* Unification of a view atom's argument list against a definition
   disjunct's head. Returns substitutions for the host query and for the
   (standardised-apart) disjunct, or [None] if the unification fails on
   constants. *)
let unify_head_args (head_terms : Cq.term list) (atom_args : Cq.term list) =
  (* Equations are solved left to right, maintaining a single substitution
     applied eagerly to the remaining equations. Variables of the disjunct
     are fresh, so a single mixed substitution is sound. *)
  let apply_subst subst = function
    | Cq.Var v as tm ->
      (match List.assoc_opt v subst with Some tm' -> tm' | None -> tm)
    | Cq.Const _ as tm -> tm
  in
  let rec solve subst = function
    | [] -> Some subst
    | (t1, t2) :: rest ->
      let t1 = apply_subst subst t1 and t2 = apply_subst subst t2 in
      (match t1, t2 with
       | Cq.Const c1, Cq.Const c2 ->
         if Value.equal c1 c2 then solve subst rest else None
       | Cq.Var v, tm | tm, Cq.Var v ->
         if tm = Cq.Var v then solve subst rest
         else
           let subst =
             (v, tm)
             :: List.map (fun (x, t) -> (x, apply_subst [ (v, tm) ] t)) subst
           in
           solve subst rest)
  in
  solve [] (List.combine head_terms atom_args)

let splice_counter = ref 0

let splice host ~atom_index (disjunct : Cq.t) : Cq.t option =
  incr splice_counter;
  let d = Cq.rename_apart ~suffix:(Printf.sprintf "~%d" !splice_counter) disjunct in
  let atom = List.nth host.Cq.atoms atom_index in
  match unify_head_args d.Cq.head atom.Cq.args with
  | None -> None
  | Some subst ->
    let host_atoms =
      List.filteri (fun i _ -> i <> atom_index) host.Cq.atoms
    in
    let merged =
      Cq.make ~head:host.Cq.head
        ~atoms:(host_atoms @ d.Cq.atoms)
        ~comparisons:(host.Cq.comparisons @ d.Cq.comparisons)
        ()
    in
    let result = Cq.substitute subst merged in
    if Cq.is_unsatisfiable_syntactic result then None else Some result

let unfold_cq t q =
  let names = view_names t in
  let rec find_index i = function
    | [] -> None
    | (a : Cq.atom) :: rest ->
      if List.mem a.rel names then Some (i, a) else find_index (i + 1) rest
  in
  let rec expand q =
    match find_index 0 q.Cq.atoms with
    | None -> [ q ]
    | Some (atom_index, atom) ->
      (match find_def t atom.rel with
       | None -> [ q ]
       | Some d ->
         List.concat_map
           (fun disjunct ->
              match splice q ~atom_index disjunct with
              | None -> []
              | Some q' -> expand q')
           d.body.Ucq.disjuncts)
  in
  expand q

let unfold_ucq t u =
  let disjuncts = List.concat_map (unfold_cq t) u.Ucq.disjuncts in
  match disjuncts with
  | [] ->
    (* Every expansion was unsatisfiable: represent the empty query as a
       single unsatisfiable CQ of the right arity. *)
    let falsum =
      Cq.make
        ~head:(List.init u.Ucq.arity (fun i -> Cq.Var (Printf.sprintf "x%d" i)))
        ~atoms:[]
        ~comparisons:
          [
            { Cq.subject = "__false__"; op = Cmp_op.Lt; value = Value.Int 0 };
            { Cq.subject = "__false__"; op = Cmp_op.Gt; value = Value.Int 0 };
          ]
        ()
    in
    Ucq.make [ falsum ]
  | _ -> Ucq.make disjuncts

let pp ppf t =
  List.iter
    (fun d ->
       Format.fprintf ppf "@[<hov2>%s <->@ %a@]@." d.name Ucq.pp d.body)
    t.defs
