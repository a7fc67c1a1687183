open Whynot_relational
module QG = QCheck2.Gen
module Ls = Whynot_concept.Ls
module Dl = Whynot_dllite.Dl
module Tbox = Whynot_dllite.Tbox
module Interp = Whynot_dllite.Interp

let ( let* ) = QG.( let* )

(* Small pools so that independently drawn artifacts share constants. *)
let str_pool = [ "a"; "b"; "c"; "d"; "e" ]
let var_pool = [ "x"; "y"; "z"; "u"; "v" ]

let int_value = QG.map Value.int (QG.int_range 0 6)

let value =
  QG.frequency
    [
      (6, int_value);
      (3, QG.map Value.str (QG.oneofl str_pool));
      (* n + 0.5: non-integral, so printing with %g round-trips. *)
      (1, QG.map (fun n -> Value.real (float_of_int n +. 0.5)) (QG.int_range 0 5));
    ]

let tuple ~arity =
  QG.map Tuple.of_list (QG.list_size (QG.return arity) value)

let relation ~arity =
  QG.map (Relation.of_list ~arity) (QG.list_size (QG.int_range 0 6) (tuple ~arity))

let instance =
  let* r = relation ~arity:2 in
  let* s = relation ~arity:1 in
  QG.return
    (Instance.add_relation "R" r (Instance.add_relation "S" s Instance.empty))

(* ------------------------------------------------------------------ *)
(* Schemas per Table-1 constraint class                                *)
(* ------------------------------------------------------------------ *)

type schema_class =
  | No_constraints
  | Fds_only
  | Inds_only
  | Views_only
  | Mixed

let schema_class =
  QG.oneofl [ No_constraints; Fds_only; Inds_only; Views_only; Mixed ]

(* The schema of {!instance}: a binary [R] and a unary [S]. *)
let rs_schema =
  Schema.make_exn
    [
      { Schema.name = "R"; attrs = [ "a1"; "a2" ] };
      { Schema.name = "S"; attrs = [ "a1" ] };
    ]

let rel_decls ~max_arity =
  let* n = QG.int_range 1 3 in
  let* arities = QG.list_size (QG.return n) (QG.int_range 1 max_arity) in
  QG.return
    (List.mapi
       (fun i k ->
          {
            Schema.name = Printf.sprintf "R%d" i;
            attrs = List.init k (fun j -> Printf.sprintf "a%d" (j + 1));
          })
       arities)

(* Keep each element with an independent coin flip. *)
let sublist xs =
  let* keep = QG.list_size (QG.return (List.length xs)) QG.bool in
  QG.return (List.filteri (fun i _ -> List.nth keep i) xs)

let fds_for decls =
  decls
  |> List.filter (fun (d : Schema.rel_decl) -> List.length d.attrs >= 2)
  |> List.map (fun (d : Schema.rel_decl) ->
         Fd.make ~rel:d.Schema.name ~lhs:[ 1 ]
           ~rhs:[ List.length d.Schema.attrs ])

let rec consecutive = function
  | a :: (b :: _ as rest) -> (a, b) :: consecutive rest
  | _ -> []

let inds_for decls =
  consecutive decls
  |> List.map (fun ((d1 : Schema.rel_decl), (d2 : Schema.rel_decl)) ->
         Ind.make ~lhs_rel:d1.Schema.name ~lhs_attrs:[ 1 ]
           ~rhs_rel:d2.Schema.name ~rhs_attrs:[ 1 ])

let cmp_op = QG.oneofl Cmp_op.all

(* A unary view over the first declared relation: 1-2 disjuncts, each
   projecting the first attribute, optionally filtered by a comparison. *)
let view_over (d : Schema.rel_decl) =
  let arity = List.length d.Schema.attrs in
  let disjunct =
    let args =
      List.init arity (fun j ->
          if j = 0 then Cq.Var "x" else Cq.Var (Printf.sprintf "y%d" j))
    in
    let* with_cmp = QG.bool in
    let* op = cmp_op in
    let* c = int_value in
    let comparisons =
      if with_cmp then [ { Cq.subject = "x"; op; value = c } ] else []
    in
    QG.return
      (Cq.make ~head:[ Cq.Var "x" ]
         ~atoms:[ { Cq.rel = d.Schema.name; args } ]
         ~comparisons ())
  in
  let* n = QG.int_range 1 2 in
  let* disjuncts = QG.list_size (QG.return n) disjunct in
  QG.return { View.name = "V0"; body = Ucq.make disjuncts }

let view_decl = { Schema.name = "V0"; attrs = [ "a1" ] }

let schema ?(max_arity = 3) cls =
  let* decls = rel_decls ~max_arity in
  match cls with
  | No_constraints -> QG.return (Schema.make_exn decls)
  | Fds_only ->
    let* fds = sublist (fds_for decls) in
    QG.return (Schema.make_exn ~fds decls)
  | Inds_only ->
    let* inds = sublist (inds_for decls) in
    QG.return (Schema.make_exn ~inds decls)
  | Views_only ->
    let* v = view_over (List.hd decls) in
    QG.return (Schema.make_exn ~views:[ v ] (decls @ [ view_decl ]))
  | Mixed ->
    let* fds = sublist (fds_for decls) in
    let* inds = sublist (inds_for decls) in
    let* v = view_over (List.hd decls) in
    QG.return (Schema.make_exn ~fds ~inds ~views:[ v ] (decls @ [ view_decl ]))

(* ------------------------------------------------------------------ *)
(* Instances satisfying a schema: generate, repair, complete           *)
(* ------------------------------------------------------------------ *)

(* Keep the first tuple per left-hand-side projection of every FD. *)
let fd_repair schema inst =
  List.fold_left
    (fun inst (fd : Fd.t) ->
       match Instance.relation inst fd.Fd.rel with
       | None -> inst
       | Some r ->
         let seen = Hashtbl.create 16 in
         let r' =
           Relation.fold
             (fun t acc ->
                let key = Tuple.to_string (Tuple.proj fd.Fd.lhs t) in
                if Hashtbl.mem seen key then acc
                else begin
                  Hashtbl.add seen key ();
                  Relation.add t acc
                end)
             r
             (Relation.empty ~arity:(Relation.arity r))
         in
         Instance.add_relation fd.Fd.rel r' inst)
    inst (Schema.fds schema)

(* Insert filler tuples into the right-hand relation of every violated
   IND: required values at the IND's positions, Int 0 elsewhere. *)
let ind_fill schema inst =
  List.fold_left
    (fun inst (ind : Ind.t) ->
       let arity_of rel = Option.value ~default:1 (Schema.arity schema rel) in
       let lhs =
         Instance.relation_or_empty inst ~arity:(arity_of ind.Ind.lhs_rel)
           ind.Ind.lhs_rel
       in
       let rhs_arity = arity_of ind.Ind.rhs_rel in
       let rhs =
         Instance.relation_or_empty inst ~arity:rhs_arity ind.Ind.rhs_rel
       in
       List.fold_left
         (fun inst missing ->
            let arr = Array.make rhs_arity (Value.Int 0) in
            List.iteri
              (fun i attr -> arr.(attr - 1) <- Tuple.get missing (i + 1))
              ind.Ind.rhs_attrs;
            Instance.add_fact ind.Ind.rhs_rel (Array.to_list arr) inst)
         inst
         (Ind.violations ind ~lhs ~rhs))
    inst (Schema.inds schema)

let legal_instance schema =
  let data = Schema.data_relation_names schema in
  let* per_rel =
    QG.flatten_l
      (List.map
         (fun rel ->
            let arity = Option.get (Schema.arity schema rel) in
            let* tuples =
              QG.list_size (QG.int_range 0 5) (tuple ~arity)
            in
            QG.return (rel, tuples))
         data)
  in
  let inst =
    List.fold_left
      (fun inst (rel, tuples) ->
         List.fold_left
           (fun inst t -> Instance.add_fact rel (Tuple.to_list t) inst)
           inst tuples)
      Instance.empty per_rel
  in
  let rec repair inst n =
    if n = 0 then inst
    else repair (ind_fill schema (fd_repair schema inst)) (n - 1)
  in
  let inst = fd_repair schema (repair inst 4) in
  let inst = Schema.complete schema inst in
  QG.return
    (match Schema.satisfies schema inst with
     | Ok () -> inst
     | Error _ -> Schema.complete schema Instance.empty)

(* ------------------------------------------------------------------ *)
(* Conjunctive queries                                                 *)
(* ------------------------------------------------------------------ *)

let pick_distinct n xs =
  (* First n of a shuffle, padded by repetition when xs is shorter. *)
  let* shuffled = QG.shuffle_l xs in
  let len = List.length xs in
  QG.return (List.init n (fun i -> List.nth shuffled (i mod len)))

let cq ?(with_comparisons = true) ?(max_atoms = 3) ?arity schema =
  let decls =
    List.filter
      (fun (d : Schema.rel_decl) ->
         List.mem d.Schema.name (Schema.data_relation_names schema))
      (Schema.relations schema)
  in
  let atom =
    let* d = QG.oneofl decls in
    let* args =
      QG.flatten_l
        (List.map
           (fun _ ->
              QG.frequency
                [
                  (4, QG.map (fun v -> Cq.Var v) (QG.oneofl var_pool));
                  (1, QG.map (fun c -> Cq.Const c) int_value);
                ])
           d.Schema.attrs)
    in
    QG.return { Cq.rel = d.Schema.name; args }
  in
  let* n_atoms = QG.int_range 1 max_atoms in
  let* atoms = QG.list_size (QG.return n_atoms) atom in
  (* Guarantee at least one variable so the query can be safe. *)
  let atoms =
    match atoms with
    | { Cq.rel; args = _ :: rest } :: more
      when not
             (List.exists
                (List.exists (function Cq.Var _ -> true | Cq.Const _ -> false))
                (List.map (fun (a : Cq.atom) -> a.Cq.args) atoms)) ->
      { Cq.rel; args = Cq.Var "x" :: rest } :: more
    | _ -> atoms
  in
  let bvars =
    List.concat_map
      (fun (a : Cq.atom) ->
         List.filter_map
           (function Cq.Var v -> Some v | Cq.Const _ -> None)
           a.Cq.args)
      atoms
    |> List.sort_uniq String.compare
  in
  let* arity =
    match arity with
    | Some a -> QG.return a
    | None -> QG.int_range 0 (min 2 (List.length bvars))
  in
  let* head_vars = pick_distinct arity bvars in
  let* comparisons =
    if with_comparisons then
      let* n = QG.int_range 0 2 in
      QG.list_size (QG.return n)
        (let* subject = QG.oneofl bvars in
         let* op = cmp_op in
         let* c = int_value in
         QG.return { Cq.subject; op; value = c })
    else QG.return []
  in
  QG.return
    (Cq.make
       ~head:(List.map (fun v -> Cq.Var v) head_vars)
       ~atoms ~comparisons ())

let ucq ?with_comparisons ?max_atoms ?arity schema =
  let* arity =
    match arity with Some a -> QG.return a | None -> QG.int_range 0 2
  in
  let* n = QG.int_range 1 3 in
  let* disjuncts =
    QG.list_size (QG.return n) (cq ?with_comparisons ?max_atoms ~arity schema)
  in
  QG.return (Ucq.make disjuncts)

(* ------------------------------------------------------------------ *)
(* L_S concepts                                                        *)
(* ------------------------------------------------------------------ *)

let concept ?(with_selections = true) ?(with_nominal = true)
    ?(max_conjuncts = 3) ?(max_sels = 2) schema =
  let positions = Schema.positions schema in
  let proj_conjunct =
    let* rel, attr = QG.oneofl positions in
    let rel_arity = Option.get (Schema.arity schema rel) in
    let* sels =
      if with_selections then
        let* n = QG.int_range 0 max_sels in
        QG.list_size (QG.return n)
          (let* sattr = QG.int_range 1 rel_arity in
           let* op = cmp_op in
           let* v = value in
           QG.return { Ls.attr = sattr; op; value = v })
      else QG.return []
    in
    QG.return (Ls.proj ~rel ~attr ~sels ())
  in
  let build =
    let* n = QG.int_range 1 max_conjuncts in
    let* projs = QG.list_size (QG.return n) proj_conjunct in
    let* nom =
      if with_nominal then
        QG.frequency [ (3, QG.return None); (1, QG.map Option.some value) ]
      else QG.return None
    in
    let parts =
      match nom with Some v -> Ls.nominal v :: projs | None -> projs
    in
    QG.return (Ls.meet_all parts)
  in
  QG.frequency [ (1, QG.return Ls.top); (9, build) ]

(* ------------------------------------------------------------------ *)
(* DL-LiteR                                                            *)
(* ------------------------------------------------------------------ *)

let tbox =
  let* n_atoms = QG.int_range 1 3 in
  let* n_roles = QG.int_range 1 2 in
  let atoms = List.init n_atoms (fun i -> Printf.sprintf "A%d" i) in
  let roles = List.init n_roles (fun i -> Printf.sprintf "P%d" i) in
  let role =
    let* p = QG.oneofl roles in
    QG.oneofl [ Dl.Named p; Dl.Inv p ]
  in
  let basic =
    QG.frequency
      [
        (2, QG.map (fun a -> Dl.Atom a) (QG.oneofl atoms));
        (1, QG.map (fun r -> Dl.Exists r) role);
      ]
  in
  let axiom =
    QG.frequency
      [
        ( 4,
          let* lhs = basic in
          let* rhs =
            QG.frequency
              [
                (3, QG.map (fun b -> Dl.B b) basic);
                (1, QG.map (fun b -> Dl.Not b) basic);
              ]
          in
          QG.return (Tbox.Concept_incl (lhs, rhs)) );
        ( 1,
          let* r1 = role in
          let* rhs =
            QG.frequency
              [
                (3, QG.map (fun r -> Dl.R r) role);
                (1, QG.map (fun r -> Dl.NotR r) role);
              ]
          in
          QG.return (Tbox.Role_incl (r1, rhs)) );
      ]
  in
  let* n_axioms = QG.int_range 1 7 in
  let* axioms = QG.list_size (QG.return n_axioms) axiom in
  (* Anchor the signature: A0 always occurs, so downstream generators
     (OBDA mapping heads) have a concept to target. *)
  let anchor = Tbox.Concept_incl (Dl.Atom "A0", Dl.B (Dl.Atom "A0")) in
  QG.return (Tbox.make (anchor :: axioms))

let model_consts = List.init 4 (fun i -> Value.str (Printf.sprintf "c%d" i))

let model_of tb =
  let atoms = Tbox.atomic_concepts tb in
  let roles = Tbox.atomic_roles tb in
  let* memberships =
    QG.flatten_l
      (List.concat_map
         (fun a ->
            List.map
              (fun c ->
                 let* keep = QG.frequencyl [ (2, false); (1, true) ] in
                 QG.return (a, c, keep))
              model_consts)
         atoms)
  in
  let* edges =
    QG.flatten_l
      (List.concat_map
         (fun p ->
            List.concat_map
              (fun c1 ->
                 List.map
                   (fun c2 ->
                      let* keep = QG.frequencyl [ (4, false); (1, true) ] in
                      QG.return (p, c1, c2, keep))
                   model_consts)
              model_consts)
         roles)
  in
  let base =
    List.fold_left
      (fun i (a, c, keep) -> if keep then Interp.add_concept_member a c i else i)
      Interp.empty memberships
  in
  let base =
    List.fold_left
      (fun i (p, c1, c2, keep) ->
         if keep then Interp.add_role_edge p c1 c2 i else i)
      base edges
  in
  QG.return (Oracle.positive_chase tb base)

(* ------------------------------------------------------------------ *)
(* OBDA specifications                                                 *)
(* ------------------------------------------------------------------ *)

let obda =
  let* tb = tbox in
  let* arity0 = QG.int_range 1 2 in
  let* two_rels = QG.bool in
  let decls =
    { Schema.name = "T0"; attrs = List.init arity0 (fun j -> Printf.sprintf "a%d" (j + 1)) }
    :: (if two_rels then [ { Schema.name = "T1"; attrs = [ "a1" ] } ] else [])
  in
  let schema = Schema.make_exn decls in
  let atoms = Tbox.atomic_concepts tb in
  let roles = Tbox.atomic_roles tb in
  let mapping =
    let* d = QG.oneofl decls in
    let arity = List.length d.Schema.attrs in
    let vars = List.init arity (fun j -> Printf.sprintf "x%d" (j + 1)) in
    let body = [ { Cq.rel = d.Schema.name; args = List.map (fun v -> Cq.Var v) vars } ] in
    let concept_head =
      let* a = QG.oneofl atoms in
      let* x = QG.oneofl vars in
      QG.return (Whynot_obda.Mapping.Concept_of (a, x))
    in
    let* head =
      if arity >= 2 && roles <> [] then
        QG.frequency
          [
            (1, concept_head);
            ( 1,
              let* p = QG.oneofl roles in
              QG.return
                (Whynot_obda.Mapping.Role_of
                   (p, List.nth vars 0, List.nth vars 1)) );
          ]
      else concept_head
    in
    let* with_cmp = QG.frequencyl [ (3, false); (1, true) ] in
    let* op = cmp_op in
    let* c = int_value in
    let comparisons =
      if with_cmp then [ { Cq.subject = List.hd vars; op; value = c } ]
      else []
    in
    QG.return (Whynot_obda.Mapping.make ~comparisons ~head body)
  in
  let* n_mappings = QG.int_range 1 3 in
  let* mappings = QG.list_size (QG.return n_mappings) mapping in
  let spec = Whynot_obda.Spec.make_exn ~tbox:tb ~schema ~mappings in
  let fact_value =
    QG.frequency
      [ (2, int_value); (2, QG.oneofl model_consts); (1, value) ]
  in
  let* inst =
    QG.flatten_l
      (List.map
         (fun (d : Schema.rel_decl) ->
            let arity = List.length d.Schema.attrs in
            let* tuples =
              QG.list_size (QG.int_range 0 5)
                (QG.list_size (QG.return arity) fact_value)
            in
            QG.return (d.Schema.name, tuples))
         decls)
  in
  let instance =
    List.fold_left
      (fun acc (rel, tuples) ->
         List.fold_left (fun acc vs -> Instance.add_fact rel vs acc) acc tuples)
      Instance.empty inst
  in
  QG.return (spec, instance)

(* ------------------------------------------------------------------ *)
(* Why-not questions                                                   *)
(* ------------------------------------------------------------------ *)

let whynot =
  let cell = QG.int_range 0 4 in
  let* rows = QG.list_size (QG.int_range 2 8) (QG.pair cell cell) in
  let* triples = QG.list_size (QG.int_range 2 6) (QG.triple cell cell cell) in
  let inst =
    List.fold_left
      (fun inst (a, b) ->
         Instance.add_fact "R" [ Value.int a; Value.int b ] inst)
      Instance.empty rows
  in
  let inst =
    List.fold_left
      (fun inst (a, b, c) ->
         Instance.add_fact "T" [ Value.int a; Value.int b; Value.int c ] inst)
      inst triples
  in
  let* via_t = QG.frequency [ (3, QG.return false); (1, QG.return true) ] in
  let chain =
    [
      { Cq.rel = "R"; args = [ Cq.Var "x"; Cq.Var "z" ] };
      (if via_t then
         { Cq.rel = "T"; args = [ Cq.Var "z"; Cq.Var "y"; Cq.Var "w" ] }
       else { Cq.rel = "R"; args = [ Cq.Var "z"; Cq.Var "y" ] });
    ]
  in
  let* binary = QG.bool in
  let q =
    if binary then Cq.make ~head:[ Cq.Var "x"; Cq.Var "y" ] ~atoms:chain ()
    else Cq.make ~head:[ Cq.Var "x" ] ~atoms:chain ()
  in
  let answers = Cq.eval q inst in
  let pool = [ 0; 1; 2; 3; 4; 9 ] in
  let candidates =
    (if binary then
       List.concat_map
         (fun a -> List.map (fun b -> [ Value.int a; Value.int b ]) pool)
         pool
     else List.map (fun a -> [ Value.int a ]) pool)
    |> List.filter (fun t -> not (Relation.mem (Tuple.of_list t) answers))
  in
  match candidates with
  | [] -> QG.return None
  | _ :: _ ->
    let* i = QG.int_range 0 (List.length candidates - 1) in
    QG.return
      (Some
         (Whynot_core.Whynot.make_exn ~instance:inst ~query:q
            ~missing:(List.nth candidates i) ()))

(* Two or three relations over 0..4: a binary [R], a unary [S] and
   sometimes a ternary [T]. The query joins [R] with one of them and
   keeps one to three of its variables, one of them sometimes replaced
   by the constant 7, which no fact holds. Missing values come from
   0..4, 7 and 9, so they can lie outside the active domain and equal
   the head constant. *)
let whynot_wide =
  let v = Cq.Var "x" and w = Cq.Var "y" and z = Cq.Var "z" in
  let cell = QG.map Value.int (QG.int_range 0 4) in
  let rows arity lo hi =
    QG.list_size (QG.int_range lo hi) (QG.list_size (QG.return arity) cell)
  in
  let* r = rows 2 2 8 in
  let* s = rows 1 1 3 in
  let* ternary = QG.bool in
  let* t = if ternary then rows 3 1 4 else QG.return [] in
  let add rel = List.fold_left (fun i vs -> Instance.add_fact rel vs i) in
  let inst = add "T" (add "S" (add "R" Instance.empty r) s) t in
  let atom rel args = { Cq.rel; args } in
  let* second =
    QG.oneofl
      ([ atom "R" [ z; w ]; atom "S" [ z ] ]
      @ if ternary then [ atom "T" [ z; w; Cq.Var "u" ] ] else [])
  in
  let atoms = [ atom "R" [ v; z ]; second ] in
  let vars =
    List.sort_uniq Stdlib.compare
      (List.concat_map
         (fun a ->
            List.filter_map (function Cq.Var x -> Some x | _ -> None) a.Cq.args)
         atoms)
  in
  let* arity = QG.int_range 1 3 in
  let* head =
    QG.list_size (QG.return arity) (QG.map (fun x -> Cq.Var x) (QG.oneofl vars))
  in
  let* constant = QG.int_range 0 3 in
  let head =
    if constant = 0 then
      List.mapi
        (fun i t -> if i = arity - 1 then Cq.Const (Value.int 7) else t)
        head
    else head
  in
  let q = Cq.make ~head ~atoms () in
  let answers = Cq.eval q inst in
  let* missing =
    QG.list_size (QG.return arity)
      (QG.map Value.int (QG.oneofl [ 0; 1; 2; 3; 4; 7; 9 ]))
  in
  QG.return
    (if Relation.mem (Tuple.of_list missing) answers then None
     else
       Some
         (Whynot_core.Whynot.make_exn ~instance:inst ~query:q ~missing ()))

(* The frontier's edge cases. Three times in four, a binary [R] over
   0..15 that keeps each of the 256 pairs with probability 4/5 (about
   205 facts, never near 126), asked [q(x, y) := R(x, y)], so [Ans]
   spans at least three 63-bit words; the missing pair is a dropped one,
   or one with a value outside the active domain. Otherwise a question
   of arity 0: [q() := R(x, c)] over a small [R] on 0..4 with [c]
   outside it, whose answer set is empty. *)
let whynot_edge =
  let* large = QG.frequencyl [ (3, true); (1, false) ] in
  if large then
    let* keep = QG.list_repeat 256 (QG.frequencyl [ (4, true); (1, false) ]) in
    let pairs = List.init 256 (fun k -> (k / 16, k mod 16)) in
    let kept, dropped =
      List.partition_map
        (fun (p, kept) -> if kept then Left p else Right p)
        (List.combine pairs keep)
    in
    let inst =
      List.fold_left
        (fun inst (a, b) -> Instance.add_fact "R" [ Value.int a; Value.int b ] inst)
        Instance.empty kept
    in
    let q =
      Cq.make ~head:[ Cq.Var "x"; Cq.Var "y" ]
        ~atoms:[ { Cq.rel = "R"; args = [ Cq.Var "x"; Cq.Var "y" ] } ]
        ()
    in
    let* a, b = QG.oneofl ((3, 16) :: (16, 17) :: dropped) in
    QG.return
      (Some
         (Whynot_core.Whynot.make_exn ~instance:inst ~query:q
            ~missing:[ Value.int a; Value.int b ] ()))
  else
    let* rows =
      QG.list_size (QG.int_range 1 6)
        (QG.pair (QG.int_range 0 4) (QG.int_range 0 4))
    in
    let* c = QG.oneofl [ 5; 9 ] in
    let inst =
      List.fold_left
        (fun inst (a, b) -> Instance.add_fact "R" [ Value.int a; Value.int b ] inst)
        Instance.empty rows
    in
    let q =
      Cq.make ~head:[]
        ~atoms:[ { Cq.rel = "R"; args = [ Cq.Var "x"; Cq.Const (Value.int c) ] } ]
        ()
    in
    QG.return
      (Some (Whynot_core.Whynot.make_exn ~instance:inst ~query:q ~missing:[] ()))

(* ------------------------------------------------------------------ *)
(* Wire-protocol JSON                                                  *)
(* ------------------------------------------------------------------ *)

module Wjson = Whynot.Json

(* Strings over the full byte range: quotes, backslashes, control
   characters (the encoder escapes them as \u00XX) and high bytes (which
   travel raw). *)
let wire_string =
  let wire_char =
    QG.frequency
      [
        (8, QG.char_range 'a' 'z');
        (2, QG.oneofl [ '"'; '\\'; '/'; '\n'; '\t'; '\r'; ' ' ]);
        (1, QG.map Char.chr (QG.int_range 0 31));
        (1, QG.map Char.chr (QG.int_range 128 255));
      ]
  in
  QG.string_size ~gen:wire_char (QG.int_range 0 10)

(* Finite floats only (JSON has no NaN/infinity), mixing integral values
   (printed "%.1f") with fractional ones (printed "%.17g"). *)
let wire_float =
  let* mantissa = QG.int_range (-1_000_000) 1_000_000 in
  let* scale = QG.oneofl [ 0.001; 0.25; 0.5; 1.; 3.; 1000. ] in
  QG.return (float_of_int mantissa *. scale)

let wire_scalar =
  QG.frequency
    [
      (2, QG.return Wjson.Null);
      (2, QG.map (fun b -> Wjson.Bool b) QG.bool);
      (4, QG.map (fun n -> Wjson.Int n) QG.int);
      (2, QG.map (fun x -> Wjson.Float x) wire_float);
      (4, QG.map (fun s -> Wjson.String s) wire_string);
    ]

let wire_json =
  let node self depth =
    if depth <= 0 then wire_scalar
    else
      QG.frequency
        [
          (3, wire_scalar);
          ( 1,
            QG.map
              (fun xs -> Wjson.List xs)
              (QG.list_size (QG.int_range 0 4) (self (depth - 1))) );
          ( 1,
            QG.map
              (fun fields -> Wjson.Obj fields)
              (QG.list_size (QG.int_range 0 4)
                 (QG.pair wire_string (self (depth - 1)))) );
        ]
  in
  let rec self depth = node self depth in
  self 4

let wire_envelope =
  (* Half the draws are arbitrary JSON documents, half are shaped like the
     server's schema_version-3 envelopes (headers + result/error). *)
  let envelope =
    let* op = QG.oneofl [ "create"; "question"; "one_mge"; "stats"; "close" ] in
    let* session = QG.oneofl [ "s1"; "bench-0"; "a b"; "" ] in
    let* id = wire_scalar in
    let* payload = wire_json in
    let* is_error = QG.bool in
    QG.return
      (Wjson.Obj
         [
           ("schema_version", Wjson.Int 3);
           ("op", Wjson.String op);
           ("session", Wjson.String session);
           ("id", id);
           (if is_error then
              ( "error",
                Wjson.Obj
                  [
                    ("code", Wjson.String "timeout");
                    ("message", Wjson.String "the operation exceeded its deadline");
                  ] )
            else ("result", payload));
         ])
  in
  QG.frequency [ (1, envelope); (1, wire_json) ]
