(* The reflexive-transitive closure of a finite graph: node [i] of [nodes]
   reaches node [j] iff byte [j] of [up.(i)] is set. Every edge joins two
   nodes of [nodes]. *)
type 'a closure = {
  index : ('a, int) Hashtbl.t;
  up : Bytes.t array;
}

let closure nodes edges =
  let n = Array.length nodes in
  let index = Hashtbl.create n in
  Array.iteri (fun i x -> Hashtbl.replace index x i) nodes;
  let succ = Array.make n [] in
  List.iter
    (fun (x, y) ->
       let i = Hashtbl.find index x in
       succ.(i) <- Hashtbl.find index y :: succ.(i))
    edges;
  let reach i =
    let seen = Bytes.make n '\000' in
    let rec visit j =
      if Bytes.get seen j = '\000' then begin
        Bytes.set seen j '\001';
        List.iter visit succ.(j)
      end
    in
    visit i;
    seen
  in
  { index; up = Array.init n reach }

let reaches c i j = Bytes.get c.up.(i) j <> '\000'

(* Some node that [i] reaches is marked in [marks]. *)
let reaches_marked c marks i =
  let rec from j =
    j < Array.length marks && ((marks.(j) && reaches c i j) || from (j + 1))
  in
  from 0

(* The mark of [x], or [false] when [x] is not a node. *)
let marked c marks x =
  match Hashtbl.find_opt c.index x with Some i -> marks.(i) | None -> false

(* [i] is below one side of a disjoint pair and [j] below the other; the
   pair list is symmetric. *)
let clash c pairs i j =
  List.exists (fun (d1, d2) -> reaches c i d1 && reaches c j d2) pairs

(* [f] on the indices of [x] and [y], or [false] when either is not a node. *)
let on_nodes c f x y =
  match Hashtbl.find_opt c.index x, Hashtbl.find_opt c.index y with
  | Some i, Some j -> f i j
  | _ -> false

type t = {
  tbox : Tbox.t;
  universe : Dl.basic list;
  concepts : Dl.basic closure;
  roles : Dl.role closure;
  neg : (int * int) list;       (* declared disjoint concepts, symmetric *)
  role_neg : (int * int) list;  (* declared disjoint roles, symmetric *)
  unsat : bool array;
  role_unsat : bool array;
}

let tbox s = s.tbox
let universe s = s.universe

let saturate tb =
  let universe = Tbox.basic_concepts tb in
  let concept_nodes = Array.of_list universe in
  let role_nodes =
    Array.of_list
      (List.concat_map
         (fun p -> [ Dl.Named p; Dl.Inv p ])
         (Tbox.atomic_roles tb))
  in
  let axioms = Tbox.axioms tb in
  let role_edges =
    List.concat_map
      (function
        | Tbox.Role_incl (r1, Dl.R r2) -> [ (r1, r2); (Dl.inv r1, Dl.inv r2) ]
        | _ -> [])
      axioms
  in
  let roles = closure role_nodes role_edges in
  let concept_edges =
    List.filter_map
      (function Tbox.Concept_incl (b1, Dl.B b2) -> Some (b1, b2) | _ -> None)
      axioms
    @ List.map (fun (r1, r2) -> (Dl.Exists r1, Dl.Exists r2)) role_edges
  in
  let concepts = closure concept_nodes concept_edges in
  let symmetric index pairs =
    List.concat_map
      (fun (x, y) ->
         let i = Hashtbl.find index x and j = Hashtbl.find index y in
         [ (i, j); (j, i) ])
      pairs
  in
  let neg =
    symmetric concepts.index
      (List.filter_map
         (function
           | Tbox.Concept_incl (b1, Dl.Not b2) -> Some (b1, b2) | _ -> None)
         axioms)
  in
  let role_neg =
    symmetric roles.index
      (List.concat_map
         (function
           | Tbox.Role_incl (r1, Dl.NotR r2) ->
             [ (r1, r2); (Dl.inv r1, Dl.inv r2) ]
           | _ -> [])
         axioms)
  in
  (* A self-clash makes a concept or a role unsatisfiable. Then, to a
     fixpoint: a role is unsatisfiable when a role above it is, or when its
     domain or range is; [exists R] is when [R] is; a concept is when a
     concept above it is. *)
  let unsat =
    Array.init (Array.length concept_nodes) (fun i -> clash concepts neg i i)
  in
  let role_unsat =
    Array.init (Array.length role_nodes) (fun i -> clash roles role_neg i i)
  in
  let changed = ref true in
  let update a i derived =
    if (not a.(i)) && derived () then begin
      a.(i) <- true;
      changed := true
    end
  in
  while !changed do
    changed := false;
    Array.iteri
      (fun i r ->
         update role_unsat i (fun () ->
             reaches_marked roles role_unsat i
             || marked concepts unsat (Dl.Exists r)
             || marked concepts unsat (Dl.Exists (Dl.inv r))))
      role_nodes;
    Array.iteri
      (fun i b ->
         update unsat i (fun () ->
             reaches_marked concepts unsat i
             ||
             match b with
             | Dl.Exists r -> marked roles role_unsat r
             | Dl.Atom _ -> false))
      concept_nodes
  done;
  { tbox = tb; universe; concepts; roles; neg; role_neg; unsat; role_unsat }

let unsatisfiable s b = marked s.concepts s.unsat b

let subsumes s b1 b2 =
  Dl.equal_basic b1 b2 || unsatisfiable s b1
  || on_nodes s.concepts (reaches s.concepts) b1 b2

let disjoint s b1 b2 =
  unsatisfiable s b1 || unsatisfiable s b2
  || on_nodes s.concepts (clash s.concepts s.neg) b1 b2

let role_unsatisfiable s r = marked s.roles s.role_unsat r

let role_subsumes s r1 r2 =
  Dl.compare_role r1 r2 = 0 || role_unsatisfiable s r1
  || on_nodes s.roles (reaches s.roles) r1 r2

let role_disjoint s r1 r2 =
  role_unsatisfiable s r1 || role_unsatisfiable s r2
  || on_nodes s.roles (clash s.roles s.role_neg) r1 r2

let subsumers s b = List.filter (fun b' -> subsumes s b b') s.universe
let subsumees s b = List.filter (fun b' -> subsumes s b' b) s.universe
