type term =
  | Var of string
  | Const of Value.t

type atom = {
  rel : string;
  args : term list;
}

type comparison = {
  subject : string;
  op : Cmp_op.t;
  value : Value.t;
}

type t = {
  head : term list;
  atoms : atom list;
  comparisons : comparison list;
}

let make ~head ~atoms ?(comparisons = []) () = { head; atoms; comparisons }

let arity q = List.length q.head

let add_var seen acc = function
  | Const _ -> (seen, acc)
  | Var v -> if List.mem v seen then (seen, acc) else (v :: seen, v :: acc)

let vars q =
  let step (seen, acc) t = add_var seen acc t in
  let seen, acc = List.fold_left step ([], []) q.head in
  let seen, acc =
    List.fold_left
      (fun st atom -> List.fold_left step st atom.args)
      (seen, acc) q.atoms
  in
  let _, acc =
    List.fold_left (fun st c -> step st (Var c.subject)) (seen, acc)
      q.comparisons
  in
  List.rev acc

let body_vars q =
  let step (seen, acc) t = add_var seen acc t in
  let _, acc =
    List.fold_left
      (fun st atom -> List.fold_left step st atom.args)
      ([], []) q.atoms
  in
  List.rev acc

let head_vars q =
  let step (seen, acc) t = add_var seen acc t in
  let _, acc = List.fold_left step ([], []) q.head in
  List.rev acc

let is_safe q =
  let bv = body_vars q in
  List.for_all (fun v -> List.mem v bv) (head_vars q)
  && List.for_all (fun c -> List.mem c.subject bv) q.comparisons

let constants q =
  let add acc = function
    | Const v -> Value_set.add v acc
    | Var _ -> acc
  in
  let acc = List.fold_left add Value_set.empty q.head in
  let acc =
    List.fold_left
      (fun acc atom -> List.fold_left add acc atom.args)
      acc q.atoms
  in
  List.fold_left (fun acc c -> Value_set.add c.value acc) acc q.comparisons

let rename_apart ~suffix q =
  let rt = function
    | Var v -> Var (v ^ suffix)
    | Const _ as t -> t
  in
  {
    head = List.map rt q.head;
    atoms = List.map (fun a -> { a with args = List.map rt a.args }) q.atoms;
    comparisons =
      List.map (fun c -> { c with subject = c.subject ^ suffix })
        q.comparisons;
  }

(* A variable with contradictory comparisons, used to mark queries made
   unsatisfiable by substitution. *)
let falsum_var = "__false__"

let falsum_comparisons =
  [
    { subject = falsum_var; op = Cmp_op.Lt; value = Value.Int 0 };
    { subject = falsum_var; op = Cmp_op.Gt; value = Value.Int 0 };
  ]

let substitute subst q =
  let st = function
    | Var v as t ->
      (match List.assoc_opt v subst with Some t' -> t' | None -> t)
    | Const _ as t -> t
  in
  let head = List.map st q.head in
  let atoms =
    List.map (fun a -> { a with args = List.map st a.args }) q.atoms
  in
  let ok = ref true in
  let comparisons =
    List.filter_map
      (fun c ->
         match List.assoc_opt c.subject subst with
         | None -> Some c
         | Some (Var v') -> Some { c with subject = v' }
         | Some (Const value) ->
           if Cmp_op.eval c.op value c.value then None
           else (
             ok := false;
             None))
      q.comparisons
  in
  let comparisons =
    if !ok then comparisons else falsum_comparisons @ comparisons
  in
  { head; atoms; comparisons }

let var_interval q v =
  List.fold_left
    (fun acc c ->
       if String.equal c.subject v then
         Interval.meet acc (Interval.of_condition c.op c.value)
       else acc)
    Interval.top q.comparisons

let is_unsatisfiable_syntactic q =
  List.exists
    (fun v -> Interval.is_empty (var_interval q v))
    (List.sort_uniq String.compare (List.map (fun c -> c.subject) q.comparisons))

(* --- evaluation: planned, indexed join ---

   The naive backtracking evaluator (fixed textual atom order, assoc-list
   bindings, one full relation scan per atom) that used to live here is
   preserved verbatim in [Whynot_proptest.Oracle] as the differential
   oracle; the [eval/planned-equals-naive] property pins the two routes
   against each other.  Production evaluation compiles each query, on
   every call, against an indexed instance into a {!Plan}: a greedy join
   order whose steps probe {!Eval_index} pattern indexes with the
   already-bound variables and check comparisons the moment their subject
   is bound. *)

module Plan = struct
  module Obs = Whynot_obs.Obs

  let c_built = Obs.counter "eval.plans.built" ~doc:"query plans compiled"

  type key_part =
    | K_const of Value.t
    | K_slot of int

  type check = {
    k_slot : int;
    k_op : Cmp_op.t;
    k_value : Value.t;
  }

  type step = {
    s_atom : atom;                (* the source atom, for pretty-printing *)
    s_width : int;                (* the atom's argument count *)
    s_key_cols : int list;        (* probed 1-based columns; [] = full scan *)
    s_key : key_part array;       (* aligned with [s_key_cols] *)
    s_bind_cols : int array;      (* 0-based columns of the new variables, *)
    s_bind_slots : int array;     (* and the slots they bind *)
    s_eqs : (int * int) array;    (* within-atom repeats: 0-based col = col' *)
    s_checks : check array;       (* comparisons on the slots bound here *)
  }

  (* How the whole query evaluates, decided statically:
     [Trivial]  — no atoms, no comparisons: exactly one (empty) binding;
     [Never]    — a compared or head variable never occurs in an atom, so
                  no binding can project/satisfy (the naive evaluator
                  enumerates and then drops everything; we skip the walk);
     [Steps]    — the compiled join. *)
  type shape =
    | Trivial
    | Never
    | Steps of step array

  type plan = {
    p_arity : int;
    p_nslots : int;
    p_head : key_part array;
    p_qvars : (string * int) list;  (* {!vars} order, with slots *)
    p_shape : shape;
  }

  (* --- compilation --- *)

  let of_query idx q =
    Obs.incr c_built;
    let slots : (string, int) Hashtbl.t = Hashtbl.create 16 in
    let atom_vars =
      List.concat_map
        (fun a ->
           List.filter_map (function Var v -> Some v | Const _ -> None) a.args)
        q.atoms
    in
    List.iter
      (fun v ->
         if not (Hashtbl.mem slots v) then
           Hashtbl.add slots v (Hashtbl.length slots))
      atom_vars;
    let in_atoms v = Hashtbl.mem slots v in
    let head_ok =
      List.for_all
        (function Const _ -> true | Var v -> in_atoms v)
        q.head
    in
    let cmps_ok = List.for_all (fun c -> in_atoms c.subject) q.comparisons in
    let shape =
      if q.atoms = [] && q.comparisons = [] then Trivial
      else if not (head_ok && cmps_ok) then Never
      else begin
        (* Greedy join order: at each step take the atom with the most
           bound positions (constants count), breaking ties towards the
           smaller relation, then towards textual order. *)
        let bound : (string, unit) Hashtbl.t = Hashtbl.create 16 in
        let bound_count a =
          List.length
            (List.filter
               (function
                 | Const _ -> true
                 | Var v -> Hashtbl.mem bound v)
               a.args)
        in
        let score (i, a) =
          (bound_count a, -Eval_index.cardinal idx a.rel, -i)
        in
        let compile a =
          let key_cols = ref [] and key = ref [] in
          let binds = ref [] and eqs = ref [] in
          let new_here : (string, int) Hashtbl.t = Hashtbl.create 4 in
          List.iteri
            (fun i0 arg ->
               let col = i0 + 1 in
               match arg with
               | Const c ->
                 key_cols := col :: !key_cols;
                 key := K_const c :: !key
               | Var v ->
                 if Hashtbl.mem bound v then begin
                   key_cols := col :: !key_cols;
                   key := K_slot (Hashtbl.find slots v) :: !key
                 end
                 else (
                   match Hashtbl.find_opt new_here v with
                   | Some first_col -> eqs := (col, first_col) :: !eqs
                   | None ->
                     Hashtbl.add new_here v col;
                     binds := (col, Hashtbl.find slots v) :: !binds))
            a.args;
          let checks =
            List.filter_map
              (fun c ->
                 if Hashtbl.mem new_here c.subject then
                   Some
                     {
                       k_slot = Hashtbl.find slots c.subject;
                       k_op = c.op;
                       k_value = c.value;
                     }
                 else None)
              q.comparisons
          in
          Hashtbl.iter (fun v _ -> Hashtbl.replace bound v ()) new_here;
          let binds = List.rev !binds in
          {
            s_atom = a;
            s_width = List.length a.args;
            s_key_cols = List.rev !key_cols;
            s_key = Array.of_list (List.rev !key);
            s_bind_cols = Array.of_list (List.map (fun (c, _) -> c - 1) binds);
            s_bind_slots = Array.of_list (List.map snd binds);
            s_eqs =
              Array.of_list
                (List.rev_map (fun (c, c') -> (c - 1, c' - 1)) !eqs);
            s_checks = Array.of_list checks;
          }
        in
        let rec order acc remaining =
          match remaining with
          | [] -> List.rev acc
          | _ ->
            let best =
              List.fold_left
                (fun best cand ->
                   match best with
                   | None -> Some cand
                   | Some b -> if score cand > score b then Some cand else Some b)
                None remaining
              |> Option.get
            in
            let remaining =
              List.filter (fun (i, _) -> i <> fst best) remaining
            in
            order (compile (snd best) :: acc) remaining
        in
        Steps
          (Array.of_list (order [] (List.mapi (fun i a -> (i, a)) q.atoms)))
      end
    in
    let head =
      Array.of_list @@ List.map
        (function
          | Const c -> K_const c
          | Var v ->
            (* Dangling head variables only occur under [Trivial]/[Never],
               where the slot is never dereferenced. *)
            K_slot (Option.value ~default:(-1) (Hashtbl.find_opt slots v)))
        q.head
    in
    let qvars =
      match shape with
      | Trivial | Never -> []
      | Steps _ -> List.map (fun v -> (v, Hashtbl.find slots v)) (vars q)
    in
    {
      p_arity = arity q;
      p_nslots = Hashtbl.length slots;
      p_head = head;
      p_qvars = qvars;
      p_shape = shape;
    }

  (* --- execution --- *)

  (* Slots and keys start out holding this value; a slot is read only at
     steps after the one that binds it. *)
  let unbound = Value.Int 0

  (* Where a step's candidate tuples come from, fixed at its first visit
     in one evaluation: a relation's whole array, or a pattern index and
     the key array each visit refills. *)
  type source =
    | Unresolved
    | Scan of Tuple.t array
    | Probe of Eval_index.pattern * Value.t array
    | Absent

  let resolve idx st =
    match st.s_key_cols with
    | [] -> Scan (Eval_index.tuples idx st.s_atom.rel)
    | cols ->
      (match Eval_index.pattern idx ~rel:st.s_atom.rel ~cols with
       | Some p -> Probe (p, Array.make (Array.length st.s_key) unbound)
       | None -> Absent)

  (* The message [Tuple.get] raises for an atom wider than its
     relation's tuples. *)
  let too_wide (t : Tuple.t) =
    let n = Tuple.arity t in
    invalid_arg
      (Printf.sprintf "Tuple.get: attribute %d out of range 1..%d" (n + 1) n)

  (* Toplevel loops, not local closures: a visit allocates nothing. *)
  let rec eqs_hold st (t : Value.t array) i =
    i = Array.length st.s_eqs
    ||
    let c, c' = st.s_eqs.(i) in
    Value.equal t.(c) t.(c') && eqs_hold st t (i + 1)

  let rec checks_hold st (slots : Value.t array) i =
    i = Array.length st.s_checks
    ||
    let k = st.s_checks.(i) in
    Cmp_op.eval k.k_op slots.(k.k_slot) k.k_value && checks_hold st slots (i + 1)

  (* Run [f] on the slot array of every satisfying binding. Each step
     resolves its source once; a visit then reads its candidates in
     place, writes the slots it binds, and descends. The slot array,
     the key arrays and the sources are the walk's only allocations. *)
  let iter_bindings idx plan f =
    match plan.p_shape with
    | Trivial | Never -> ()
    | Steps steps ->
      let n = Array.length steps in
      let slots = Array.make (max plan.p_nslots 1) unbound in
      let sources = Array.make n Unresolved in
      let probes = ref 0 and scanned = ref 0 in
      let rec candidates i st =
        match sources.(i) with
        | Scan ts ->
          scanned := !scanned + Array.length ts;
          ts
        | Probe (p, key) ->
          for j = 0 to Array.length key - 1 do
            key.(j) <-
              (match st.s_key.(j) with K_const c -> c | K_slot s -> slots.(s))
          done;
          incr probes;
          Eval_index.lookup p key
        | Absent -> [||]
        | Unresolved ->
          sources.(i) <- resolve idx st;
          candidates i st
      in
      let rec go i =
        if i = n then f slots
        else begin
          let st = steps.(i) in
          let ts = candidates i st in
          if Array.length ts > 0 && Tuple.arity ts.(0) < st.s_width then
            too_wide ts.(0);
          for j = 0 to Array.length ts - 1 do
            let t = (ts.(j) :> Value.t array) in
            if eqs_hold st t 0 then begin
              for b = 0 to Array.length st.s_bind_cols - 1 do
                slots.(st.s_bind_slots.(b)) <- t.(st.s_bind_cols.(b))
              done;
              if checks_hold st slots 0 then go (i + 1)
            end
          done
        end
      in
      let report () = Eval_index.count ~probes:!probes ~scanned:!scanned in
      (match go 0 with
       | () -> report ()
       | exception e ->
         report ();
         raise e)

  let project plan (slots : Value.t array) =
    let head = plan.p_head in
    let t = Array.make (Array.length head) unbound in
    for i = 0 to Array.length head - 1 do
      t.(i) <- (match head.(i) with K_const c -> c | K_slot s -> slots.(s))
    done;
    Tuple.unsafe_of_array t

  (* [Trivial] queries have one empty binding; the head projects iff it is
     all constants (a head variable projects to nothing, exactly as the
     naive evaluator's [project] drops bindings missing a head variable). *)
  let trivial_head plan =
    if Array.for_all (function K_const _ -> true | K_slot _ -> false) plan.p_head
    then Some (project plan [||])
    else None

  let emit idx q b =
    let plan = of_query idx q in
    match plan.p_shape with
    | Never -> ()
    | Trivial ->
      Option.iter (Relation.push b) (trivial_head plan)
    | Steps _ ->
      iter_bindings idx plan (fun slots -> Relation.push b (project plan slots))

  let eval idx q =
    let b = Relation.builder ~arity:(arity q) in
    emit idx q b;
    Relation.build b

  exception Witness

  let holds idx q =
    let plan = of_query idx q in
    match plan.p_shape with
    | Never -> false
    | Trivial -> Option.is_some (trivial_head plan)
    | Steps _ ->
      (try
         iter_bindings idx plan (fun _ -> raise_notrace Witness);
         false
       with Witness -> true)

  let eval_assignments idx q =
    let plan = of_query idx q in
    match plan.p_shape with
    | Never -> []
    | Trivial ->
      (* One empty binding; it restricts to all query variables only when
         there are none (constant-only heads). *)
      if vars q = [] then [ [] ] else []
    | Steps _ ->
      let acc = ref [] in
      iter_bindings idx plan (fun slots ->
          acc := List.map (fun (v, s) -> (v, slots.(s))) plan.p_qvars :: !acc);
      List.sort_uniq Stdlib.compare !acc

  let pp_part ppf = function
    | K_const c -> Value.pp ppf c
    | K_slot s -> Format.fprintf ppf "$%d" s

  let pp ppf plan =
    match plan.p_shape with
    | Trivial -> Format.pp_print_string ppf "trivial"
    | Never -> Format.pp_print_string ppf "empty (unsafe head or comparison)"
    | Steps steps ->
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.fprintf ppf "@ -> ")
        (fun ppf st ->
           if st.s_key_cols = [] then
             Format.fprintf ppf "scan %s" st.s_atom.rel
           else
             Format.fprintf ppf "probe %s[%a](%a)" st.s_atom.rel
               (Format.pp_print_list
                  ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
                  Format.pp_print_int)
               st.s_key_cols
               (Format.pp_print_list
                  ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
                  pp_part)
               (Array.to_list st.s_key);
           Array.iter
             (fun k ->
                Format.fprintf ppf " [$%d %s %s]" k.k_slot
                  (Cmp_op.to_string k.k_op) (Value.to_string k.k_value))
             st.s_checks)
        ppf (Array.to_list steps)
end

(* One handle per call, owned (and dropped) by the call. *)
let eval q inst = Plan.eval (Eval_index.of_instance inst) q
let holds q inst = Plan.holds (Eval_index.of_instance inst) q
let eval_assignments q inst = Plan.eval_assignments (Eval_index.of_instance inst) q

let freeze ~fresh q =
  let term_value = function
    | Const v -> v
    | Var x -> fresh x
  in
  (* Batch the facts per relation so each relation is built once, instead
     of one [Instance.add_fact] map-rebuild per atom. *)
  let by_rel : (string, Value.t list list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun atom ->
       let row = List.map term_value atom.args in
       let prev = Option.value ~default:[] (Hashtbl.find_opt by_rel atom.rel) in
       Hashtbl.replace by_rel atom.rel (row :: prev))
    q.atoms;
  let inst =
    Hashtbl.fold
      (fun rel rows inst ->
         let arity =
           match rows with row :: _ -> List.length row | [] -> 0
         in
         Instance.add_relation rel (Relation.of_value_lists ~arity rows) inst)
      by_rel Instance.empty
  in
  (inst, Tuple.of_list (List.map term_value q.head))

let pp_term ppf = function
  | Var v -> Format.pp_print_string ppf v
  | Const c -> Value.pp ppf c

let pp_atom ppf a =
  Format.fprintf ppf "%s(%a)" a.rel
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       pp_term)
    a.args

let pp_comparison ppf c =
  Format.fprintf ppf "%s %a %a" c.subject Cmp_op.pp c.op Value.pp c.value

let pp ppf q =
  let pp_body ppf () =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " & ")
      pp_atom ppf q.atoms;
    if q.comparisons <> [] then begin
      if q.atoms <> [] then Format.pp_print_string ppf " & ";
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " & ")
        pp_comparison ppf q.comparisons
    end
  in
  Format.fprintf ppf "(%a) <- %a"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       pp_term)
    q.head pp_body ()
