open Whynot_relational
open Whynot_dllite

module Basic_tbl = Hashtbl.Make (struct
    type t = Dl.basic

    let equal = Dl.equal_basic
    let hash = Hashtbl.hash
  end)

type t = {
  spec : Spec.t;
  reasoner : Reasoner.t;
  retrieved : Interp.t;
  instance : Instance.t;
  bases : (Dl.basic * Value_set.t) list;
  (* base (pre-closure) extensions, computed once at {!prepare} — they
     only depend on the retrieved interpretation, and [extension] /
     [consistent] / [base_concepts_of] all fold over them *)
  ext_cache : Value_set.t Basic_tbl.t;
  (* A prepared value may be shared by several threads or domains, and
     [extension] updates this cache; the update must not lose entries. *)
  ext_lock : Mutex.t;
}

(* All basic concepts with a non-empty retrieved (pre-closure) extension,
   with those extensions. *)
let compute_base_extensions spec retrieved =
  let tb = Spec.tbox spec in
  let atoms = Tbox.atomic_concepts tb in
  let roles = Tbox.atomic_roles tb in
  let of_atom a = (Dl.Atom a, Interp.concept_ext retrieved (Dl.Atom a)) in
  let of_role p =
    [
      (Dl.Exists (Dl.Named p), Interp.concept_ext retrieved (Dl.Exists (Dl.Named p)));
      (Dl.Exists (Dl.Inv p), Interp.concept_ext retrieved (Dl.Exists (Dl.Inv p)));
    ]
  in
  List.map of_atom atoms @ List.concat_map of_role roles

let prepare spec inst =
  let retrieved = Spec.retrieve spec inst in
  {
    spec;
    reasoner = Reasoner.saturate (Spec.tbox spec);
    retrieved;
    instance = inst;
    bases = compute_base_extensions spec retrieved;
    ext_cache = Basic_tbl.create 32;
    ext_lock = Mutex.create ();
  }

let instance t = t.instance

let spec t = t.spec
let retrieved t = t.retrieved

let concepts t = Tbox.occurring_basic_concepts (Spec.tbox t.spec)

let subsumes t b1 b2 = Reasoner.subsumes t.reasoner b1 b2

let base_extensions t = t.bases

let extension t c =
  Mutex.protect t.ext_lock (fun () ->
      match Basic_tbl.find_opt t.ext_cache c with
      | Some ext -> ext
      | None ->
        let ext =
          List.fold_left
            (fun acc (b0, base) ->
               if Reasoner.subsumes t.reasoner b0 c then
                 Value_set.union base acc
               else acc)
            Value_set.empty t.bases
        in
        Basic_tbl.add t.ext_cache c ext;
        ext)

let base_concepts_of t v =
  List.filter_map
    (fun (b, ext) -> if Value_set.mem v ext then Some b else None)
    (base_extensions t)

let consistent t =
  let bases = base_extensions t in
  (* Derived basic-concept memberships per constant must avoid derived
     disjointness; it suffices to check the base concepts pairwise, since
     the disjointness relation is already closed downward under ⊑. *)
  let concept_clash =
    List.find_map
      (fun (b1, ext1) ->
         List.find_map
           (fun (b2, ext2) ->
              if Reasoner.disjoint t.reasoner b1 b2 then
                match Value_set.choose_opt (Value_set.inter ext1 ext2) with
                | Some c ->
                  Some
                    (Format.asprintf "%a is asserted into disjoint %a and %a"
                       Value.pp c Dl.pp_basic b1 Dl.pp_basic b2)
                | None -> None
              else None)
           bases)
      bases
  in
  match concept_clash with
  | Some msg -> Error msg
  | None ->
    let unsat_clash =
      List.find_map
        (fun (b, ext) ->
           if Reasoner.unsatisfiable t.reasoner b && not (Value_set.is_empty ext)
           then Some (Format.asprintf "non-empty unsatisfiable concept %a" Dl.pp_basic b)
           else None)
        bases
    in
    (match unsat_clash with
     | Some msg -> Error msg
     | None ->
       (* Role disjointness on retrieved edges. *)
       let roles = Tbox.atomic_roles (Spec.tbox t.spec) in
       let edge_clash =
         List.find_map
           (fun p1 ->
              List.find_map
                (fun p2 ->
                   if
                     Reasoner.role_disjoint t.reasoner (Dl.Named p1) (Dl.Named p2)
                     && List.exists
                          (fun e ->
                             List.mem e (Interp.role_ext t.retrieved (Dl.Named p2)))
                          (Interp.role_ext t.retrieved (Dl.Named p1))
                   then Some (Printf.sprintf "edge in disjoint roles %s, %s" p1 p2)
                   else
                     if
                       Reasoner.role_disjoint t.reasoner (Dl.Named p1) (Dl.Inv p2)
                       && List.exists
                            (fun e ->
                               List.mem e (Interp.role_ext t.retrieved (Dl.Inv p2)))
                            (Interp.role_ext t.retrieved (Dl.Named p1))
                     then Some (Printf.sprintf "edge in disjoint roles %s, %s-" p1 p2)
                     else None)
                roles)
           roles
       in
       (match edge_clash with
        | Some msg -> Error msg
        | None -> Ok ()))
