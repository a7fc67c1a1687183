open Whynot_relational

type selection = {
  attr : int;
  op : Cmp_op.t;
  value : Value.t;
}

type conjunct =
  | Nominal of Value.t
  | Proj of {
      rel : string;
      attr : int;
      sels : selection list;
    }

type t = conjunct list

module Int_map = Map.Make (Int)

(* Normalise a selection list: group per attribute, meet the intervals, and
   re-emit canonical conditions (at most two per attribute; a single [=] for
   point intervals). An empty interval is re-emitted as an unsatisfiable
   canonical pair so the concept keeps an empty extension syntactically. *)
let normalise_sels sels =
  let by_attr =
    List.fold_left
      (fun m s ->
         let itv = Interval.of_condition s.op s.value in
         Int_map.update s.attr
           (function
             | None -> Some itv
             | Some itv' -> Some (Interval.meet itv itv'))
           m)
      Int_map.empty sels
  in
  Int_map.fold
    (fun attr itv acc ->
       let conds =
         if Interval.is_empty itv then
           (* Canonical unsatisfiable condition pair. *)
           [ (Cmp_op.Lt, Value.Int 0); (Cmp_op.Gt, Value.Int 0) ]
         else Interval.to_conditions itv
       in
       acc @ List.map (fun (op, value) -> { attr; op; value }) conds)
    by_attr []

let normalise_conjunct = function
  | (Nominal _ | Proj { sels = []; _ }) as c -> c
  | Proj p -> Proj { p with sels = normalise_sels p.sels }

let of_conjuncts = function
  | [] -> []
  | [ c ] -> [ normalise_conjunct c ]
  | cs -> List.sort_uniq Stdlib.compare (List.map normalise_conjunct cs)

let top = []
let nominal c = [ Nominal c ]
let proj ?(sels = []) ~rel ~attr () = of_conjuncts [ Proj { rel; attr; sels } ]
let meet c1 c2 = of_conjuncts (c1 @ c2)
let meet_all cs = of_conjuncts (List.concat cs)
let conjuncts t = t

(* Deeper than [Hashtbl.hash], whose ten leaves cover about three
   conjuncts, on which a finite ontology's concepts often agree. Like
   [Stdlib.compare], it does not tell [-0.0] from [0.0]. *)
let hash t = Hashtbl.hash_param 256 256 t

let is_top t = t = []

let is_selection_free t =
  List.for_all
    (function Nominal _ -> true | Proj { sels; _ } -> sels = [])
    t

let is_intersection_free t = List.length t <= 1

let is_minimal t = is_intersection_free t && is_selection_free t

let constants t =
  List.fold_left
    (fun acc c ->
       match c with
       | Nominal v -> Value_set.add v acc
       | Proj { sels; _ } ->
         List.fold_left (fun acc s -> Value_set.add s.value acc) acc sels)
    Value_set.empty t

let size t =
  match t with
  | [] -> 1 (* top *)
  | cs ->
    List.fold_left
      (fun acc c ->
         acc
         + (match c with
            | Nominal _ -> 1
            | Proj { sels; _ } ->
              (* pi, attribute, relation + 3 tokens per condition. *)
              3 + (3 * List.length sels)))
      (List.length cs - 1) (* ⊓ symbols *)
      cs

let compare t1 t2 = if t1 == t2 then 0 else Stdlib.compare t1 t2
let equal t1 t2 = compare t1 t2 = 0

let attr_label schema rel attr =
  match schema with
  | Some s ->
    (match Schema.attr_name s ~rel attr with
     | Some name -> name
     | None -> Printf.sprintf "#%d" attr)
  | None -> Printf.sprintf "#%d" attr

let pp_selection schema rel ppf s =
  Format.fprintf ppf "%s%a%a"
    (attr_label schema rel s.attr)
    Cmp_op.pp s.op Value.pp s.value

let pp_conjunct schema ppf = function
  | Nominal v -> Format.fprintf ppf "{%a}" Value.pp v
  | Proj { rel; attr; sels = [] } ->
    Format.fprintf ppf "pi_%s(%s)" (attr_label schema rel attr) rel
  | Proj { rel; attr; sels } ->
    Format.fprintf ppf "pi_%s(sigma_{%a}(%s))"
      (attr_label schema rel attr)
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (pp_selection schema rel))
      sels rel

let pp ?schema () ppf t =
  match t with
  | [] -> Format.pp_print_string ppf "top"
  | cs ->
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " n ")
      (pp_conjunct schema) ppf cs

let pp_sql_conjunct schema ppf = function
  | Nominal v -> Value.pp ppf v
  | Proj { rel; attr; sels = [] } ->
    Format.fprintf ppf "%s from %s" (attr_label schema rel attr) rel
  | Proj { rel; attr; sels } ->
    Format.fprintf ppf "%s from %s where %a"
      (attr_label schema rel attr)
      rel
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " AND ")
         (pp_selection schema rel))
      sels

let pp_sql ?schema () ppf t =
  match t with
  | [] -> Format.pp_print_string ppf "anything"
  | cs ->
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.fprintf ppf "@ AND ")
      (pp_sql_conjunct schema) ppf cs

let to_string ?schema t = Format.asprintf "%a" (pp ?schema ()) t
