type t = Value.t array

let of_list vs = Array.of_list vs
let unsafe_of_array a = a
let to_list t = Array.to_list t
let arity t = Array.length t

let get t a =
  if a < 1 || a > Array.length t then
    invalid_arg
      (Printf.sprintf "Tuple.get: attribute %d out of range 1..%d" a
         (Array.length t))
  else t.(a - 1)

let proj attrs t = Array.of_list (List.map (fun a -> get t a) attrs)
let append t1 t2 = Array.append t1 t2

(* A toplevel loop, not a local closure: sorting and searching call
   [compare] often enough that a closure per call shows. *)
let rec compare_from t1 t2 i =
  if i >= Array.length t1 then 0
  else if t1.(i) == t2.(i) then compare_from t1 t2 (i + 1)
  else
    let c = Value.compare t1.(i) t2.(i) in
    if c <> 0 then c else compare_from t1 t2 (i + 1)

let compare t1 t2 =
  let n1 = Array.length t1 and n2 = Array.length t2 in
  if n1 <> n2 then Int.compare n1 n2 else compare_from t1 t2 0

let equal t1 t2 = compare t1 t2 = 0

let pp ppf t =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Value.pp)
    (Array.to_list t)

let to_string t = Format.asprintf "%a" pp t
