type t =
  | Eq
  | Lt
  | Gt
  | Le
  | Ge

let eval op v c =
  let d = Value.compare v c in
  match op with
  | Eq -> d = 0
  | Lt -> d < 0
  | Gt -> d > 0
  | Le -> d <= 0
  | Ge -> d >= 0

let to_string = function
  | Eq -> "="
  | Lt -> "<"
  | Gt -> ">"
  | Le -> "<="
  | Ge -> ">="

let pp ppf op = Format.pp_print_string ppf (to_string op)

let all = [ Eq; Lt; Gt; Le; Ge ]
