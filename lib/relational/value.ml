type t =
  | Int of int
  | Real of float
  | Str of string

(* Numbers < strings. Among numbers: numeric order, [Int n] just below
   [Real x] at ties so the order stays total and antisymmetric. *)
let compare v1 v2 =
  match v1, v2 with
  | Int a, Int b -> Stdlib.compare a b
  | Real a, Real b -> Stdlib.compare a b
  | Int a, Real b ->
    let c = Stdlib.compare (float_of_int a) b in
    if c <> 0 then c else -1
  | Real a, Int b ->
    let c = Stdlib.compare a (float_of_int b) in
    if c <> 0 then c else 1
  | Str a, Str b -> Stdlib.compare a b
  | (Int _ | Real _), Str _ -> -1
  | Str _, (Int _ | Real _) -> 1

(* Tuples built from one source share their values: a shared value is
   equal to itself without a look inside. *)
let equal v1 v2 = v1 == v2 || compare v1 v2 = 0

let hash = function
  | Int n -> Hashtbl.hash (0, n)
  | Real x -> Hashtbl.hash (1, x)
  | Str s -> Hashtbl.hash (2, s)

(* The decimal digits of [m <= 0]'s absolute value, none for 0. *)
let rec add_digits buf m =
  if m <> 0 then begin
    add_digits buf (m / 10);
    Buffer.add_char buf (Char.unsafe_chr (Char.code '0' - (m mod 10)))
  end

(* The digits come from [-|n|], which exists for every [n], [min_int]
   included. *)
let add_decimal buf n =
  if n = 0 then Buffer.add_char buf '0'
  else if n < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf n
  end
  else add_digits buf (-n)

(* Built directly: [Format] would be pulled into the code path of every
   wire reply that renders a constant. The quoted form is what [%S]
   prints. *)
let to_string = function
  | Int n ->
    let buf = Buffer.create 20 in
    add_decimal buf n;
    Buffer.contents buf
  | Real x -> Printf.sprintf "%g" x
  | Str s -> "\"" ^ String.escaped s ^ "\""

let pp ppf v = Format.pp_print_string ppf (to_string v)

let of_string s =
  let s =
    let n = String.length s in
    if n >= 2 && s.[0] = '"' && s.[n - 1] = '"' then String.sub s 1 (n - 2)
    else s
  in
  match int_of_string_opt s with
  | Some n -> Int n
  | None ->
    (match float_of_string_opt s with
     | Some x -> Real x
     | None -> Str s)

let int n = Int n
let real x = Real x
let str s = Str s

let to_float = function
  | Int n -> float_of_int n
  | Real x -> x
  | Str _ -> invalid_arg "Value.to_float"

(* A string strictly between [a] and [b] under lexicographic order, if any.
   Appending the minimal character '\001' to [a] yields the least string
   strictly above [a] among extensions of [a]; it is below [b] unless [b] is
   that very string or [a] followed by NUL-like prefixes of it. *)
let between_str a b =
  let cand = a ^ "\001" in
  if Stdlib.compare a cand < 0 && Stdlib.compare cand b < 0 then Some cand
  else None

let between v1 v2 =
  let a, b = if compare v1 v2 <= 0 then v1, v2 else v2, v1 in
  if equal a b then None
  else
    match a, b with
    | (Int _ | Real _), (Int _ | Real _) ->
      let x = to_float a and y = to_float b in
      if x < y then Some (Real ((x +. y) /. 2.))
      else
        (* Same numeric value, i.e. [Int n < Real n]: the gap is empty. *)
        None
    | (Int _ | Real _), Str _ ->
      (* Any number above [a] works, since numbers < strings. *)
      Some (Real (to_float a +. 1.))
    | Str a, Str b -> Option.map str (between_str a b)
    | Str _, (Int _ | Real _) -> assert false

let below = function
  | Int n -> Int (n - 1)
  | Real x -> Real (x -. 1.)
  | Str _ ->
    (* Strings sit above every number. *)
    Real 0.

let above = function
  | Int n -> Int (n + 1)
  | Real x -> Real (x +. 1.)
  | Str s -> Str (s ^ "\001")
