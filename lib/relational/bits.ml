type t = int array

let width = Sys.int_size
let empty n = Array.make ((n + width - 1) / width) 0
let add s i = s.(i / width) <- s.(i / width) lor (1 lsl (i mod width))

let full n =
  let s = empty n in
  for i = 0 to n - 1 do add s i done;
  s

let mem s i = s.(i / width) land (1 lsl (i mod width)) <> 0
let clear s i = s.(i / width) <- s.(i / width) land lnot (1 lsl (i mod width))

let remove s i =
  let s = Array.copy s in
  clear s i;
  s

let is_empty s = Array.for_all (fun w -> w = 0) s
let equal (a : t) b = a = b

let union a b =
  if Array.length a = 1 then [| a.(0) lor b.(0) |] else Array.map2 ( lor ) a b

let inter a b =
  if Array.length a = 1 then [| a.(0) land b.(0) |]
  else Array.map2 ( land ) a b

let subset a b =
  if Array.length a = 1 then a.(0) land lnot b.(0) = 0
  else
    let rec go k =
      k = Array.length a || (a.(k) land lnot b.(k) = 0 && go (k + 1))
    in
    go 0

let covers all a b =
  let rec go k =
    k = Array.length all
    || (all.(k) land lnot (a.(k) lor b.(k)) = 0 && go (k + 1))
  in
  go 0

let iter f s =
  Array.iteri
    (fun k w ->
       if w <> 0 then
         for i = 0 to width - 1 do
           if w land (1 lsl i) <> 0 then f ((k * width) + i)
         done)
    s

(* The index of the lowest set bit of a non-zero word. *)
let lowest w =
  let rec go i = if w land (1 lsl i) <> 0 then i else go (i + 1) in
  go 0

let sole s =
  let rec go k found =
    if k = Array.length s then found
    else
      let w = s.(k) in
      if w = 0 then go (k + 1) found
      else if found >= 0 || w land (w - 1) <> 0 then -2
      else go (k + 1) ((k * width) + lowest w)
  in
  if Array.length s = 1 then
    let w = s.(0) in
    if w = 0 then -1 else if w land (w - 1) <> 0 then -2 else lowest w
  else go 0 (-1)
