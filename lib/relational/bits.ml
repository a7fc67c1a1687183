type t = int array

let width = Sys.int_size
let empty n = Array.make ((n + width - 1) / width) 0
let add s i = s.(i / width) <- s.(i / width) lor (1 lsl (i mod width))

let full n =
  let s = empty n in
  for i = 0 to n - 1 do add s i done;
  s

let mem s i = s.(i / width) land (1 lsl (i mod width)) <> 0

let remove s i =
  let s = Array.copy s in
  s.(i / width) <- s.(i / width) land lnot (1 lsl (i mod width));
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
