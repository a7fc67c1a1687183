type t = int array

let width = Sys.int_size
let empty n =
  if n <= width then [| 0 |] else Array.make ((n + width - 1) / width) 0
let add s i = s.(i / width) <- s.(i / width) lor (1 lsl (i mod width))

let full n =
  let s = empty n in
  for i = 0 to n - 1 do add s i done;
  s

let mem s i = s.(i / width) land (1 lsl (i mod width)) <> 0

let remove s i =
  if Array.length s = 1 then [| s.(0) land lnot (1 lsl i) |]
  else begin
    let s = Array.copy s in
    s.(i / width) <- s.(i / width) land lnot (1 lsl (i mod width));
    s
  end

(* The multi-word loops run from word [k] on, as top-level functions so
   that a test allocates no closure. *)

let rec is_empty_from s k =
  k = Array.length s || (s.(k) = 0 && is_empty_from s (k + 1))

let is_empty s = is_empty_from s 0
let equal (a : t) b = a = b

let union a b =
  if Array.length a = 1 then [| a.(0) lor b.(0) |] else Array.map2 ( lor ) a b

let inter a b =
  if Array.length a = 1 then [| a.(0) land b.(0) |]
  else Array.map2 ( land ) a b

let rec subset_from a b k =
  k = Array.length a || (a.(k) land lnot b.(k) = 0 && subset_from a b (k + 1))

let subset a b =
  if Array.length a = 1 then a.(0) land lnot b.(0) = 0 else subset_from a b 0

let rec disjoint_from a b k =
  k = Array.length a || (a.(k) land b.(k) = 0 && disjoint_from a b (k + 1))

let disjoint a b =
  if Array.length a = 1 then a.(0) land b.(0) = 0 else disjoint_from a b 0

let rec inter_subset_from a b c k =
  k = Array.length a
  || (a.(k) land b.(k) land lnot c.(k) = 0 && inter_subset_from a b c (k + 1))

let inter_subset a b c =
  if Array.length a = 1 then a.(0) land b.(0) land lnot c.(0) = 0
  else inter_subset_from a b c 0

let rec covers_from all a b k =
  k = Array.length all
  || (all.(k) land lnot (a.(k) lor b.(k)) = 0 && covers_from all a b (k + 1))

let covers all a b = covers_from all a b 0

(* A byte of zeros is skipped at once. *)
let rec iter_word f base w =
  if w <> 0 then
    if w land 0xff = 0 then iter_word f (base + 8) (w lsr 8)
    else begin
      if w land 1 <> 0 then f base;
      iter_word f (base + 1) (w lsr 1)
    end

let iter f s =
  for k = 0 to Array.length s - 1 do
    iter_word f (k * width) s.(k)
  done
