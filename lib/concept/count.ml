open Whynot_relational

let positions schema = List.length (Schema.positions schema)

let count_minimal schema ~k = 1 + k + positions schema

(* Canonical intervals over k ordered constants: lower bound is -inf or
   open/closed at one of k constants (2k + 1 options), same for the upper
   bound, minus nothing — plus one canonical empty interval. Not all
   combinations are distinct as sets of values, but each is a distinct
   canonical form. *)
let intervals_per_attribute ~k = ((2 * k) + 1) * ((2 * k) + 1) + 1

let atomic_selection_concepts schema ~k =
  (* Per position (R, A): an interval for each attribute of R. *)
  List.fold_left
    (fun acc (rel, _attr) ->
       let arity =
         match Schema.arity schema rel with Some a -> a | None -> 0
       in
       acc +. float_of_int (intervals_per_attribute ~k) ** float_of_int arity)
    0. (Schema.positions schema)

let count_selection_free schema ~k =
  (* Subsets of positions × (no nominal | one of k nominals), plus the
     collapsed unsatisfiable class. *)
  (2. ** float_of_int (positions schema)) *. float_of_int (k + 1) +. 1.

let count_full schema ~k =
  (2. ** atomic_selection_concepts schema ~k) *. float_of_int (k + 1) +. 1.

(* The full count overflows floats almost immediately; its base-10
   logarithm stays printable: log10(2^a * (k+1) + 1) ~ a*log10 2 + log10(k+1). *)
let count_full_log10 schema ~k =
  (atomic_selection_concepts schema ~k *. Float.log10 2.)
  +. Float.log10 (float_of_int (k + 1))

let enumerate_selection_free inst nominal_pool =
  let positions =
    List.concat_map
      (fun name ->
         match Instance.relation inst name with
         | None -> []
         | Some r ->
           List.init (Relation.arity r) (fun i ->
               Ls.Proj { rel = name; attr = i + 1; sels = [] }))
      (Instance.relation_names inst)
  in
  let rec subsets = function
    | [] -> [ [] ]
    | x :: rest ->
      let tails = subsets rest in
      tails @ List.map (fun s -> x :: s) tails
  in
  let proj_sets = subsets positions in
  let nominal_options =
    None :: List.map Option.some (Value_set.elements nominal_pool)
  in
  List.concat_map
    (fun projs ->
       List.map
         (fun nom ->
            match nom with
            | None -> Ls.of_conjuncts projs
            | Some v -> Ls.of_conjuncts (Ls.Nominal v :: projs))
         nominal_options)
    proj_sets
