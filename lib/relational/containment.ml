(* Representative values.

   The constants mentioned in either query carve the ordered domain into
   point regions {c} and open regions between/around consecutive constants.
   A canonical instantiation assigns each variable either a constant point
   or a value inside an open region. Two instantiations that agree on the
   region of every variable and on the equality pattern within regions are
   order-isomorphic over the constants, hence interchangeable.

   Moreover, instantiations that merge two variables inside one region are
   homomorphic images of the instantiation that keeps them distinct (the
   merge preserves atoms, constants and regions), and CQ matches transport
   along such homomorphisms — so for plain containment it suffices to give
   each variable its OWN representative per region, distinct from every
   other variable's. This keeps the per-variable candidate count at
   (#constants + #regions) instead of (#constants + #regions × #variables).

   That shortcut is only valid for properties closed under those merge
   homomorphisms. A caller that post-filters the instantiations — e.g.
   [Whynot_concept.Subsume_schema], which keeps only the FD-satisfying ones
   — must see the merged patterns explicitly: the FD-satisfying witnesses
   are often exactly the merges of an FD-violating distinct instantiation,
   so filtering the distinct-reps enumeration can leave nothing to check
   and turn a universally-quantified test vacuously true. [~merges:true]
   additionally lets the j-th variable reuse any earlier variable's
   representative within a region, which enumerates every equality pattern
   (only the pattern matters: comparisons are variable-vs-constant, so all
   values of one region are interchangeable). *)

let reps_between a b n =
  let rec loop lo acc k =
    if k = 0 then List.rev acc
    else
      match Value.between lo b with
      | None -> List.rev acc
      | Some v -> loop v (v :: acc) (k - 1)
  in
  loop a [] n

let reps_below b n =
  let rec loop hi acc k =
    if k = 0 then acc
    else
      let v = Value.below hi in
      loop v (v :: acc) (k - 1)
  in
  loop b [] n

let reps_above a n =
  let rec loop lo acc k =
    if k = 0 then List.rev acc
    else
      let v = Value.above lo in
      loop v (v :: acc) (k - 1)
  in
  loop a [] n

(* [region_reps constants n]: for each open region, up to [n] distinct
   representatives (the j-th variable uses the j-th); plus the constant
   points themselves. Returns (points, regions) where each region is a
   non-empty list of representatives. *)
let region_reps constants n =
  let cs = Value_set.to_sorted_list constants in
  match cs with
  | [] -> ([], [ List.init (max n 1) (fun i -> Value.Int i) ])
  | first :: _ ->
    let last = List.nth cs (List.length cs - 1) in
    let rec betweens = function
      | c1 :: (c2 :: _ as rest) ->
        let reps = reps_between c1 c2 n in
        (if reps = [] then [] else [ reps ]) @ betweens rest
      | _ -> []
    in
    let below = reps_below first n and above = reps_above last n in
    ( cs,
      (if below = [] then [] else [ below ])
      @ betweens cs
      @ if above = [] then [] else [ above ] )

let canonical_instantiations ?(merges = false) q ~extra_constants =
  let qvars = Cq.vars q in
  let n = List.length qvars in
  let points, regions =
    region_reps (Value_set.union (Cq.constants q) extra_constants) (max n 1)
  in
  let candidates_for j v =
    let itv = Cq.var_interval q v in
    let point_cands = List.filter (fun value -> Interval.mem value itv) points in
    let region_cands =
      List.concat_map
        (fun reps ->
           (* The j-th variable's private representative in this region is
              [reps.(j)]; if the region has fewer than j+1 values, variables
              share the last one (the region is too sparse for full
              distinctness, which only happens in genuinely sparse corners
              of the domain). With [merges], earlier variables' reps are
              also offered, so every within-region equality pattern gets
              enumerated. *)
           let own = min j (List.length reps - 1) in
           let cands =
             if merges then List.filteri (fun i _ -> i <= own) reps
             else [ List.nth reps own ]
           in
           List.filter (fun rep -> Interval.mem rep itv) cands)
        regions
    in
    point_cands @ region_cands
  in
  let rec assignments j = function
    | [] -> [ [] ]
    | v :: rest ->
      let tails = assignments (j + 1) rest in
      List.concat_map
        (fun value -> List.map (fun tl -> (v, value) :: tl) tails)
        (candidates_for j v)
  in
  List.map
    (fun assignment ->
       let fresh v =
         match List.assoc_opt v assignment with
         | Some value -> value
         | None -> Value.Str ("\000unbound:" ^ v)
       in
       Cq.freeze ~fresh q)
    (assignments 0 qvars)

let has_comparisons (q : Cq.t) = q.Cq.comparisons <> []

let ucq_has_comparisons (u : Ucq.t) = List.exists has_comparisons u.Ucq.disjuncts

(* Classical frozen-query test, sound and complete when no comparisons occur
   anywhere: freeze the left query with pairwise-distinct fresh values and
   evaluate the right side on the frozen instance. *)
let frozen_test q u =
  let fresh v = Value.Str ("\000frozen:" ^ v) in
  let inst, head = Cq.freeze ~fresh q in
  Relation.mem head (Ucq.eval u inst)

let cq_in_ucq q u =
  if Cq.arity q <> Ucq.arity u then
    invalid_arg "Containment.cq_in_ucq: arity mismatch";
  if Cq.is_unsatisfiable_syntactic q then true
  else if (not (has_comparisons q)) && not (ucq_has_comparisons u) then
    frozen_test q u
  else
    let extra_constants = Ucq.constants u in
    List.for_all
      (fun (inst, head) -> Relation.mem head (Ucq.eval u inst))
      (canonical_instantiations q ~extra_constants)

let cq_in_cq q1 q2 = cq_in_ucq q1 (Ucq.of_cq q2)

let ucq_in_ucq u1 u2 =
  List.for_all (fun q -> cq_in_ucq q u2) u1.Ucq.disjuncts
