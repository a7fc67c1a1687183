module Int_set = Set.Make (Int)

type t = {
  universe : int list;
  sets : (string * int list) list;
}

let make ~universe ~sets =
  let universe = List.sort_uniq Stdlib.compare universe in
  let sets =
    List.map
      (fun (name, elems) ->
         ( name,
           List.sort_uniq Stdlib.compare
             (List.filter (fun e -> List.mem e universe) elems) ))
      sets
  in
  { universe; sets }

let set_elems t name =
  match List.assoc_opt name t.sets with
  | Some es -> Int_set.of_list es
  | None -> Int_set.empty

let is_cover t names =
  let covered =
    List.fold_left
      (fun acc name -> Int_set.union acc (set_elems t name))
      Int_set.empty names
  in
  Int_set.subset (Int_set.of_list t.universe) covered

(* Branch and bound on the uncovered elements: always branch on an
   uncovered element, over the sets containing it. *)
let exact_min_cover t =
  if not (is_cover t (List.map fst t.sets)) then None
  else
    let best = ref None in
    let best_size = ref max_int in
    let rec search chosen covered =
      if List.length chosen >= !best_size then ()
      else
        match
          List.find_opt (fun e -> not (Int_set.mem e covered)) t.universe
        with
        | None ->
          best_size := List.length chosen;
          best := Some (List.rev chosen)
        | Some e ->
          List.iter
            (fun (name, elems) ->
               if List.mem e elems then
                 search (name :: chosen)
                   (Int_set.union covered (Int_set.of_list elems)))
            t.sets
    in
    search [] Int_set.empty;
    !best

let exists_cover_of_size t k =
  match exact_min_cover t with
  | None -> false
  | Some cover -> List.length cover <= k

let random ?(seed = 42) ~n_elements ~n_sets ~density () =
  let st = Random.State.make [| seed |] in
  let universe = List.init n_elements (fun i -> i) in
  let sets =
    List.init n_sets (fun j ->
        ( Printf.sprintf "S%d" j,
          List.filter (fun _ -> Random.State.float st 1.0 < density) universe ))
  in
  (* Ensure coverage: put each element into a pseudo-random set. *)
  let sets =
    List.mapi
      (fun j (name, elems) ->
         let forced =
           List.filter (fun e -> e mod n_sets = j) universe
         in
         (name, forced @ elems))
      sets
  in
  make ~universe ~sets
