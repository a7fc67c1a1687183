open Whynot_relational
open Whynot_concept

type t = {
  instance : Instance.t;
  query : Cq.t;
  answers : Relation.t;
  witness : Tuple.t;
}

let make ?answers ~instance ~query ~witness () =
  let witness = Tuple.of_list witness in
  if not (Cq.is_safe query) then Error (`Invalid_whynot "query is not safe")
  else if Tuple.arity witness <> Cq.arity query then
    Error (`Invalid_whynot "witness arity differs from the query's")
  else
    let answers =
      match answers with
      | Some r -> r
      | None -> Cq.eval query instance
    in
    if Relation.mem witness answers then
      Ok { instance; query; answers; witness }
    else Error (`Invalid_whynot "the witness tuple is not an answer")

(* The product of the extensions must lie inside the answer set. With the
   abstract membership interface this is checked by enumerating the product
   over the answer constants plus the witness — sound because extensions of
   derived concepts live in the active domain (plus nominals), and [All]
   extensions make the product infinite, hence never inside a finite answer
   set unless every combination over the probe set is an answer AND the
   query cannot produce other tuples; we conservatively reject [All] via
   the probe set as well. *)
let probe_values ~adom t =
  Value_set.union
    (Relation.values t.answers)
    (Value_set.of_list (Tuple.to_list t.witness))
  |> Value_set.union adom
  |> Value_set.elements

(* Each concept's membership test is staged once per product test. *)
let product_inside o t probes e =
  let rec loop prefix = function
    | [] -> Relation.mem (Tuple.of_list (List.rev prefix)) t.answers
    | m :: rest ->
      List.for_all (fun v -> if m v then loop (v :: prefix) rest else true)
        probes
  in
  loop [] (List.map o.Ontology.mem e)

let covers_witness o t e =
  List.length e = Tuple.arity t.witness
  && List.for_all2
       (fun c v -> o.Ontology.mem c v)
       e
       (Tuple.to_list t.witness)

let holds o t probes e = covers_witness o t e && product_inside o t probes e

let is_why_explanation o t e =
  holds o t (probe_values ~adom:(Instance.adom t.instance) t) e

let lub_of = function
  | Incremental.Selection_free -> Lub.lub
  | Incremental.With_selections -> fun h x -> Lub.lub_sigma h x

let replace_nth xs n x = List.mapi (fun i y -> if i = n then x else y) xs

(* Each call owns one memo handle, shared by its lubs, [O_I] and the
   final shortening; the probe values are built once per call, over the
   handle's active domain. *)
let one_mge ?(variant = Incremental.Selection_free) t =
  let inst = t.instance in
  let h = Subsume_memo.inst inst in
  let lub = lub_of variant h in
  let o = Ontology.of_instance ~handle:h inst in
  let adom = Subsume_memo.adom h in
  let probes = probe_values ~adom t in
  let m = Tuple.arity t.witness in
  let support =
    Array.of_list (List.map Value_set.singleton (Tuple.to_list t.witness))
  in
  let concepts = Array.map lub support in
  for j = 0 to m - 1 do
    Value_set.iter
      (fun b ->
         if not (o.Ontology.mem concepts.(j) b) then begin
           let x' = Value_set.add b support.(j) in
           let c' = lub x' in
           let e' = replace_nth (Array.to_list concepts) j c' in
           if holds o t probes e' then begin
             support.(j) <- x';
             concepts.(j) <- c'
           end
         end)
      adom
  done;
  List.map (Irredundant.minimise h) (Array.to_list concepts)

let check_mge ?(variant = Incremental.Selection_free) t e =
  let inst = t.instance in
  let h = Subsume_memo.inst inst in
  let lub = lub_of variant h in
  let o = Ontology.of_instance ~handle:h inst in
  let adom = Subsume_memo.adom h in
  let probes = probe_values ~adom t in
  if not (holds o t probes e) then false
  else
    let improvable j c =
      match Subsume_memo.extension h c with
      | Semantics.All -> false
      | Semantics.Fin ext ->
        Value_set.exists
          (fun b ->
             (not (Value_set.mem b ext))
             &&
             let c' = lub (Value_set.add b ext) in
             holds o t probes (replace_nth e j c'))
          adom
    in
    not
      (List.exists (fun (j, c) -> improvable j c)
         (List.mapi (fun j c -> (j, c)) e))
