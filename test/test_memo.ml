(* Unit tests for the memoised subsumption layer (Subsume_memo):
   hit/miss accounting on the observability counters, independence of
   per-schema handles (a schema with a different constraint set must never
   see another schema's verdicts), concept identity, and a
   replay of the pinned FD-selection corpus seeds through the cached
   decider. *)

open Whynot_relational
module Ls = Whynot_concept.Ls
module Semantics = Whynot_concept.Semantics
module Memo = Whynot_concept.Subsume_memo
module Subsume_schema = Whynot_concept.Subsume_schema
module Obs = Whynot_obs.Obs
module Props = Whynot_proptest.Props
module Corpus = Whynot_proptest.Corpus

let sel attr op value = { Ls.attr; op; value }

let instance =
  List.fold_left
    (fun inst (a, b) ->
       Instance.add_fact "R" [ Value.int a; Value.int b ] inst)
    Instance.empty
    [ (1, 5); (1, 7); (2, 5); (3, 9) ]

let pi1 sels = Ls.proj ~rel:"R" ~attr:1 ~sels ()

let counter name = Obs.value (Obs.counter name)

(* [⊑_I] keeps no verdicts: [Memo.subsumes] reads the two memoised
   extensions, so its cache traffic is counted by [memo.ext.*]. *)
let test_hit_accounting () =
  let c1 = pi1 [ sel 2 Cmp_op.Eq (Value.int 5) ] in
  let c2 = pi1 [] in
  let calls0 = counter "memo.ext.calls" in
  let hits0 = counter "memo.ext.hits" in
  let h = Memo.inst instance in
  let first = Memo.subsumes h c1 c2 in
  Alcotest.(check bool) "verdict" true first;
  Alcotest.(check int) "one call per side" (calls0 + 2)
    (counter "memo.ext.calls");
  Alcotest.(check int) "no hit yet" hits0 (counter "memo.ext.hits");
  let again = Memo.subsumes h c1 c2 in
  Alcotest.(check bool) "same verdict from cache" first again;
  Alcotest.(check int) "four calls" (calls0 + 4) (counter "memo.ext.calls");
  Alcotest.(check int) "both sides hit" (hits0 + 2) (counter "memo.ext.hits");
  (* Handles are owned, not interned: a fresh [Memo.inst] of the same
     instance starts cold and misses. *)
  let _ = Memo.subsumes (Memo.inst instance) c1 c2 in
  Alcotest.(check int) "a fresh handle misses" (hits0 + 2)
    (counter "memo.ext.hits")

let test_extension_agrees () =
  let h = Memo.inst instance in
  List.iter
    (fun c ->
       Alcotest.(check bool)
         (Printf.sprintf "extension of %s" (Ls.to_string c))
         true
         (Semantics.ext_equal (Memo.extension h c)
            (Semantics.extension c instance)))
    [
      Ls.top;
      pi1 [];
      pi1 [ sel 2 Cmp_op.Gt (Value.int 6) ];
      Ls.meet (pi1 []) (Ls.nominal (Value.int 1));
    ]

(* C1 = pi_1(sigma_{2=5} R) ⊓ pi_1(sigma_{2=7} R) is unsatisfiable under
   the FD R: 1 -> 2 (one key, two values), hence subsumed by anything;
   without constraints the witness x with facts (x,5), (x,7) refutes the
   subsumption. Two schema handles must therefore produce different cached
   verdicts for the same concept pair — a
   shared (or stale) memo table would be caught immediately. *)
let test_schema_handles_independent () =
  let decls = [ { Schema.name = "R"; attrs = [ "a"; "b" ] } ] in
  let fd_schema =
    Schema.make_exn ~fds:[ Fd.make ~rel:"R" ~lhs:[ 1 ] ~rhs:[ 2 ] ] decls
  in
  let plain_schema = Schema.make_exn decls in
  let c1 =
    Ls.meet
      (pi1 [ sel 2 Cmp_op.Eq (Value.int 5) ])
      (pi1 [ sel 2 Cmp_op.Eq (Value.int 7) ])
  in
  let c2 = pi1 [ sel 2 Cmp_op.Eq (Value.int 9) ] in
  let h_fd = Memo.schema fd_schema in
  let h_plain = Memo.schema plain_schema in
  Alcotest.(check bool)
    "constraint classes differ" true
    (Memo.constraint_class h_fd <> Memo.constraint_class h_plain);
  (* Ask through the cache twice per schema, interleaved, and compare each
     answer with the uncached oracle. *)
  List.iter
    (fun (label, h, s) ->
       let oracle = Subsume_schema.decide s c1 c2 in
       Alcotest.(check bool)
         (label ^ ": cached = oracle") true
         (Memo.decide h c1 c2 = oracle);
       Alcotest.(check bool)
         (label ^ ": replay = oracle") true
         (Memo.decide h c1 c2 = oracle))
    [
      ("fd", h_fd, fd_schema);
      ("plain", h_plain, plain_schema);
      ("fd again", h_fd, fd_schema);
    ];
  Alcotest.(check bool)
    "FD changes the verdict" true
    (Memo.decide h_fd c1 c2 <> Memo.decide h_plain c1 c2)

(* Concepts are plain values: equality and hashing are structural on the
   normal form, a rebuilt concept finds the cache entries of an equal one,
   and a handle hands out one representative per lub it computes. *)
let test_concept_identity () =
  let c1 = Ls.meet (pi1 []) (Ls.nominal (Value.int 1)) in
  let c2 = Ls.meet (Ls.nominal (Value.int 1)) (pi1 []) in
  let c3 = Ls.meet (pi1 []) (Ls.nominal (Value.int 2)) in
  Alcotest.(check bool) "normalised equals are equal" true (Ls.equal c1 c2);
  Alcotest.(check int) "normalised equals hash alike" (Ls.hash c1) (Ls.hash c2);
  Alcotest.(check bool) "distinct concepts are not equal" false
    (Ls.equal c1 c3);
  let h = Memo.inst instance in
  ignore (Memo.extension h c1);
  let hits0 = counter "memo.ext.hits" in
  ignore (Memo.extension h c2);
  Alcotest.(check int) "a rebuilt equal concept hits the extension cache"
    (hits0 + 1) (counter "memo.ext.hits");
  (* Column 1 of R holds 1, 1, 2, 3 and column 2 none of them: {1, 2} and
     {1, 3} both have the lub pi_1(R), computed twice (selection-free
     lubs are not memoised) and stored once. *)
  let set vs = Value_set.of_list (List.map Value.int vs) in
  let l12 = Whynot_concept.Lub.lub h (set [ 1; 2 ]) in
  let l13 = Whynot_concept.Lub.lub h (set [ 1; 3 ]) in
  Alcotest.(check bool) "both lubs are pi_1(R)" true
    (Ls.equal l12 (pi1 []) && Ls.equal l13 (pi1 []));
  Alcotest.(check bool) "equal lubs share the handle's representative" true
    (l12 == l13)

(* The pinned FD-selection seeds once exposed an unsound Fds_only verdict;
   replay them through the cached decider as well, via the differential
   property that compares Subsume_memo.decide against the uncached
   oracle on every generated case. *)
let test_corpus_replay_cached () =
  let entries =
    match Corpus.load_file "corpus/subsume-fd-selections.repro" with
    | Ok entries -> entries
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check bool) "corpus file has entries" true (entries <> []);
  let prop =
    match Props.find "memo/subsume-schema-cached-vs-uncached" with
    | Some p -> p
    | None -> Alcotest.fail "memo property not registered"
  in
  List.iter
    (fun (e : Corpus.entry) ->
       match Props.run ~count:e.Corpus.count ~seed:e.Corpus.seed prop with
       | Ok () -> ()
       | Error msg -> Alcotest.fail msg)
    entries

let () =
  Alcotest.run "memo"
    [
      ( "subsume_memo",
        [
          Alcotest.test_case "hit/miss accounting" `Quick test_hit_accounting;
          Alcotest.test_case "cached extensions agree" `Quick
            test_extension_agrees;
          Alcotest.test_case "per-schema handles are independent" `Quick
            test_schema_handles_independent;
          Alcotest.test_case "concept identity" `Quick test_concept_identity;
          Alcotest.test_case "corpus replay through the cached decider"
            `Quick test_corpus_replay_cached;
        ] );
    ]
