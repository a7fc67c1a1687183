(* The docs cannot drift from the counter registry: every counter named in
   backticks in doc/ARCHITECTURE.md or EXPERIMENTS.md must be registered,
   every registered counter must be named (or matched by a pattern) in
   doc/ARCHITECTURE.md, and every name on ARCHITECTURE.md's "Deleted
   counters" list must not be registered. The executable links every
   library with -linkall, so each module's toplevel [Obs.counter] calls
   have run before the check.

   A code span names counters when, with its whitespace removed, it is a
   dotted lower-case name whose first segment is the namespace of some
   registered or deleted counter. Shorthand is expanded first:
   "a.b.c/d/.e" stands for a.b.c, a.b.d and a.b.e; "*" and "<op>" match
   any non-empty run of characters; a "..." group is skipped. A name
   passes when it matches some registered or deleted name. *)

module Obs = Whynot_obs.Obs

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Markdown code spans: a run of n backticks up to the next run of
   exactly n backticks. *)
let code_spans text =
  let len = String.length text in
  let run_at i =
    let j = ref i in
    while !j < len && text.[!j] = '`' do incr j done;
    !j - i
  in
  let rec close n i =
    match String.index_from_opt text i '`' with
    | None -> None
    | Some k ->
      let m = run_at k in
      if m = n then Some k else close n (k + m)
  in
  let rec go acc i =
    match String.index_from_opt text i '`' with
    | None -> List.rev acc
    | Some k -> (
      let n = run_at k in
      match close n (k + n) with
      | None -> List.rev acc
      | Some e -> go (String.sub text (k + n) (e - k - n) :: acc) (e + n))
  in
  go [] 0

let strip_spaces s =
  String.to_seq s
  |> Seq.filter (fun c -> not (List.mem c [ ' '; '\n'; '\t'; '\r' ]))
  |> String.of_seq

let name_char = function
  | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '/' | '*' | '<' | '>' -> true
  | _ -> false

let namespace name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* "a.b.c/d/.e" -> [a.b.c; a.b.d; a.b.e]. *)
let expand group =
  match String.split_on_char '/' group with
  | [] -> []
  | first :: rest ->
    let stem =
      match String.rindex_opt first '.' with
      | Some i -> String.sub first 0 (i + 1)
      | None -> ""
    in
    first
    :: List.filter_map
         (fun part ->
            if part = "..." || part = "" then None
            else if part.[0] = '.' then
              Some (stem ^ String.sub part 1 (String.length part - 1))
            else Some (stem ^ part))
         rest

let counter_names namespaces text =
  code_spans text
  |> List.concat_map (fun span ->
      let s = strip_spaces span in
      if
        s <> ""
        && String.for_all name_char s
        && String.contains s '.'
        && List.mem (namespace s) namespaces
      then expand s
      else [])
  |> List.sort_uniq String.compare

(* Glob match where "*" and "<...>" match any non-empty string. *)
let matches pattern name =
  let pl = String.length pattern and nl = String.length name in
  let rec go p n =
    if p = pl then n = nl
    else
      match pattern.[p] with
      | '*' -> wild (p + 1) n
      | '<' -> (
        match String.index_from_opt pattern p '>' with
        | Some q -> wild (q + 1) n
        | None -> false)
      | c -> n < nl && name.[n] = c && go (p + 1) (n + 1)
  and wild p n =
    let rec try_from k = k <= nl && (go p k || try_from (k + 1)) in
    try_from (n + 1)
  in
  go 0 0

(* The names inside ARCHITECTURE.md's "Deleted counters" bullet, which
   runs up to the next blank line. *)
let deleted_names architecture =
  let marker = "- **Deleted counters**" in
  let lines = String.split_on_char '\n' architecture in
  let rec drop = function
    | [] -> Alcotest.fail "ARCHITECTURE.md has no \"Deleted counters\" list"
    | l :: rest ->
      if String.starts_with ~prefix:marker l then l :: rest else drop rest
  in
  let rec take acc = function
    | [] -> List.rev acc
    | l :: rest -> if String.trim l = "" then List.rev acc else take (l :: acc) rest
  in
  let bullet = String.concat "\n" (take [] (drop lines)) in
  code_spans bullet
  |> List.concat_map (fun s -> expand (strip_spaces s))
  |> List.filter (fun s -> String.contains s '.')

let registered () = List.map fst (Obs.snapshot ())

let namespaces names =
  List.sort_uniq String.compare (List.map namespace names)

let test_docs_name_registered_counters () =
  let architecture = read_file "../doc/ARCHITECTURE.md" in
  let deleted = deleted_names architecture in
  let live = registered () in
  Alcotest.(check bool) "the registry is populated" true (List.length live > 20);
  let namespaces = namespaces (live @ deleted) in
  List.iter
    (fun (file, text) ->
       List.iter
         (fun name ->
            if not (List.exists (matches name) (live @ deleted)) then
              Alcotest.failf "%s names counter %s, which is not registered"
                file name)
         (counter_names namespaces text))
    [
      ("doc/ARCHITECTURE.md", architecture);
      ("EXPERIMENTS.md", read_file "../EXPERIMENTS.md");
    ]

let test_registered_counters_are_documented () =
  let architecture = read_file "../doc/ARCHITECTURE.md" in
  let live = registered () in
  let documented =
    counter_names (namespaces (live @ deleted_names architecture)) architecture
  in
  List.iter
    (fun name ->
       if not (List.exists (fun pattern -> matches pattern name) documented)
       then
         Alcotest.failf
           "counter %s is registered but doc/ARCHITECTURE.md does not name it"
           name)
    live

let test_deleted_counters_stay_deleted () =
  let deleted = deleted_names (read_file "../doc/ARCHITECTURE.md") in
  Alcotest.(check bool) "the deleted list is not empty" true (deleted <> []);
  let live = registered () in
  List.iter
    (fun name ->
       if List.mem name live then
         Alcotest.failf
           "%s is on the deleted-counters list but is registered" name)
    deleted

let () =
  Alcotest.run "docs"
    [
      ( "counters",
        [
          Alcotest.test_case "docs name registered counters" `Quick
            test_docs_name_registered_counters;
          Alcotest.test_case "registered counters are documented" `Quick
            test_registered_counters_are_documented;
          Alcotest.test_case "deleted counters stay deleted" `Quick
            test_deleted_counters_stay_deleted;
        ] );
    ]
