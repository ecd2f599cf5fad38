(* slicelint — repo-specific static analysis (see DESIGN.md §10, §14).

   Usage: slicelint [--json] [--json-out FILE] [--fixtures]
                    [--cmt-dir DIR] ROOT...
   Exits 1 when any unsuppressed error exists (warnings never fail the
   run). [--fixtures] swaps in the fixture rule-scoping profile; it
   exists to regenerate the golden files under
   test/lint_fixtures/golden/. [--cmt-dir DIR] enables the
   typed tier (A1/F1/U1) over the .cmt and .cmti files dune left
   under DIR — without it only the parsetree rules run. *)

let () =
  let json = ref false and json_out = ref None and roots = ref [] in
  let cmt_dir = ref None in
  let config = ref Slice_lint.Config.repo in
  let rec parse = function
    | [] -> ()
    | "--json" :: rest ->
        json := true;
        parse rest
    | "--fixtures" :: rest ->
        config := Slice_lint.Config.fixtures;
        parse rest
    | "--json-out" :: file :: rest ->
        json_out := Some file;
        parse rest
    | "--cmt-dir" :: dir :: rest ->
        cmt_dir := Some dir;
        parse rest
    | ("--json-out" | "--cmt-dir") :: [] ->
        prerr_endline "slicelint: --json-out and --cmt-dir need an argument";
        exit 2
    | root :: rest ->
        roots := root :: !roots;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let roots = List.rev !roots in
  if roots = [] then begin
    prerr_endline
      "usage: slicelint [--json] [--json-out FILE] [--fixtures] [--cmt-dir DIR] ROOT...";
    exit 2
  end;
  let report = Slice_lint.Driver.scan ?cmt_dir:!cmt_dir !config roots in
  (match !json_out with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      output_string oc (Slice_util.Json.to_string (Slice_lint.Driver.to_json report));
      output_char oc '\n';
      close_out oc);
  if !json then
    print_endline (Slice_util.Json.to_string (Slice_lint.Driver.to_json report))
  else print_string (Slice_lint.Driver.render_human report);
  exit (if Slice_lint.Driver.errors report > 0 then 1 else 0)
