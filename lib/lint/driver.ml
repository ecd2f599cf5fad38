module Json = Slice_util.Json

type report = {
  findings : Finding.t list;
  files : int;
  typed_ran : bool;
  hot_roots : Typed.hot_root list;
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let ends_with ~suffix s =
  let n = String.length s and m = String.length suffix in
  n >= m && String.sub s (n - m) m = suffix

let parse_findings ~file exn =
  let msg =
    match Location.error_of_exn exn with
    | Some (`Ok e) -> Format.asprintf "%a" Location.print_report e
    | _ -> Printexc.to_string exn
  in
  [ Finding.make ~file ~line:1 ~col:0 ~rule:Finding.Parse ("failed to parse: " ^ msg) ]

(* Parsetree pass only: pragma application is deferred to [scan] so the
   typed tier's findings for the same file share one pragma set (and one
   unused-pragma audit). *)
let lint_file cfg path =
  let content = read_file path in
  let pragmas, bad = Pragma.collect ~file:path content in
  let ast =
    let lexbuf = Lexing.from_string content in
    Lexing.set_filename lexbuf path;
    if ends_with ~suffix:".ml" path then
      try Rules.structure cfg ~file:path (Parse.implementation lexbuf)
      with exn -> parse_findings ~file:path exn
    else
      try
        ignore (Parse.interface lexbuf);
        []
      with exn -> parse_findings ~file:path exn
  in
  (pragmas, bad @ ast)

(* X1, directory level: a dune file declaring a library must carry the
   uniform flags stanza, and every .ml beside it needs a sibling .mli. *)
let x1_dir (cfg : Config.t) dir entries =
  let join f = if dir = "" then f else dir ^ "/" ^ f in
  if not (List.mem cfg.Config.dune_file entries) then []
  else
    let dune_path = join cfg.Config.dune_file in
    let content = read_file dune_path in
    let squash s =
      String.concat " " (List.filter (fun w -> w <> "") (String.split_on_char ' ' (String.map (function '\n' | '\t' -> ' ' | c -> c) s)))
    in
    let c = squash content in
    let has needle =
      let rec go i = i >= 0 && (String.sub c i (String.length needle) = needle || go (i - 1)) in
      go (String.length c - String.length needle)
    in
    let is_library = has "(library" in
    (* Since PR 8 the uniform flags stanza is required of executable and
       test stanzas too, not just libraries. *)
    let is_component = is_library || has "(executable" || has "(test" in
    if not is_component then []
    else
      let flags =
        let want = squash cfg.Config.required_dune_flags in
        if has want then []
        else
          [
            Finding.make ~file:dune_path ~line:1 ~col:0 ~rule:Finding.X1
              (Printf.sprintf "X1: %s dune is missing the uniform flags stanza %s"
                 (if is_library then "library" else "executable/test")
                 cfg.Config.required_dune_flags);
          ]
      in
      let mlis =
        if not is_library then []
        else
          List.filter_map
            (fun f ->
              if ends_with ~suffix:".ml" f && not (cfg.Config.x1_allow (join f)) then
                let mli = String.sub f 0 (String.length f - 3) ^ ".mli" in
                if List.mem mli entries then None
                else
                  Some
                    (Finding.make ~file:(join f) ~line:1 ~col:0 ~rule:Finding.X1
                       (Printf.sprintf "X1: library module has no interface (%s missing)" mli))
              else None)
            entries
      in
      flags @ mlis

let scan ?cmt_dir cfg roots =
  let extra = ref [] (* x1 and other non-pragma-bearing findings *) in
  let per_file : (string, Pragma.t list * Finding.t list) Hashtbl.t = Hashtbl.create 64 in
  let ordered_files = ref [] in
  let rec walk path =
    if Sys.is_directory path then begin
      let entries =
        Sys.readdir path |> Array.to_list
        |> List.filter (fun f -> String.length f > 0 && f.[0] <> '.' && f.[0] <> '_')
        |> List.sort String.compare
      in
      extra := x1_dir cfg path entries @ !extra;
      List.iter (fun f -> walk (path ^ "/" ^ f)) entries
    end
    else if ends_with ~suffix:".ml" path || ends_with ~suffix:".mli" path then begin
      ordered_files := path :: !ordered_files;
      Hashtbl.replace per_file path (lint_file cfg path)
    end
  in
  List.iter walk roots;
  let files = List.rev !ordered_files in
  let typed_ran = cmt_dir <> None in
  let hot_roots =
    match cmt_dir with
    | None -> []
    | Some dir ->
        let typed_findings, roots = Typed.analyze cfg ~cmt_dir:dir ~files in
        List.iter
          (fun (file, fs) ->
            match Hashtbl.find_opt per_file file with
            | Some (pragmas, existing) ->
                Hashtbl.replace per_file file (pragmas, existing @ fs)
            | None -> extra := fs @ !extra)
          typed_findings;
        roots
  in
  let findings =
    List.concat_map
      (fun file ->
        let pragmas, fs = Hashtbl.find per_file file in
        Pragma.apply ~typed_ran ~file pragmas fs)
      files
    @ !extra
  in
  {
    findings = List.sort Finding.order findings;
    files = List.length files;
    typed_ran;
    hot_roots;
  }

let errors r =
  List.length
    (List.filter
       (fun f -> (not (Finding.is_suppressed f)) && f.Finding.severity = Finding.Error)
       r.findings)

let suppressed r = List.length (List.filter Finding.is_suppressed r.findings)

let warnings r =
  List.length
    (List.filter
       (fun f -> (not (Finding.is_suppressed f)) && f.Finding.severity = Finding.Warning)
       r.findings)

let hot_root_json (h : Typed.hot_root) =
  Json.Obj
    [
      ("name", Json.Str h.Typed.hr_name);
      ("file", Json.Str h.Typed.hr_file);
      ("line", Json.Num (float_of_int h.Typed.hr_line));
      ("est_words", Json.Num (float_of_int h.Typed.hr_words));
      ("sites", Json.Num (float_of_int h.Typed.hr_sites));
    ]

let to_json r =
  Json.Obj
    [
      ("tool", Json.Str "slicelint");
      ("files", Json.Num (float_of_int r.files));
      ("typed", Json.Bool r.typed_ran);
      ("errors", Json.Num (float_of_int (errors r)));
      ("suppressed", Json.Num (float_of_int (suppressed r)));
      ("hot_roots", Json.Arr (List.map hot_root_json r.hot_roots));
      ("findings", Json.Arr (List.map Finding.to_json r.findings));
    ]

let render_human r =
  let b = Buffer.create 256 in
  List.iter
    (fun f ->
      if (not (Finding.is_suppressed f)) && f.Finding.severity = Finding.Error then
        Buffer.add_string b (Format.asprintf "%a@." Finding.pp f))
    r.findings;
  if r.typed_ran then
    List.iter
      (fun (h : Typed.hot_root) ->
        Buffer.add_string b
          (Printf.sprintf "[@hot] %s (%s:%d): %d alloc site(s), ~%d words/call\n"
             h.Typed.hr_name h.Typed.hr_file h.Typed.hr_line h.Typed.hr_sites h.Typed.hr_words))
      r.hot_roots;
  Buffer.add_string b
    (Printf.sprintf "slicelint: %d file(s), %d finding(s), %d warning(s), %d suppressed%s\n"
       r.files (errors r) (warnings r) (suppressed r)
       (if r.typed_ran then " [typed tier: on]" else ""));
  Buffer.contents b
