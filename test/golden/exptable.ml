(* Checks one EXPERIMENTS.md table against a fresh run of its exhibit.

     slice_sim fig3 -s 0.03 | exptable.exe EXPERIMENTS.md "slice_sim fig3 -s 0.03"

   The table is the first fenced block after the "Run: `<command>`"
   line. Its header row names the columns and each other row is a label
   and one "<seconds>s" value per column. The exhibit prints each row as
   the label, then "<column>: <seconds>s" pairs. Rows are matched in
   order, by label with the words "process", "processes" and "procs"
   dropped (fig4 prints "4 procs:" where the table has "4 processes").
   A row may instead hold "<offered>-> <delivered>( <latency>ms)" cells
   (fig5), under a header with no column numbers; a cell is compared
   with its spaces dropped.

   The table may instead be a markdown table (Tables 2 and 3): a header
   row of column names, a rule, then "| <label> | <cell> | ..." rows.
   Each row's "measured" cell, and its "ratio" cell if there is that
   column, must equal the values of the exhibit's line with the same
   label: the label, the paper's value, the measured value and
   "x<ratio>", or "measured <label>: <value> %" for a total. Labels drop
   "**" and the word "measured".

   Exits 1, printing both tables, when columns, labels or any value
   differ. *)

let is_value tok =
  let n = String.length tok in
  n >= 2
  && tok.[n - 1] = 's'
  && Option.is_some (float_of_string_opt (String.sub tok 0 (n - 1)))
  && String.contains tok '.'

let is_number tok = Option.is_some (float_of_string_opt tok)

let is_column_key tok =
  let n = String.length tok in
  n >= 2 && tok.[n - 1] = ':' && is_number (String.sub tok 0 (n - 1))

(* The first token of a fig5 cell: "<offered>->", or the whole cell. *)
let is_cell_start tok =
  match String.index_opt tok '-' with
  | Some i -> i > 0 && is_number (String.sub tok 0 i) && i + 1 < String.length tok && tok.[i + 1] = '>'
  | None -> false

let tokens line = String.split_on_char ' ' line |> List.filter (fun t -> t <> "")

let norm_label toks =
  toks
  |> List.map (fun t ->
         if String.length t > 0 && t.[String.length t - 1] = ':' then
           String.sub t 0 (String.length t - 1)
         else t)
  |> List.filter (fun t -> not (List.mem t [ "process"; "processes"; "procs"; "measured"; "" ]))
  |> String.concat " "

(* [columns] are the header's column numbers; a markdown table's are its
   compared column names, and its rows hold those columns' cells. *)
type table = { columns : string list; rows : (string * string list) list }

(* Split a row's tokens at its first value, column key or cell. *)
let rec split_label acc = function
  | t :: rest when not (is_value t || is_column_key t || is_cell_start t) -> split_label (t :: acc) rest
  | rest -> (List.rev acc, rest)

(* A row's values: its cells, each "<offered>-><delivered>(<latency>ms)",
   or else its "<seconds>s" values. *)
let values = function
  | t :: _ as rest when is_cell_start t ->
      String.concat "" rest |> String.split_on_char ')'
      |> List.filter_map (fun c -> if c = "" then None else Some (c ^ ")"))
  | rest -> List.filter is_value rest

(* A markdown row's cells, between its outer bars, with "**" dropped. *)
let cells line =
  match String.split_on_char '|' (String.trim line) with
  | _ :: rest ->
      List.filteri (fun i _ -> i < List.length rest - 1) rest
      |> List.map (fun c -> String.trim c |> String.split_on_char '*' |> String.concat "")
  | [] -> []

let doc_table path command =
  let lines = In_channel.with_open_text path In_channel.input_all |> String.split_on_char '\n' in
  let marker = "Run: `" ^ command ^ "`" in
  let contains line =
    let n = String.length marker and m = String.length line in
    let rec at i = i + n <= m && (String.sub line i n = marker || at (i + 1)) in
    at 0
  in
  let rec after_marker = function
    | [] -> failwith (Printf.sprintf "%s: no line with %s" path marker)
    | l :: rest -> if contains l then rest else after_marker rest
  in
  let rec block acc = function
    | [] -> List.rev acc
    | l :: rest -> if String.trim l = "```" then List.rev acc else block (l :: acc) rest
  in
  let is_pipe l = String.length (String.trim l) > 0 && (String.trim l).[0] = '|' in
  let rec markdown acc = function
    | l :: rest when is_pipe l -> markdown (l :: acc) rest
    | _ -> List.rev acc
  in
  let rec first_table = function
    | [] -> failwith (Printf.sprintf "%s: no table after %s" path marker)
    | l :: rest when is_pipe l -> `Markdown (markdown [] (l :: rest))
    | l :: rest -> if String.trim l = "```" then `Fenced (block [] rest) else first_table rest
  in
  match first_table (after_marker lines) with
  | `Markdown (header :: _rule :: rows) ->
      let names = List.tl (cells header) in
      let keep = List.map (fun n -> n = "measured" || n = "ratio") names in
      let row l =
        match cells l with
        | label :: vals -> (norm_label (tokens label), List.filteri (fun i _ -> List.nth keep i) vals)
        | [] -> failwith "empty row"
      in
      { columns = List.filter (fun n -> n = "measured" || n = "ratio") names; rows = List.map row rows }
  | `Markdown _ | `Fenced [] -> failwith "empty table"
  | `Fenced (header :: rows) ->
      let columns = List.filter is_number (tokens header) in
      let rows =
        List.filter_map
          (fun l ->
            match split_label [] (tokens l) with
            | _, [] -> None
            | label, rest -> Some (norm_label label, values rest))
          rows
      in
      { columns; rows }

(* An exhibit line as a markdown row: its label, then its measured value
   (the second number, or the only one) and its ratio ("x<ratio>") when
   [columns] has one. *)
let markdown_row columns line =
  let num t = float_of_string_opt t in
  let ratio t = String.length t > 1 && t.[0] = 'x' && num (String.sub t 1 (String.length t - 1)) <> None in
  let rec split acc = function
    | t :: rest when num t = None && not (ratio t) -> split (t :: acc) rest
    | rest -> (norm_label (List.rev acc), rest)
  in
  let label, rest = split [] (tokens line) in
  let measured = match List.filter_map num rest with [ m ] | _ :: m :: _ -> Some m | [] -> None in
  let ratios = List.filter_map (fun t -> if ratio t then num (String.sub t 1 (String.length t - 1)) else None) rest in
  match (measured, columns, ratios) with
  | Some m, [ "measured" ], _ -> Some (label, [ Printf.sprintf "%g" m ])
  | Some m, [ "measured"; "ratio" ], r :: _ -> Some (label, [ Printf.sprintf "%g" m; Printf.sprintf "%g" r ])
  | _ -> None

(* The doc's rows, in their order, as the run's lines of the same labels
   print them. *)
let markdown_run (doc : table) ic =
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  let run = List.filter_map (markdown_row doc.columns) lines in
  let norm = List.map (fun v -> match float_of_string_opt v with Some f -> Printf.sprintf "%g" f | None -> v) in
  ( { doc with rows = List.map (fun (l, vs) -> (l, norm vs)) doc.rows },
    { doc with rows = List.filter_map (fun (l, _) -> Option.map (fun vs -> (l, vs)) (List.assoc_opt l run)) doc.rows } )

let run_table ic =
  let rows = ref [] and columns = ref [] in
  In_channel.input_all ic |> String.split_on_char '\n'
  |> List.iter (fun l ->
         let label, rest = split_label [] (tokens l) in
         let keys = List.filter is_column_key rest and values = values rest in
         if values <> [] && (keys <> [] || List.exists is_cell_start rest) then begin
           let keys = List.map (fun k -> String.sub k 0 (String.length k - 1)) keys in
           if !columns = [] then columns := keys;
           rows := (norm_label label, values) :: !rows
         end);
  { columns = !columns; rows = List.rev !rows }

let print name t =
  Printf.printf "%s: columns %s\n" name (String.concat " " t.columns);
  List.iter (fun (l, vs) -> Printf.printf "  %-28s %s\n" l (String.concat " " vs)) t.rows

let () =
  match Sys.argv with
  | [| _; path; command |] ->
      let doc = doc_table path command in
      let markdown = List.exists (fun c -> float_of_string_opt c = None) doc.columns in
      let doc, run = if markdown then markdown_run doc stdin else (doc, run_table stdin) in
      let same_columns =
        markdown
        || List.length doc.columns = List.length run.columns
           && List.for_all2 (fun a b -> float_of_string a = float_of_string b) doc.columns run.columns
      in
      if same_columns && doc.rows = run.rows then
        Printf.printf "%s table matches `%s` (%d rows)\n" path command (List.length doc.rows)
      else begin
        Printf.printf "%s table differs from `%s`\n" path command;
        print "EXPERIMENTS.md" doc;
        print "run" run;
        exit 1
      end
  | _ ->
      prerr_endline "usage: exptable.exe EXPERIMENTS.md COMMAND < exhibit-output";
      exit 2
