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
   with its spaces dropped. Exits 1, printing both tables, when
   columns, labels or any value differ. *)

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
  |> List.filter (fun t -> not (List.mem t [ "process"; "processes"; "procs"; "" ]))
  |> String.concat " "

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
  let rec to_fence = function
    | [] -> failwith (Printf.sprintf "%s: no table after %s" path marker)
    | l :: rest -> if String.trim l = "```" then rest else to_fence rest
  in
  let rec block acc = function
    | [] -> List.rev acc
    | l :: rest -> if String.trim l = "```" then List.rev acc else block (l :: acc) rest
  in
  match block [] (to_fence (after_marker lines)) with
  | [] -> failwith "empty table"
  | header :: rows ->
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
      let run = run_table stdin in
      let same_columns =
        List.length doc.columns = List.length run.columns
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
