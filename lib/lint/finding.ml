type rule = D1 | D2 | R1 | E1 | P1 | X1 | A1 | F1 | U1 | Parse

let rule_name = function
  | D1 -> "D1"
  | D2 -> "D2"
  | R1 -> "R1"
  | E1 -> "E1"
  | P1 -> "P1"
  | X1 -> "X1"
  | A1 -> "A1"
  | F1 -> "F1"
  | U1 -> "U1"
  | Parse -> "parse"

let rule_of_name = function
  | "D1" -> Some D1
  | "D2" -> Some D2
  | "R1" -> Some R1
  | "E1" -> Some E1
  | "P1" -> Some P1
  | "X1" -> Some X1
  | "A1" -> Some A1
  | "F1" -> Some F1
  | "U1" -> Some U1
  | _ -> None

(* A1, F1 and U1 need the typed trees; the other families run on the
   parsetree alone. *)
let is_typed = function A1 | F1 | U1 -> true | _ -> false

type severity = Error | Warning

let severity_name = function Error -> "error" | Warning -> "warning"

type t = {
  file : string;
  line : int;
  col : int;
  rule : rule;
  severity : severity;
  msg : string;
  words : int option;
  suppressed : string option;
}

let make ~file ~line ~col ~rule ?(severity = Error) ?words msg =
  { file; line; col; rule; severity; msg; words; suppressed = None }

let order a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare (rule_name a.rule) (rule_name b.rule)

let is_suppressed t = Option.is_some t.suppressed

let to_json t =
  let module J = Slice_util.Json in
  J.Obj
    [
      ("file", J.Str t.file);
      ("line", J.Num (float_of_int t.line));
      ("col", J.Num (float_of_int t.col));
      ("rule", J.Str (rule_name t.rule));
      ("severity", J.Str (severity_name t.severity));
      ("msg", J.Str t.msg);
      ("words", match t.words with None -> J.Null | Some w -> J.Num (float_of_int w));
      ("suppressed", J.Bool (is_suppressed t));
      ("reason", match t.suppressed with None -> J.Null | Some r -> J.Str r);
    ]

let pp ppf t =
  Format.fprintf ppf "%s:%d:%d: [%s/%s] %s" t.file t.line t.col (rule_name t.rule)
    (severity_name t.severity) t.msg;
  match t.suppressed with
  | None -> ()
  | Some r -> Format.fprintf ppf " (suppressed: %s)" r
