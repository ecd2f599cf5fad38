(** A single slicelint diagnostic: where, which rule, and whether an
    inline pragma suppressed it (the reason is kept for the audit
    trail — suppressed findings still appear in the JSON report). *)

type rule =
  | D1  (** determinism: no wall clock / OS entropy / randomized hashing *)
  | D2  (** iteration order: hash iteration feeding output must be sorted *)
  | R1  (** bounded state: long-lived [Hashtbl]s need a bound or pragma *)
  | E1  (** polymorphic equality on handles / route keys *)
  | P1  (** partial stdlib calls or bare aborts on protocol paths *)
  | X1  (** interface hygiene: missing [.mli] or non-uniform dune flags *)
  | A1  (** hot-path allocation reachable from a [\[@hot\]] root *)
  | F1  (** WAL/state mutation not dominated by the wedge/lease check *)
  | U1  (** exported value no other compilation unit uses *)
  | Parse  (** the file failed to parse at all *)

val rule_name : rule -> string
val rule_of_name : string -> rule option
(** [None] for unknown names, including ["parse"] (pragmas cannot
    suppress parse errors). *)

val is_typed : rule -> bool
(** A1, F1 and U1 only run when the typed tier has [.cmt] input; pragma
    bookkeeping for them is gated on the tier actually running. *)

type severity =
  | Error
  | Warning  (** reported and counted, but does not fail the gate *)

type t = {
  file : string;
  line : int;
  col : int;
  rule : rule;
  severity : severity;
  msg : string;
  words : int option;  (** A1: estimated words allocated at this site *)
  suppressed : string option;  (** pragma reason when suppressed *)
}

val make :
  file:string ->
  line:int ->
  col:int ->
  rule:rule ->
  ?severity:severity ->
  ?words:int ->
  string ->
  t

val order : t -> t -> int
(** Sort key: file, line, column, rule — the report order, stable across
    runs by construction. *)

val is_suppressed : t -> bool
val to_json : t -> Slice_util.Json.t
val pp : Format.formatter -> t -> unit
