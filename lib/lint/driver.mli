(** File discovery, parsing and report assembly.

    [scan ?cmt_dir cfg roots] walks each root (directory or single
    file), skipping dot- and underscore-prefixed entries ([_build]),
    lints every [.ml]/[.mli] with the parsetree rules, runs the
    directory-level X1 checks, and — when [cmt_dir] is given — the typed
    interprocedural tier ({!Typed.analyze}) over the [.cmt] files found
    under it. Pragmas collected per file apply to both tiers at once.
    Findings come back sorted by {!Finding.order}, so reports are
    byte-stable. *)

type report = {
  findings : Finding.t list;
  files : int;
  typed_ran : bool;  (** whether the [.cmt]-based tier ran *)
  hot_roots : Typed.hot_root list;  (** per-[\[@hot\]]-root allocation summary *)
}

val scan : ?cmt_dir:string -> Config.t -> string list -> report

val errors : report -> int
(** Unsuppressed error-severity findings: the gate fails when nonzero. *)

val suppressed : report -> int

val warnings : report -> int
(** Unsuppressed warnings: listed in the JSON report and counted in the
    human summary, never printed one by one, never failing the gate. *)

val to_json : report -> Slice_util.Json.t
val render_human : report -> string
(** Unsuppressed errors one per line, hot-root summary when the typed
    tier ran, then a summary line. *)
