(** The typed analysis tier (DESIGN.md §14).

    Consumes the [.cmt] files dune already produces, builds a call graph
    over the Typedtree, and runs the interprocedural rule families:

    - {b A1} — every function reachable from a [\[@hot\]] binding in an
      [a1_scope] file must be allocation-free. Each violation carries an
      estimated words-allocated figure.
    - {b F1} — in every [f1_scope] module, each exported entry point
      that reaches a protected mutation ([f1_protected]) must pass a
      wedge/lease check ([f1_guards]) first, on every path.
    - {b U1} — every value a [u1_scope] interface exports must be used
      by another compilation unit, matched by declaration uid. Every
      [.cmt] under [cmt_dir] counts as a user, walked or not; a value
      only [u1_test_source] units use is a {!Finding.Warning}.

    A file in any scope with no matching [.cmt] (or [.cmti], for U1)
    yields a finding of its own: the tier fails loudly rather than
    silently not running. *)

type hot_root = {
  hr_name : string;  (** canonical ["Mod.fn"] *)
  hr_file : string;
  hr_line : int;
  hr_words : int;  (** estimated words allocated per call, transitively *)
  hr_sites : int;  (** allocation sites reachable from this root *)
}

val analyze :
  Config.t ->
  cmt_dir:string ->
  files:string list ->
  (string * Finding.t list) list * hot_root list
(** [analyze cfg ~cmt_dir ~files] scans every [.cmt] and [.cmti] under
    [cmt_dir] (recursively), analyzes those whose recorded source file
    matches one of the walked [files], and returns findings grouped per walked file
    plus the [\[@hot\]] root summary. Pragma application is the caller's
    job — findings come back unsuppressed. *)
