(** Rule scoping: which files each rule family applies to.

    Paths are repo-relative with ['/'] separators, exactly as the driver
    discovers them (e.g. ["lib/core/proxy.ml"]). Scoping lives here, not
    in the rules, so the fixture corpus can exercise every rule without
    living under [lib/]. *)

type t = {
  d1_allow : string -> bool;  (** D1 skips these files (own time/randomness) *)
  d2_scope : string -> bool;  (** D2 applies: output- and stats-emitting code *)
  r1_scope : string -> bool;  (** R1 applies: long-lived proxy/server modules *)
  e1_scope : string -> bool;  (** E1 applies: routing and cache paths *)
  p1_scope : string -> bool;  (** P1 applies: protocol request paths *)
  x1_allow : string -> bool;  (** X1 skips these [.ml] files (no [.mli] needed) *)
  dune_file : string;  (** dune file name X1 inspects (fixtures use a decoy) *)
  required_dune_flags : string;  (** stanza every library dune must carry *)
  a1_scope : string -> bool;
      (** A1: files whose [\[@hot\]] bindings seed allocation analysis —
          a missing [.cmt] for one of these is itself a finding, so the
          typed tier cannot silently rot away *)
  f1_scope : string -> bool;  (** F1 applies: the fenced server modules *)
  hot_attr : string;  (** attribute name marking A1 roots (["hot"]) *)
  f1_guards : string list;
      (** base names whose call counts as the wedge/lease check *)
  f1_protected : string list;
      (** canonical [Module.fn] names that mutate durable server state *)
  u1_scope : string -> bool;
      (** U1: [.mli] files whose exports must have a user outside their
          own module — a missing [.cmti] for one of these is a finding *)
  u1_test_source : string -> bool;
      (** U1: sources whose uses only make an export a warning (tests) *)
}

val repo : t
(** Production scoping for this repository. *)

val fixtures : t
(** Test scoping: rule [Rn] applies exactly to files whose basename
    starts with ["rn"], and [allowed.ml] is X1-allowlisted. *)
