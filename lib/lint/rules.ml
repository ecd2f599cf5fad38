open Parsetree

(* Longident path as a list of components, "Stdlib" prefix stripped so
   [Stdlib.Hashtbl.create] and [Hashtbl.create] read the same. *)
let parts lid =
  let rec flat acc = function
    | Longident.Lident s -> s :: acc
    | Longident.Ldot (l, s) -> flat (s :: acc) l
    | Longident.Lapply _ -> acc
  in
  match flat [] lid with "Stdlib" :: rest -> rest | l -> l

let d1_banned = function
  | "Random" :: _ -> Some "Random.* (OS-seeded entropy; use Slice_util.Prng)"
  | [ "Sys"; ("time" | "cpu_time") ] -> Some "wall-clock time (use Engine.now)"
  | ("Unix" | "UnixLabels") :: _ -> Some "Unix.* (real time/IO under the simulation)"
  | [ "Hashtbl"; ("hash" | "seeded_hash" | "hash_param" | "randomize") ] ->
      Some "Hashtbl hashing primitives (iteration/seed-order dependent)"
  | _ -> None

let is_sort = function
  | [ "List"; ("sort" | "stable_sort" | "fast_sort" | "sort_uniq") ] | [ "Array"; "sort" ] ->
      true
  | _ -> false

let e1_poly_fun = function
  | [ "compare" ] -> Some "compare"
  | [ "List"; (("mem" | "assoc" | "mem_assoc" | "remove_assoc") as f) ] -> Some ("List." ^ f)
  | _ -> None

let p1_partial = function
  | [ "Option"; "get" ] -> Some "Option.get"
  | [ "List"; (("hd" | "tl" | "nth") as f) ] -> Some ("List." ^ f)
  | [ "failwith" ] -> Some "failwith"
  | _ -> None

(* Syntactically composite operand: a tuple, record, list/array literal
   or constructor WITH an argument — the shapes under which polymorphic
   (=) descends into a file handle or route key. Comparisons against
   constants and constant constructors (None, Fh.Reg, status codes)
   never descend, so they stay legal. *)
let rec composite e =
  match e.pexp_desc with
  | Pexp_tuple _ | Pexp_record _ | Pexp_array _ -> true
  | Pexp_construct ({ txt = Longident.Lident "::"; _ }, _) -> true
  | Pexp_construct (_, Some _) -> true
  | Pexp_constraint (e, _) -> composite e
  | _ -> false

let structure (cfg : Config.t) ~file str =
  let findings = ref [] in
  let in_sorted = ref false in
  let d1 = not (cfg.Config.d1_allow file) in
  let d2 = cfg.Config.d2_scope file in
  let r1 = cfg.Config.r1_scope file in
  let e1 = cfg.Config.e1_scope file in
  let p1 = cfg.Config.p1_scope file in
  let add (loc : Location.t) rule msg =
    let p = loc.Location.loc_start in
    findings :=
      Finding.make ~file ~line:p.Lexing.pos_lnum ~col:(p.Lexing.pos_cnum - p.Lexing.pos_bol)
        ~rule msg
      :: !findings
  in
  let check_module_ident loc lid =
    if d1 then
      match parts lid with
      | ("Unix" | "UnixLabels" | "Random") :: _ ->
          add loc Finding.D1 "D1: opening/aliasing a nondeterministic module"
      | _ -> ()
  in
  let check_ident loc lid =
    let p = parts lid in
    (if d1 then
       match d1_banned p with
       | Some what -> add loc Finding.D1 ("D1: " ^ what)
       | None -> ());
    (if d2 && not !in_sorted then
       match p with
       | [ "Hashtbl"; (("iter" | "fold") as f) ] ->
           add loc Finding.D2
             (Printf.sprintf
                "D2: Hashtbl.%s feeds output here — sort the keys first or add a pragma" f)
       | _ -> ());
    (if r1 then
       match p with
       | [ "Hashtbl"; "create" ] ->
           add loc Finding.R1
             "R1: Hashtbl.create in a long-lived module — use a bounded slot table \
              (Slot_lru) or add a `lint: bounded` pragma with a reason"
       | _ -> ());
    (if e1 then
       match e1_poly_fun p with
       | Some f ->
           add loc Finding.E1
             (Printf.sprintf "E1: polymorphic %s — use a keyed equality/compare" f)
       | None -> ());
    if p1 then
      match p1_partial p with
      | Some f ->
          add loc Finding.P1
            (Printf.sprintf "P1: partial %s on a protocol path — handle the failure case" f)
      | None -> ()
  in
  let iter =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; loc } -> check_ident loc txt
          | Pexp_assert { pexp_desc = Pexp_construct ({ txt = Longident.Lident "false"; _ }, None); _ }
            when p1 ->
              add e.pexp_loc Finding.P1
                "P1: `assert false` on a protocol path — return an NFS error instead"
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
              (if d1 && parts txt = [ "Hashtbl"; "create" ] then
                 List.iter
                   (fun (lbl, (a : expression)) ->
                     match (lbl, a.pexp_desc) with
                     | ( Asttypes.Labelled "random",
                         Pexp_construct ({ txt = Longident.Lident "false"; _ }, None) ) ->
                         ()
                     | Asttypes.Labelled "random", _ ->
                         add a.pexp_loc Finding.D1
                           "D1: Hashtbl.create ~random:true is seed-dependent"
                     | _ -> ())
                   args);
              if e1 then
                match (parts txt, List.map snd args) with
                | [ ("=" | "<>") ], [ a; b ] when composite a || composite b ->
                    add e.pexp_loc Finding.E1
                      "E1: polymorphic =/<> over a structured operand — use a keyed equality"
                | _ -> ())
          | _ -> ());
          match e.pexp_desc with
          | Pexp_apply (({ pexp_desc = Pexp_ident { txt; _ }; _ } as f), args) when is_sort (parts txt)
            ->
              it.Ast_iterator.expr it f;
              let saved = !in_sorted in
              in_sorted := true;
              List.iter (fun (_, a) -> it.Ast_iterator.expr it a) args;
              in_sorted := saved
          | _ -> Ast_iterator.default_iterator.expr it e);
      open_description =
        (fun it od ->
          check_module_ident od.popen_loc od.popen_expr.txt;
          Ast_iterator.default_iterator.open_description it od);
      module_expr =
        (fun it me ->
          (match me.pmod_desc with
          | Pmod_ident { txt; loc } -> check_module_ident loc txt
          | _ -> ());
          Ast_iterator.default_iterator.module_expr it me);
    }
  in
  iter.Ast_iterator.structure iter str;
  List.rev !findings
