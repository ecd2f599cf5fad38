(* The typed analysis tier (DESIGN.md §14): loads the .cmt files dune
   already produces, builds a call graph over the Typedtree, and runs the
   two interprocedural rule families:

   A1 — hot-path allocation: every function reachable from a [@hot]
   binding must be allocation-free. Allocation sites carry an estimated
   words-allocated figure so lint-report.json doubles as the optimization
   worklist for the ns/packet work (ROADMAP item 3).

   F1 — fencing-guard totality: in the fenced server modules, every
   dispatch path that reaches the WAL / buffer cache / allocator must be
   dominated by the wedge/lease check (a must-call-before pass).

   Names are canonical last-two-component keys ("Dec.u32", "Wal.append"):
   this repo aliases modules under their own short name (module Codec =
   Slice_nfs.Codec), so the key a call site produces matches the key the
   callee's cmt produces, without resolving through module aliases. *)

module F = Finding

(* ---- canonical names ---- *)

let rec path_parts (p : Path.t) =
  match p with
  | Path.Pident id -> [ Ident.name id ]
  | Path.Pdot (p, s) -> path_parts p @ [ s ]
  | Path.Papply (a, _) -> path_parts a
  | Path.Pextra_ty (p, _) -> path_parts p

let strip_stdlib = function "Stdlib" :: rest -> rest | l -> l

(* "Slice_nfs__Codec" -> "Codec": dune's wrapped-library mangling. *)
let canonical_modname m =
  match String.index_opt m '_' with
  | None -> m
  | Some _ ->
      let n = String.length m in
      let rec last i acc =
        if i + 1 >= n then acc
        else if m.[i] = '_' && m.[i + 1] = '_' then last (i + 2) (i + 2)
        else last (i + 1) acc
      in
      let start = last 0 0 in
      String.sub m start (n - start)

let key_of_parts parts =
  match List.rev parts with
  | [] -> ""
  | [ f ] -> f
  | f :: m :: _ -> m ^ "." ^ f

let base_of_parts parts = match List.rev parts with [] -> "" | f :: _ -> f

(* ---- stdlib effect tables ---- *)

(* Calls that neither allocate nor box their result. *)
let clean_table =
  [
    "Bytes.length"; "String.length"; "Array.length"; "Bytes.get"; "Bytes.set";
    "Bytes.unsafe_get"; "Bytes.unsafe_set"; "String.get"; "String.unsafe_get";
    "Array.get"; "Array.set"; "Array.unsafe_get"; "Array.unsafe_set";
    "Bytes.get_uint8"; "Bytes.get_int8"; "Bytes.get_uint16_be"; "Bytes.get_uint16_le";
    (* stores into preexisting buffers: the int16/32/64 setters consume a
       boxed argument (boxing is charged where the box is built) and
       allocate nothing themselves, like Bytes.set *)
    "Bytes.set_uint8"; "Bytes.set_uint16_be"; "Bytes.set_uint16_le";
    "Bytes.set_int32_be"; "Bytes.set_int32_le"; "Bytes.set_int64_be"; "Bytes.set_int64_le";
    "Bytes.blit"; "Bytes.fill"; "Bytes.blit_string"; "Array.blit"; "Array.fill";
    "Char.code"; "Char.chr"; "Char.equal"; "Char.compare";
    "Int.equal"; "Int.compare"; "Int.max"; "Int.min"; "String.equal"; "Bool.equal";
    "Int32.to_int"; "Int64.to_int"; "Nativeint.to_int"; "Int64.to_float";
    "Int32.equal"; "Int64.equal"; "Int32.compare"; "Int64.compare";
    "Float.equal"; "Float.compare"; "Float.is_finite"; "Float.is_nan";
    "="; "<>"; "<"; ">"; "<="; ">="; "=="; "!="; "compare"; "min"; "max";
    "+"; "-"; "*"; "/"; "mod"; "abs"; "succ"; "pred";
    "land"; "lor"; "lxor"; "lnot"; "lsl"; "lsr"; "asr";
    "&&"; "||"; "not"; "ignore"; "incr"; "decr"; "fst"; "snd"; ":="; "!";
    "List.length"; "List.is_empty";
    "int_of_char"; "char_of_int"; "int_of_float"; "truncate";
    "Float.to_int"; "Hashtbl.mem"; "Hashtbl.length"; "Queue.length"; "Queue.is_empty";
    (* resuming a parked fiber switches stacks; what the fiber then runs
       is charged to its own code, not to the caller *)
    "Deep.continue";
  ]

(* Raising helpers: their arguments are the error path, not the packet
   path, so allocation inside them is exempt. *)
let raising_table = [ "raise"; "raise_notrace"; "invalid_arg"; "failwith"; "exit" ]

(* Unbox consumers: a boxed-number primitive feeding one of these
   directly is unboxed by the compiler (cmmgen's local unboxing), so the
   composition allocates nothing. *)
let unboxing_table =
  [
    "Int32.to_int"; "Int64.to_int"; "Nativeint.to_int";
    "="; "<>"; "<"; ">"; "<="; ">="; "compare";
    "Int32.equal"; "Int64.equal"; "Float.equal";
    "Int32.compare"; "Int64.compare"; "Float.compare";
  ]

(* Primitives whose result is a freshly boxed number unless an unbox
   consumer takes it directly. 64-bit words: float box = 2, int32/int64
   custom block = 3. *)
let boxing_table =
  [
    ("Bytes.get_int32_be", 3); ("Bytes.get_int32_le", 3);
    ("Bytes.get_int64_be", 3); ("Bytes.get_int64_le", 3);
    ("Int32.of_int", 3); ("Int64.of_int", 3); ("Nativeint.of_int", 3);
    ("Int64.add", 3); ("Int64.sub", 3); ("Int64.mul", 3); ("Int64.div", 3);
    ("Int64.rem", 3); ("Int64.abs", 3); ("Int64.logand", 3); ("Int64.shift_left", 3);
    ("Int64.shift_right_logical", 3); ("Int64.of_float", 3); ("Int64.to_string", 16);
    ("Int32.add", 3); ("Int32.sub", 3); ("Int32.logand", 3);
    ("+."), 2; ("-."), 2; ("*."), 2; ("/."), 2; ("Float.of_int", 2);
    ("float_of_int", 2); ("mod_float", 2); ("Float.rem", 2);
  ]

(* Known-allocating stdlib entry points, with a nominal per-call estimate
   (per-element costs are flagged as such in the message). *)
let allocating_table =
  [
    ("List.map", 24, "conses per element"); ("List.mapi", 24, "conses per element");
    ("List.filter", 24, "conses per element"); ("List.filter_map", 24, "conses per element");
    ("List.init", 24, "conses per element"); ("List.append", 24, "conses per element");
    ("List.rev", 24, "conses per element"); ("List.concat", 24, "conses per element");
    ("List.sort", 32, "intermediate lists"); ("@", 24, "conses per element");
    ("Array.make", 16, "fresh array"); ("Array.init", 16, "fresh array");
    ("Array.copy", 16, "fresh array"); ("Array.append", 16, "fresh array");
    ("Array.sub", 16, "fresh array"); ("Array.to_list", 24, "conses per element");
    ("String.sub", 16, "fresh string");
    ("String.concat", 16, "fresh string"); ("String.make", 16, "fresh string");
    ("^", 16, "fresh string"); ("String.split_on_char", 32, "list of fresh strings");
    ("String.trim", 16, "fresh string"); ("String.uppercase_ascii", 16, "fresh string");
    ("Bytes.create", 16, "fresh bytes"); ("Bytes.make", 16, "fresh bytes");
    ("Bytes.copy", 16, "fresh bytes"); ("Bytes.sub", 16, "fresh bytes");
    ("Bytes.sub_string", 16, "fresh string"); ("Bytes.of_string", 16, "fresh bytes");
    ("Bytes.to_string", 16, "fresh string"); ("Bytes.extend", 16, "fresh bytes");
    ("Buffer.create", 16, "buffer"); ("Buffer.add_string", 8, "amortized growth");
    ("Buffer.add_char", 8, "amortized growth"); ("Buffer.contents", 16, "fresh string");
    ("Buffer.to_bytes", 16, "fresh bytes");
    ("Printf.sprintf", 32, "format interpretation"); ("Printf.printf", 32, "format interpretation");
    ("Printf.eprintf", 32, "format interpretation"); ("Format.asprintf", 32, "format interpretation");
    ("Format.fprintf", 32, "format interpretation"); ("Format.sprintf", 32, "format interpretation");
    ("Hashtbl.create", 16, "table"); ("Hashtbl.add", 4, "bucket cons");
    ("Hashtbl.replace", 4, "bucket cons"); ("Hashtbl.find_opt", 2, "option");
    ("Hashtbl.fold", 8, "closure application"); ("Hashtbl.iter", 8, "closure application");
    ("Hashtbl.remove", 0, ""); ("Hashtbl.copy", 16, "table");
    ("Option.map", 2, "option"); ("Option.bind", 2, "option"); ("Option.value", 0, "");
    ("List.find_opt", 2, "option"); ("List.assoc_opt", 2, "option");
    ("Int64.of_string", 3, "boxed int64"); ("int_of_string", 0, "");
    ("string_of_int", 16, "fresh string"); ("Int.to_string", 16, "fresh string");
    ("ref", 2, "ref cell"); ("Lazy.force", 2, "thunk"); ("Queue.create", 8, "queue");
    ("Queue.push", 4, "queue cell"); ("Queue.pop", 0, "");
    ("Seq.map", 8, "seq node"); ("Seq.filter", 8, "seq node");
    ("Fun.protect", 8, "closure record");
  ]

(* ---- function table ---- *)

type fun_info = {
  fi_key : string;  (* canonical "Mod.fn" *)
  fi_file : string;  (* walked source path, findings speak this *)
  fi_line : int;
  fi_col : int;
  fi_hot : bool;
  fi_stack : string list;  (* enclosing modules, outermost first *)
  fi_body : Typedtree.expression;
}

type tables = {
  funs : (string, fun_info) Hashtbl.t;
  ambiguous : (string, unit) Hashtbl.t;
}

let has_attr name (attrs : Parsetree.attributes) =
  List.exists (fun (a : Parsetree.attribute) -> a.attr_name.Location.txt = name) attrs

let loc_pos (loc : Location.t) =
  let p = loc.Location.loc_start in
  (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)

let add_fun tables fi =
  if Hashtbl.mem tables.funs fi.fi_key then Hashtbl.replace tables.ambiguous fi.fi_key ()
  else Hashtbl.replace tables.funs fi.fi_key fi

let rec collect_structure cfg tables ~file ~stack (str : Typedtree.structure) =
  List.iter (collect_item cfg tables ~file ~stack) str.Typedtree.str_items

and collect_item cfg tables ~file ~stack (item : Typedtree.structure_item) =
  match item.Typedtree.str_desc with
  | Typedtree.Tstr_value (_, vbs) ->
      List.iter
        (fun (vb : Typedtree.value_binding) ->
          match vb.Typedtree.vb_pat.Typedtree.pat_desc with
          (* A type-annotated binding (let f : ty = ...) surfaces as
             Tpat_alias rather than Tpat_var. *)
          | Typedtree.Tpat_var (_, name) | Typedtree.Tpat_alias (_, _, name) ->
              let line, col = loc_pos vb.Typedtree.vb_pat.Typedtree.pat_loc in
              let innermost = match List.rev stack with m :: _ -> m | [] -> "" in
              let hot =
                has_attr cfg.Config.hot_attr vb.Typedtree.vb_attributes
                || has_attr cfg.Config.hot_attr vb.Typedtree.vb_expr.Typedtree.exp_attributes
              in
              add_fun tables
                {
                  fi_key = innermost ^ "." ^ name.Location.txt;
                  fi_file = file;
                  fi_line = line;
                  fi_col = col;
                  fi_hot = hot;
                  fi_stack = stack;
                  fi_body = vb.Typedtree.vb_expr;
                }
          | _ -> ())
        vbs
  | Typedtree.Tstr_module mb -> collect_module cfg tables ~file ~stack mb
  | Typedtree.Tstr_recmodule mbs -> List.iter (collect_module cfg tables ~file ~stack) mbs
  | _ -> ()

and collect_module cfg tables ~file ~stack (mb : Typedtree.module_binding) =
  let name =
    match mb.Typedtree.mb_id with Some id -> Ident.name id | None -> "_"
  in
  let rec descend (me : Typedtree.module_expr) =
    match me.Typedtree.mod_desc with
    | Typedtree.Tmod_structure s ->
        collect_structure cfg tables ~file ~stack:(stack @ [ name ]) s
    | Typedtree.Tmod_constraint (me, _, _, _) -> descend me
    | _ -> ()
  in
  descend mb.Typedtree.mb_expr

(* ---- callee resolution ---- *)

type callee =
  | Guard  (* a wedge/lease check *)
  | Protected of string  (* mutates durable server state *)
  | Fn of fun_info  (* in the table: follow the edge *)
  | Raising  (* error path: arguments exempt *)
  | Clean
  | Boxing of string * int  (* boxed-number primitive *)
  | Allocating of string * int * string
  | Unknown of string

let resolve cfg tables ~(stack : string list) (p : Path.t) : callee =
  let parts = strip_stdlib (path_parts p) in
  let base = base_of_parts parts in
  if List.mem base cfg.Config.f1_guards then Guard
  else
    let lookup key =
      if List.mem key cfg.Config.f1_protected then Some (Protected key)
      else if Hashtbl.mem tables.ambiguous key then Some (Unknown (key ^ " (ambiguous)"))
      else
        match Hashtbl.find_opt tables.funs key with
        | Some fi -> Some (Fn fi)
        | None -> None
    in
    match parts with
    | [ name ] -> (
        (* Unqualified: a sibling under any enclosing module, else an
           stdlib name in one of the effect tables. *)
        let rec try_stack = function
          | [] -> None
          | m :: outer -> (
              match lookup (m ^ "." ^ name) with Some c -> Some c | None -> try_stack outer)
        in
        match try_stack (List.rev stack) with
        | Some c -> c
        | None ->
            if List.mem name raising_table then Raising
            else if List.mem name clean_table then Clean
            else
              let boxing = List.assoc_opt name boxing_table in
              (match boxing with
              | Some w -> Boxing (name, w)
              | None -> (
                  match
                    List.find_opt (fun (k, _, _) -> k = name) allocating_table
                  with
                  | Some (k, w, what) -> Allocating (k, w, what)
                  | None -> Unknown name)))
    | _ -> (
        let key = key_of_parts parts in
        match lookup key with
        | Some c -> c
        | None ->
            if List.mem key clean_table then Clean
            else
              let boxing = List.assoc_opt key boxing_table in
              (match boxing with
              | Some w -> Boxing (key, w)
              | None -> (
                  match List.find_opt (fun (k, _, _) -> k = key) allocating_table with
                  | Some (k, w, what) -> Allocating (k, w, what)
                  | None -> Unknown key)))

(* ---- A1: per-function allocation summary ---- *)

type alloc_site = { al_line : int; al_col : int; al_words : int; al_what : string }

type a1_summary = { su_allocs : alloc_site list; su_edges : string list }

(* The curried-parameter chain of a binding is not a closure: full
   application goes direct, and partial application is charged at the
   call site. Everything below the chain is the body. *)
let rec function_bodies (e : Typedtree.expression) acc =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_function { cases; _ } ->
      List.fold_left
        (fun acc (c : Typedtree.value Typedtree.case) ->
          let acc =
            match c.Typedtree.c_guard with Some g -> g :: acc | None -> acc
          in
          function_bodies c.Typedtree.c_rhs acc)
        acc cases
  | _ -> e :: acc

let is_arrow ty =
  match Types.get_desc ty with Types.Tarrow _ -> true | _ -> false

(* Local let-bound lambdas: an application of one is already covered by
   the closure-creation finding at its definition, so the apply itself
   is not separately flagged. *)
let local_lambda_names (e : Typedtree.expression) =
  let names = ref [] in
  let expr it (e : Typedtree.expression) =
    (match e.Typedtree.exp_desc with
    | Typedtree.Texp_let (_, vbs, _) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            match
              (vb.Typedtree.vb_pat.Typedtree.pat_desc, vb.Typedtree.vb_expr.Typedtree.exp_desc)
            with
            | Typedtree.Tpat_var (_, n), Typedtree.Texp_function _ ->
                names := n.Location.txt :: !names
            | _ -> ())
          vbs
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it e;
  !names

let a1_summarize cfg tables (fi : fun_info) : a1_summary =
  let allocs = ref [] and edges = ref [] in
  let add_alloc loc words what =
    let line, col = loc_pos loc in
    allocs := { al_line = line; al_col = col; al_words = words; al_what = what } :: !allocs
  in
  let bodies = function_bodies fi.fi_body [] in
  let lambdas = List.concat_map local_lambda_names bodies in
  (* exempt: inside a raising call's arguments. unbox: this expression's
     boxed-number result is consumed directly by an unbox consumer. *)
  let rec walk ~exempt ~unbox (e : Typedtree.expression) =
    let desc = e.Typedtree.exp_desc in
    let loc = e.Typedtree.exp_loc in
    match desc with
    | Typedtree.Texp_ident _ | Typedtree.Texp_constant _
    | Typedtree.Texp_instvar _ | Typedtree.Texp_unreachable ->
        ()
    | Typedtree.Texp_let (_, vbs, body) ->
        List.iter
          (fun (vb : Typedtree.value_binding) -> walk ~exempt ~unbox:false vb.Typedtree.vb_expr)
          vbs;
        walk ~exempt ~unbox body
    | Typedtree.Texp_function _ ->
        if not exempt then add_alloc loc 5 "closure creation"
    | Typedtree.Texp_apply (hd, args) ->
        let walk_args ~exempt ~unbox_args =
          List.iter
            (fun (_, a) ->
              match a with Some a -> walk ~exempt ~unbox:unbox_args a | None -> ())
            args
        in
        (match hd.Typedtree.exp_desc with
        | Typedtree.Texp_ident (p, _, _) -> (
            let c = resolve cfg tables ~stack:fi.fi_stack p in
            let partial () =
              if (not exempt) && is_arrow e.Typedtree.exp_type then
                add_alloc loc 5 "partial application (closure)"
            in
            match c with
            | Raising -> walk_args ~exempt:true ~unbox_args:false
            | Guard | Clean ->
                partial ();
                let key = key_of_parts (strip_stdlib (path_parts p)) in
                let unbox_args = List.mem key unboxing_table in
                walk_args ~exempt ~unbox_args
            | Boxing (key, w) ->
                partial ();
                if (not exempt) && not unbox then
                  add_alloc loc w ("boxed result of " ^ key);
                walk_args ~exempt ~unbox_args:false
            | Allocating (key, w, what) ->
                if not exempt then
                  add_alloc loc w
                    (key ^ " allocates" ^ if what = "" then "" else " (" ^ what ^ ")");
                walk_args ~exempt ~unbox_args:false
            | Protected _ ->
                (* F1's concern; for allocation treat as unknown-clean. *)
                partial ();
                walk_args ~exempt ~unbox_args:false
            | Fn callee ->
                partial ();
                edges := callee.fi_key :: !edges;
                walk_args ~exempt ~unbox_args:false
            | Unknown name ->
                if not exempt then
                  if List.mem name lambdas then
                    (* local lambda: its creation is already flagged *)
                    ()
                  else if String.contains name '.' then
                    add_alloc loc 8 ("call to " ^ name ^ " outside the analysis tables")
                  else
                    add_alloc loc 8
                      ("indirect call via `" ^ name ^ "` (function value, not analyzable)");
                walk_args ~exempt ~unbox_args:false)
        | _ ->
            if not exempt then add_alloc loc 8 "indirect call through a computed function";
            walk ~exempt ~unbox:false hd;
            walk_args ~exempt ~unbox_args:false)
    | Typedtree.Texp_match (e0, cases, _) ->
        walk ~exempt ~unbox:false e0;
        List.iter
          (fun (c : Typedtree.computation Typedtree.case) ->
            (match c.Typedtree.c_guard with Some g -> walk ~exempt ~unbox:false g | None -> ());
            walk ~exempt ~unbox c.Typedtree.c_rhs)
          cases
    | Typedtree.Texp_try (b, cases) ->
        walk ~exempt ~unbox b;
        List.iter
          (fun (c : Typedtree.value Typedtree.case) ->
            (match c.Typedtree.c_guard with Some g -> walk ~exempt ~unbox:false g | None -> ());
            walk ~exempt ~unbox c.Typedtree.c_rhs)
          cases
    | Typedtree.Texp_tuple es ->
        if not exempt then add_alloc loc (List.length es + 1) "tuple";
        List.iter (walk ~exempt ~unbox:false) es
    | Typedtree.Texp_construct (_, cd, args) ->
        if args <> [] && not exempt then
          add_alloc loc
            (List.length args + 1)
            ("constructor " ^ cd.Types.cstr_name ^ " with arguments");
        List.iter (walk ~exempt ~unbox:false) args
    | Typedtree.Texp_variant (_, arg) ->
        (match arg with
        | Some a ->
            if not exempt then add_alloc loc 3 "polymorphic variant";
            walk ~exempt ~unbox:false a
        | None -> ())
    | Typedtree.Texp_record { fields; extended_expression; _ } ->
        if not exempt then add_alloc loc (Array.length fields + 1) "record";
        Array.iter
          (fun (_, def) ->
            match def with
            | Typedtree.Overridden (_, e) -> walk ~exempt ~unbox:false e
            | Typedtree.Kept _ -> ())
          fields;
        (match extended_expression with Some e -> walk ~exempt ~unbox:false e | None -> ())
    | Typedtree.Texp_field (a, _, _) -> walk ~exempt ~unbox:false a
    | Typedtree.Texp_setfield (a, _, _, b) ->
        walk ~exempt ~unbox:false a;
        walk ~exempt ~unbox:false b
    | Typedtree.Texp_array es ->
        if not exempt then add_alloc loc (List.length es + 1) "array literal";
        List.iter (walk ~exempt ~unbox:false) es
    | Typedtree.Texp_ifthenelse (c, t, f) ->
        walk ~exempt ~unbox:false c;
        walk ~exempt ~unbox t;
        (match f with Some f -> walk ~exempt ~unbox f | None -> ())
    | Typedtree.Texp_sequence (a, b) ->
        walk ~exempt ~unbox:false a;
        walk ~exempt ~unbox b
    | Typedtree.Texp_while (c, b) ->
        walk ~exempt ~unbox:false c;
        walk ~exempt ~unbox:false b
    | Typedtree.Texp_for (_, _, lo, hi, _, b) ->
        walk ~exempt ~unbox:false lo;
        walk ~exempt ~unbox:false hi;
        walk ~exempt ~unbox:false b
    | Typedtree.Texp_assert (e, _) -> walk ~exempt:true ~unbox:false e
    | Typedtree.Texp_lazy e ->
        if not exempt then add_alloc loc 3 "lazy thunk";
        walk ~exempt ~unbox:false e
    | Typedtree.Texp_open (_, e) -> walk ~exempt ~unbox e
    | Typedtree.Texp_letexception (_, e) -> walk ~exempt ~unbox e
    | _ ->
        if not exempt then
          add_alloc loc 8 "construct outside the A1 allocation model"
  in
  List.iter (walk ~exempt:false ~unbox:false) bodies;
  { su_allocs = List.rev !allocs; su_edges = List.rev !edges }

(* ---- F1: latch walk + unsafe fixpoint ---- *)

type f1_site = { fs_line : int; fs_col : int; fs_what : string }

type f1_summary = {
  f1_direct : f1_site list;  (* protected ops reached unguarded *)
  f1_calls : (f1_site * string) list;  (* unguarded edges: site, callee key *)
}

let f1_summarize cfg tables (fi : fun_info) : f1_summary =
  let direct = ref [] and calls = ref [] in
  let site loc what =
    let line, col = loc_pos loc in
    { fs_line = line; fs_col = col; fs_what = what }
  in
  (* Returns whether the continuation is guarded after evaluating [e]
     from a [guarded] state. The latch only sets: polarity of the check
     is the runtime tests' concern; presence is ours. *)
  let rec walk guarded (e : Typedtree.expression) : bool =
    let desc = e.Typedtree.exp_desc in
    let loc = e.Typedtree.exp_loc in
    match desc with
    | Typedtree.Texp_ident _ | Typedtree.Texp_constant _ | Typedtree.Texp_instvar _
    | Typedtree.Texp_unreachable ->
        guarded
    | Typedtree.Texp_let (_, vbs, body) ->
        let g =
          List.fold_left
            (fun g (vb : Typedtree.value_binding) -> walk g vb.Typedtree.vb_expr)
            guarded vbs
        in
        walk g body
    | Typedtree.Texp_function { cases; _ } ->
        (* A closure runs later, but conservatively at least as late as
           its creation: walk the body in the current state. *)
        List.iter
          (fun (c : Typedtree.value Typedtree.case) ->
            (match c.Typedtree.c_guard with Some g -> ignore (walk guarded g) | None -> ());
            ignore (walk guarded c.Typedtree.c_rhs))
          cases;
        guarded
    | Typedtree.Texp_apply (hd, args) -> (
        let g =
          List.fold_left
            (fun g (_, a) -> match a with Some a -> walk g a | None -> g)
            guarded args
        in
        match hd.Typedtree.exp_desc with
        | Typedtree.Texp_ident (p, _, _) -> (
            match resolve cfg tables ~stack:fi.fi_stack p with
            | Guard -> true
            | Protected key ->
                if not g then direct := site loc key :: !direct;
                g
            | Fn callee ->
                if not g then calls := (site loc callee.fi_key, callee.fi_key) :: !calls;
                g
            | Raising | Clean | Boxing _ | Allocating _ | Unknown _ -> g)
        | _ -> walk g hd)
    | Typedtree.Texp_match (e0, cases, _) ->
        let g = walk guarded e0 in
        if cases = [] then g
        else
          List.fold_left
            (fun acc (c : Typedtree.computation Typedtree.case) ->
              let gc =
                match c.Typedtree.c_guard with Some gd -> walk g gd | None -> g
              in
              let gr = walk gc c.Typedtree.c_rhs in
              acc && gr)
            true cases
    | Typedtree.Texp_try (b, cases) ->
        let g = walk guarded b in
        List.iter
          (fun (c : Typedtree.value Typedtree.case) ->
            (match c.Typedtree.c_guard with Some gd -> ignore (walk guarded gd) | None -> ());
            ignore (walk guarded c.Typedtree.c_rhs))
          cases;
        g
    | Typedtree.Texp_tuple es | Typedtree.Texp_array es ->
        List.fold_left walk guarded es
    | Typedtree.Texp_construct (_, _, args) -> List.fold_left walk guarded args
    | Typedtree.Texp_variant (_, arg) -> (
        match arg with Some a -> walk guarded a | None -> guarded)
    | Typedtree.Texp_record { fields; extended_expression; _ } ->
        let g =
          Array.fold_left
            (fun g (_, def) ->
              match def with
              | Typedtree.Overridden (_, e) -> walk g e
              | Typedtree.Kept _ -> g)
            guarded fields
        in
        (match extended_expression with Some e -> walk g e | None -> g)
    | Typedtree.Texp_field (a, _, _) -> walk guarded a
    | Typedtree.Texp_setfield (a, _, _, b) -> walk (walk guarded a) b
    | Typedtree.Texp_ifthenelse (c, t, f) ->
        let g = walk guarded c in
        let gt = walk g t in
        let gf = match f with Some f -> walk g f | None -> g in
        gt && gf
    | Typedtree.Texp_sequence (a, b) -> walk (walk guarded a) b
    | Typedtree.Texp_while (c, b) ->
        let g = walk guarded c in
        ignore (walk g b);
        g
    | Typedtree.Texp_for (_, _, lo, hi, _, b) ->
        let g = walk (walk guarded lo) hi in
        ignore (walk g b);
        g
    | Typedtree.Texp_assert (e, _) -> walk guarded e
    | Typedtree.Texp_lazy e ->
        ignore (walk guarded e);
        guarded
    | Typedtree.Texp_open (_, e) -> walk guarded e
    | Typedtree.Texp_letexception (_, e) -> walk guarded e
    | _ -> guarded
  in
  ignore (walk false fi.fi_body);
  { f1_direct = List.rev !direct; f1_calls = List.rev !calls }

(* ---- cmt discovery ---- *)

let ends_with ~suffix s =
  let n = String.length s and m = String.length suffix in
  n >= m && String.sub s (n - m) m = suffix

let find_cmts dir =
  let out = ref [] in
  let rec walk path =
    match Sys.is_directory path with
    | true ->
        if Filename.basename path <> ".git" then
          Array.iter (fun f -> walk (Filename.concat path f)) (Sys.readdir path)
    | false -> if ends_with ~suffix:".cmt" path then out := path :: !out
    | exception Sys_error _ -> ()
  in
  walk dir;
  List.sort String.compare !out

(* The cmt's recorded source path is relative to the build-context root;
   the walked path is relative to the scan's cwd. Either may be a proper
   suffix of the other at a '/' boundary. *)
let path_matches ~cmt_src ~walked =
  cmt_src = walked
  || ends_with ~suffix:("/" ^ walked) cmt_src
  || ends_with ~suffix:("/" ^ cmt_src) walked

(* ---- analysis driver ---- *)

type hot_root = {
  hr_name : string;
  hr_file : string;
  hr_line : int;
  hr_words : int;
  hr_sites : int;
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Exported value names of the .mli next to [ml_file], or None when no
   interface exists (then every top-level binding is an entry point). *)
let exported_names ~files ~ml_file =
  let mli = String.sub ml_file 0 (String.length ml_file - 3) ^ ".mli" in
  if not (List.mem mli files && Sys.file_exists mli) then None
  else
    match Parse.interface (Lexing.from_string (read_file mli)) with
    | sg ->
        Some
          (List.filter_map
             (fun (it : Parsetree.signature_item) ->
               match it.Parsetree.psig_desc with
               | Parsetree.Psig_value vd -> Some vd.Parsetree.pval_name.Location.txt
               | _ -> None)
             sg)
    | exception _ -> None

let analyze cfg ~cmt_dir ~files =
  let findings = ref [] in
  let add f = findings := f :: !findings in
  let ml_files = List.filter (fun f -> ends_with ~suffix:".ml" f) files in
  let tables = { funs = Hashtbl.create 512; ambiguous = Hashtbl.create 8 } in
  let matched : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun cmt_path ->
      match Cmt_format.read_cmt cmt_path with
      | exception _ -> ()
      | cmt -> (
          match (cmt.Cmt_format.cmt_sourcefile, cmt.Cmt_format.cmt_annots) with
          | Some src, Cmt_format.Implementation str -> (
              match
                List.find_opt (fun w -> path_matches ~cmt_src:src ~walked:w) ml_files
              with
              | None -> ()
              | Some walked ->
                  if not (Hashtbl.mem matched walked) then begin
                    Hashtbl.replace matched walked ();
                    let modname = canonical_modname cmt.Cmt_format.cmt_modname in
                    collect_structure cfg tables ~file:walked ~stack:[ modname ] str
                  end)
          | _ -> ()))
    (find_cmts cmt_dir);
  (* A hot-path or fenced file with no cmt is a broken gate, not a clean
     one: fail loudly so the tier cannot silently rot away. *)
  List.iter
    (fun f ->
      if not (Hashtbl.mem matched f) then begin
        if cfg.Config.a1_scope f then
          add
            (F.make ~file:f ~line:1 ~col:0 ~rule:F.A1
               "A1: no .cmt found for this hot-path file — build it before linting \
                (check --cmt-dir)");
        if cfg.Config.f1_scope f then
          add
            (F.make ~file:f ~line:1 ~col:0 ~rule:F.F1
               "F1: no .cmt found for this fenced module — build it before linting \
                (check --cmt-dir)")
      end)
    ml_files;
  (* ---- A1 ---- *)
  let a1_memo : (string, a1_summary) Hashtbl.t = Hashtbl.create 64 in
  let summarize fi =
    match Hashtbl.find_opt a1_memo fi.fi_key with
    | Some s -> s
    | None ->
        let s = a1_summarize cfg tables fi in
        Hashtbl.replace a1_memo fi.fi_key s;
        s
  in
  let hot_roots = ref [] in
  let roots =
    Hashtbl.fold
      (fun _ fi acc -> if fi.fi_hot && cfg.Config.a1_scope fi.fi_file then fi :: acc else acc)
      tables.funs []
    |> List.sort (fun a b -> String.compare a.fi_key b.fi_key)
  in
  let reported : (string * int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun root ->
      let visited : (string, unit) Hashtbl.t = Hashtbl.create 16 in
      let words = ref 0 and sites = ref 0 in
      let rec visit fi =
        if not (Hashtbl.mem visited fi.fi_key) then begin
          Hashtbl.replace visited fi.fi_key ();
          let s = summarize fi in
          List.iter
            (fun al ->
              words := !words + al.al_words;
              incr sites;
              let where =
                if fi.fi_key = root.fi_key then ""
                else Printf.sprintf " in %s" fi.fi_key
              in
              if not (Hashtbl.mem reported (fi.fi_file, al.al_line, al.al_col)) then begin
                Hashtbl.replace reported (fi.fi_file, al.al_line, al.al_col) ();
                add
                  (F.make ~file:fi.fi_file ~line:al.al_line ~col:al.al_col ~rule:F.A1
                     ~words:al.al_words
                     (Printf.sprintf "A1: %s (~%d words)%s — reachable from [@hot] %s"
                        al.al_what al.al_words where root.fi_key))
              end)
            s.su_allocs;
          List.iter
            (fun key ->
              match Hashtbl.find_opt tables.funs key with
              | Some callee -> visit callee
              | None -> ())
            s.su_edges
        end
      in
      visit root;
      hot_roots :=
        {
          hr_name = root.fi_key;
          hr_file = root.fi_file;
          hr_line = root.fi_line;
          hr_words = !words;
          hr_sites = !sites;
        }
        :: !hot_roots)
    roots;
  (* ---- F1 ---- *)
  let f1_memo : (string, f1_summary) Hashtbl.t = Hashtbl.create 64 in
  let f1_sum fi =
    match Hashtbl.find_opt f1_memo fi.fi_key with
    | Some s -> s
    | None ->
        let s = f1_summarize cfg tables fi in
        Hashtbl.replace f1_memo fi.fi_key s;
        s
  in
  let fenced_files = List.filter cfg.Config.f1_scope ml_files in
  List.iter
    (fun file ->
      if Hashtbl.mem matched file then begin
        let in_file =
          Hashtbl.fold
            (fun _ fi acc -> if fi.fi_file = file then fi :: acc else acc)
            tables.funs []
          |> List.sort (fun a b -> compare (a.fi_line, a.fi_col) (b.fi_line, b.fi_col))
        in
        (* Transitive closure over unguarded edges, then a fixpoint for
           unsafe(f): reaches a protected op with no guard on the way. *)
        let involved : (string, fun_info) Hashtbl.t = Hashtbl.create 32 in
        let rec gather fi =
          if not (Hashtbl.mem involved fi.fi_key) then begin
            Hashtbl.replace involved fi.fi_key fi;
            List.iter
              (fun (_, key) ->
                match Hashtbl.find_opt tables.funs key with
                | Some callee -> gather callee
                | None -> ())
              (f1_sum fi).f1_calls
          end
        in
        List.iter gather in_file;
        let unsafe : (string, unit) Hashtbl.t = Hashtbl.create 16 in
        let changed = ref true in
        while !changed do
          changed := false;
          Hashtbl.iter
            (fun key fi ->
              if not (Hashtbl.mem unsafe key) then begin
                let s = f1_sum fi in
                if
                  s.f1_direct <> []
                  || List.exists (fun (_, k) -> Hashtbl.mem unsafe k) s.f1_calls
                then begin
                  Hashtbl.replace unsafe key ();
                  changed := true
                end
              end)
            involved
        done;
        let witness fi =
          let rec chase fi depth =
            let s = f1_sum fi in
            match s.f1_direct with
            | w :: _ -> Printf.sprintf "%s at %s:%d" w.fs_what fi.fi_file w.fs_line
            | [] -> (
                match
                  List.find_opt (fun (_, k) -> Hashtbl.mem unsafe k) s.f1_calls
                with
                | Some (w, key) when depth < 6 -> (
                    match Hashtbl.find_opt tables.funs key with
                    | Some callee ->
                        Printf.sprintf "%s (%s:%d) -> %s" key fi.fi_file w.fs_line
                          (chase callee (depth + 1))
                    | None -> Printf.sprintf "%s at %s:%d" key fi.fi_file w.fs_line)
                | _ -> "unguarded path")
          in
          chase fi 0
        in
        let exported = exported_names ~files ~ml_file:file in
        List.iter
          (fun fi ->
            let name =
              match String.index_opt fi.fi_key '.' with
              | Some i -> String.sub fi.fi_key (i + 1) (String.length fi.fi_key - i - 1)
              | None -> fi.fi_key
            in
            let is_entry =
              List.length fi.fi_stack = 1
              && match exported with None -> true | Some names -> List.mem name names
            in
            if is_entry && Hashtbl.mem unsafe fi.fi_key then
              add
                (F.make ~file:fi.fi_file ~line:fi.fi_line ~col:fi.fi_col ~rule:F.F1
                   (Printf.sprintf
                      "F1: exported %s reaches a protected mutation without a dominating \
                       wedge/lease check (via %s)"
                      fi.fi_key (witness fi))))
          in_file
      end)
    fenced_files;
  let by_file = Hashtbl.create 16 in
  List.iter
    (fun (f : F.t) ->
      let cur = match Hashtbl.find_opt by_file f.F.file with Some l -> l | None -> [] in
      Hashtbl.replace by_file f.F.file (f :: cur))
    !findings;
  let per_file = Hashtbl.fold (fun file fs acc -> (file, List.rev fs) :: acc) by_file [] in
  ( per_file,
    List.sort (fun a b -> String.compare a.hr_name b.hr_name) !hot_roots )
