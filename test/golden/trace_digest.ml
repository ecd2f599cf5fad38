(* Digest of a `slice_sim trace --json` report for its golden: the hop
   rows, the registry dump, the op count and the dropped-span count
   verbatim, and the span dump (most of the file) as one MD5, so the
   committed golden stays small while any change to a span still fails.

   Usage: trace_digest REPORT.json *)

module Json = Slice_util.Json

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let () =
  let report = Json.of_string (read_file Sys.argv.(1)) in
  let field name =
    match Json.member name report with
    | Some v -> v
    | None -> failwith ("trace report has no " ^ name ^ " field")
  in
  List.iter
    (fun name -> Printf.printf "%s: %s\n" name (Json.to_string (field name)))
    [ "dropped"; "hops"; "metrics"; "ops" ];
  Printf.printf "trace md5: %s\n" (Slice_hash.Md5.hex (Json.to_string (field "trace")))
