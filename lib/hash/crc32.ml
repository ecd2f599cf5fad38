(* The table and the running value are plain ints (every entry fits in
   32 bits), so [sum] allocates nothing: no boxed int32 per step or for
   the result, and the table is built once at start-up rather than
   forced lazily. *)
let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
      done;
      !c)

let rec update buf c i stop =
  if i = stop then c
  else
    update buf
      (table.((c lxor Char.code (Bytes.unsafe_get buf i)) land 0xFF) lxor (c lsr 8))
      (i + 1) stop

let sum buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then invalid_arg "Crc32";
  update buf 0xFFFFFFFF pos (pos + len) lxor 0xFFFFFFFF

let bytes buf ~pos ~len = Int32.of_int (sum buf ~pos ~len)
