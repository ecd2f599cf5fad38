let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           if Int32.logand !c 1l <> 0l then
             c := Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
           else c := Int32.shift_right_logical !c 1
         done;
         !c))

let bytes buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then invalid_arg "Crc32.bytes";
  let tbl = Lazy.force table in
  let c = ref 0xFFFFFFFFl in
  for i = pos to pos + len - 1 do
    let idx = Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code (Bytes.get buf i)))) 0xFFl) in
    c := Int32.logxor tbl.(idx) (Int32.shift_right_logical !c 8)
  done;
  Int32.logxor !c 0xFFFFFFFFl
