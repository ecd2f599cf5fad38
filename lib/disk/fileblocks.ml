let block_size = Bcache.block_size

type t = (int, bytes) Hashtbl.t

(* lint: bounded — one row per block of real bytes, capped by the file's size *)
let create () = Hashtbl.create 8

let store t ~off data =
  let len = String.length data in
  let rec loop pos =
    if pos < len then begin
      let abs = off + pos in
      let blk = abs / block_size and in_blk = abs mod block_size in
      let n = min (block_size - in_blk) (len - pos) in
      let buf =
        match Hashtbl.find_opt t blk with
        | Some b -> b
        | None ->
            let b = Bytes.make block_size '\000' in
            Hashtbl.replace t blk b;
            b
      in
      Bytes.blit_string data pos buf in_blk n;
      loop (pos + n)
    end
  in
  loop 0

let load t ~off ~count =
  let first = off / block_size and last = (off + count - 1) / block_size in
  let all = ref (count > 0) in
  for b = first to last do
    if not (Hashtbl.mem t b) then all := false
  done;
  if not !all then None
  else begin
    let out = Bytes.create count in
    let rec loop pos =
      if pos < count then begin
        let abs = off + pos in
        let in_blk = abs mod block_size in
        let n = min (block_size - in_blk) (count - pos) in
        Bytes.blit (Hashtbl.find t (abs / block_size)) in_blk out pos n;
        loop (pos + n)
      end
    in
    loop 0;
    Some (Bytes.unsafe_to_string out)
  end

let truncate t size =
  let past = (size + block_size - 1) / block_size in
  Hashtbl.filter_map_inplace (fun b buf -> if b >= past then None else Some buf) t;
  let tail = size mod block_size in
  if tail > 0 then
    match Hashtbl.find_opt t (size / block_size) with
    | Some buf -> Bytes.fill buf tail (block_size - tail) '\000'
    | None -> ()
