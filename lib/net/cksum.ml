let ones_add a b =
  let s = a + b in
  (s land 0xFFFF) + (s lsr 16)

let compute (p : Packet.t) =
  Packet.compute_cksum ~src:p.src ~dst:p.dst ~sport:p.sport ~dport:p.dport p.payload

let verify p = p.Packet.cksum = compute p

let adjust cksum ~old_word ~new_word =
  (* RFC 1624: HC' = ~(~HC + ~m + m') in ones-complement arithmetic. *)
  let s = ones_add (lnot cksum land 0xFFFF) (lnot old_word land 0xFFFF) in
  let s = ones_add s (new_word land 0xFFFF) in
  lnot s land 0xFFFF

let adjust32 cksum ~old_v ~new_v =
  let c = adjust cksum ~old_word:(old_v lsr 16) ~new_word:(new_v lsr 16) in
  adjust c ~old_word:(old_v land 0xFFFF) ~new_word:(new_v land 0xFFFF)

let rewrite_src (p : Packet.t) a =
  p.cksum <- adjust32 p.cksum ~old_v:p.src ~new_v:a;
  p.src <- a

let rewrite_dst (p : Packet.t) a =
  p.cksum <- adjust32 p.cksum ~old_v:p.dst ~new_v:a;
  p.dst <- a

let word_at payload i =
  let n = Bytes.length payload in
  if i + 1 < n then
    (Char.code (Bytes.get payload i) lsl 8) lor Char.code (Bytes.get payload (i + 1))
  else (Char.code (Bytes.get payload i)) lsl 8

(* Adjust one aligned 16-bit word at a time. An odd-length patch shares
   its final word with the following payload byte, handled by word_at. *)
let patch_words (p : Packet.t) ~off src spos len =
  let i = ref 0 in
  while !i < len do
    let word_off = off + !i in
    let old_word = word_at p.payload word_off in
    Bytes.set p.payload word_off (Bytes.get src (spos + !i));
    if !i + 1 < len then Bytes.set p.payload (word_off + 1) (Bytes.get src (spos + !i + 1));
    let new_word = word_at p.payload word_off in
    p.cksum <- adjust p.cksum ~old_word ~new_word;
    i := !i + 2
  done

let patch_payload_bytes (p : Packet.t) ~off src ~spos ~len =
  if
    off < 0
    || off land 1 <> 0
    || off + len > Bytes.length p.payload
    || spos < 0
    || len < 0
    || spos + len > Bytes.length src
  then invalid_arg "Cksum.patch_payload_bytes";
  patch_words p ~off src spos len
