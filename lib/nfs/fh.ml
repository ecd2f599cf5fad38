type ftype = Reg | Dir | Lnk

type t = {
  file_id : int64;
  gen : int;
  ftype : ftype;
  mirrored : bool;
  attr_site : int;
  cap : int64;
}

let root = { file_id = 1L; gen = 1; ftype = Dir; mirrored = false; attr_site = 0; cap = 0L }
let wire_length = 32
let magic = 0x534C4943 (* "SLIC" *)

let int_of_ftype = function Reg -> 1 | Dir -> 2 | Lnk -> 5

(* Total over the codes [peek_valid] admits (1, 2, 5). *)
let ftype_of_code = function 1 -> Reg | 2 -> Dir | _ -> Lnk

(* The low 32 bits of [x], big-endian, as two halves: no boxed int32. *)
let put_u32 b off x =
  Bytes.set_uint16_be b off ((x lsr 16) land 0xFFFF);
  Bytes.set_uint16_be b (off + 2) (x land 0xFFFF)

(* Wire layout: magic(4) file_id(8) gen(4) ftype(1) mirrored(1)
   attr_site(4) cap(8), zero-padded to 32 bytes. *)
let[@hot] write_into b off t =
  put_u32 b off magic;
  Bytes.set_int64_be b (off + 4) t.file_id;
  put_u32 b (off + 12) t.gen;
  Bytes.set b (off + 16) (Char.chr (int_of_ftype t.ftype));
  Bytes.set b (off + 17) (if t.mirrored then '\001' else '\000');
  put_u32 b (off + 18) t.attr_site;
  Bytes.set_int64_be b (off + 22) t.cap;
  Bytes.set_uint16_be b (off + 30) 0

let encode t =
  let b = Bytes.create wire_length in
  write_into b 0 t;
  Bytes.unsafe_to_string b

(* ---- in-place peeks: read handle fields straight out of a packet
   buffer (the 32-byte span located by the codec's cursor) without
   materializing a string or a record. All [@hot] µproxy routing
   decisions run over these. [peek_valid] is the gate: every other peek
   assumes it returned [true] for the same (buf, off). *)

let[@hot] peek_valid buf off len =
  Int.equal len wire_length
  && off >= 0
  && off + wire_length <= Bytes.length buf
  && Int32.to_int (Bytes.get_int32_be buf off) = magic
  &&
  let ft = Char.code (Bytes.get buf (off + 16)) in
  ft = 1 || ft = 2 || ft = 5

let[@hot] peek_file_id_int buf off = Int64.to_int (Bytes.get_int64_be buf (off + 4))
let[@hot] peek_gen buf off = Int32.to_int (Bytes.get_int32_be buf (off + 12))
let[@hot] peek_ftype_code buf off = Char.code (Bytes.get buf (off + 16))
let[@hot] peek_mirrored buf off = Char.code (Bytes.get buf (off + 17)) = 1
let[@hot] peek_attr_site buf off = Int32.to_int (Bytes.get_int32_be buf (off + 18))

(* Most handles carry no capability: a zero tag is the shared [0L], not
   a fresh box. *)
let[@inline] cap_at b off = if Bytes.get_int64_be b off = 0L then 0L else Bytes.get_int64_be b off

let read_at b off =
  {
    file_id = Bytes.get_int64_be b (off + 4);
    gen = Int32.to_int (Bytes.get_int32_be b (off + 12));
    ftype = ftype_of_code (Char.code (Bytes.get b (off + 16)));
    mirrored = Bytes.get b (off + 17) = '\001';
    attr_site = Int32.to_int (Bytes.get_int32_be b (off + 18));
    cap = cap_at b (off + 22);
  }

(* Cold-path materialization of a peeked span (intent logs, writeback,
   commit orchestration — places that outlive the packet buffer). *)
let decode_at buf off = if peek_valid buf off wire_length then Some (read_at buf off) else None

let decode s =
  if String.length s <> wire_length then None else decode_at (Bytes.unsafe_of_string s) 0

(* Keyed equality: exactly the (file_id, gen) identity, via the scalar
   equalities — never polymorphic compare over the whole record (policy
   bits and the capability tag are not identity). *)
let equal a b = Int64.equal a.file_id b.file_id && Int.equal a.gen b.gen
