open Helpers
module Fh = Slice_nfs.Fh
module Nfs = Slice_nfs.Nfs
module Codec = Slice_nfs.Codec
module Routekey = Slice_nfs.Routekey

let gen_ftype = QCheck2.Gen.oneofl [ Fh.Reg; Fh.Dir; Fh.Lnk ]

let gen_fh =
  QCheck2.Gen.(
    map
      (fun (fid, gen, ftype, (mirrored, site)) ->
        {
          Fh.file_id = Int64.of_int (abs fid);
          gen = gen land 0xFFFF;
          ftype;
          mirrored;
          attr_site = site;
          cap = Int64.of_int (fid lxor gen);
        })
      (tup4 int int gen_ftype (pair bool (int_range 0 255))))

let gen_name = QCheck2.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 1 30))

(* ---- file handles ---- *)

let fh_roundtrip =
  qtest "fh encode/decode roundtrip" gen_fh (fun fh ->
      match Fh.decode (Fh.encode fh) with Some fh' -> fh' = fh | None -> false)

let fh_wire_length () =
  check_int "wire length" Fh.wire_length (String.length (Fh.encode Fh.root))

let fh_bad_magic () =
  check_bool "garbage rejected" true (Fh.decode (String.make Fh.wire_length 'z') = None);
  check_bool "short rejected" true (Fh.decode "abc" = None)

let fh_root () =
  check_bool "root is dir" true (Fh.root.Fh.ftype = Fh.Dir);
  check_bool "root id 1" true (Fh.root.Fh.file_id = 1L)

(* ---- calls ---- *)

let sample_attr =
  {
    Nfs.ftype = Fh.Reg;
    mode = 0o644;
    nlink = 1;
    uid = 10;
    gid = 20;
    size = 123456L;
    used = 131072L;
    fileid = 42L;
    atime = 100.5;
    mtime = 200.25;
    ctime = 300.125;
  }

let gen_call =
  let open QCheck2.Gen in
  let fh = gen_fh in
  oneof
    [
      return Nfs.Null;
      map (fun f -> Nfs.Getattr f) fh;
      map2 (fun f n -> Nfs.Lookup (f, n)) fh gen_name;
      map2 (fun f n -> Nfs.Create (f, n)) fh gen_name;
      map2 (fun f n -> Nfs.Mkdir (f, n)) fh gen_name;
      map2 (fun f n -> Nfs.Remove (f, n)) fh gen_name;
      map2 (fun f n -> Nfs.Rmdir (f, n)) fh gen_name;
      map2 (fun f m -> Nfs.Access (f, m land 0x3F)) fh int;
      map (fun f -> Nfs.Readlink f) fh;
      map (fun f -> Nfs.Fsstat f) fh;
      map3
        (fun f off count -> Nfs.Read (f, Int64.of_int (abs off), count land 0xFFFFF))
        fh int int;
      map3
        (fun f off data -> Nfs.Write (f, Int64.of_int (abs off), Nfs.Unstable, Nfs.Data data))
        fh int (string_size (int_range 0 64));
      map3
        (fun f off n -> Nfs.Write (f, Int64.of_int (abs off), Nfs.File_sync, Nfs.Synthetic (n land 0xFFFFF)))
        fh int int;
      map3 (fun f n t -> Nfs.Symlink (f, n, t)) fh gen_name gen_name;
      map3 (fun f1 n1 (f2, n2) -> Nfs.Rename (f1, n1, f2, n2)) fh gen_name (pair fh gen_name);
      map3 (fun f d n -> Nfs.Link (f, d, n)) fh fh gen_name;
      map3
        (fun f c n -> Nfs.Readdir (f, Int64.of_int (abs c), n land 0xFF))
        fh int int;
      map3
        (fun f off n -> Nfs.Commit (f, Int64.of_int (abs off), n land 0xFFFFF))
        fh int int;
      map2
        (fun f sz -> Nfs.Setattr (f, Nfs.sattr_size (Int64.of_int (abs sz))))
        fh int;
    ]

let call_roundtrip =
  qtest ~count:500 "call encode/decode roundtrip" QCheck2.Gen.(pair small_int gen_call)
    (fun (xid, call) ->
      let xid = xid land 0xFFFF in
      let xid', call' = Codec.decode_call (Codec.encode_call ~xid call) in
      xid' = xid && call' = call)

(* What the µproxy's cursor recorded, read back out of the buffer, must
   match the full decode field for field. *)
let cursor_agrees_with_decode buf (c : Codec.cursor) =
  let xid, call = Codec.decode_call buf in
  let fh_at off = if off < 0 then None else Fh.decode (Bytes.sub_string buf off Fh.wire_length) in
  let str_at off len = if len < 0 then None else Some (Bytes.sub_string buf off len) in
  let fh = fh_at c.Codec.c_fh_off and fh2 = fh_at c.Codec.c_fh2_off in
  let name = str_at c.Codec.c_name_off c.Codec.c_name_len in
  let name2 = str_at c.Codec.c_name2_off c.Codec.c_name2_len in
  let off_count off count =
    c.Codec.c_off_field >= 0
    && Int64.of_int c.Codec.c_offset = off
    && Bytes.get_int64_be buf c.Codec.c_off_field = off
    && c.Codec.c_count = count
  in
  c.Codec.c_xid = xid
  && c.Codec.c_proc = Nfs.proc_of_call call
  &&
  match call with
  | Nfs.Null -> fh = None && name = None && c.Codec.c_off_field < 0
  | Nfs.Getattr f | Nfs.Readlink f | Nfs.Fsstat f -> fh = Some f && name = None
  | Nfs.Setattr (f, sa) ->
      fh = Some f
      && (if c.Codec.c_has_set_size then Some (Int64.of_int c.Codec.c_set_size) else None)
         = sa.Nfs.set_size
  | Nfs.Lookup (f, n) | Nfs.Create (f, n) | Nfs.Mkdir (f, n) | Nfs.Remove (f, n)
  | Nfs.Rmdir (f, n) | Nfs.Symlink (f, n, _) ->
      fh = Some f && name = Some n && fh2 = None
  | Nfs.Access (f, m) -> fh = Some f && c.Codec.c_access = m
  | Nfs.Read (f, off, n) | Nfs.Commit (f, off, n) | Nfs.Readdir (f, off, n) ->
      fh = Some f && off_count off n
  | Nfs.Write (f, off, stable, data) ->
      fh = Some f
      && off_count off (Nfs.wdata_length data)
      && c.Codec.c_stable
         = (match stable with Nfs.Unstable -> 0 | Nfs.Data_sync -> 1 | Nfs.File_sync -> 2)
  | Nfs.Rename (f1, n1, f2, n2) -> fh = Some f1 && name = Some n1 && fh2 = Some f2 && name2 = Some n2
  | Nfs.Link (f, d, n) -> fh = Some f && fh2 = Some d && name = Some n

let peek_matches_decode =
  qtest ~count:500 "peek agrees with full decode" gen_call (fun call ->
      let buf = Codec.encode_call ~xid:77 call in
      let c = Codec.cursor () in
      Codec.peek_call_into c buf && cursor_agrees_with_decode buf c)

let peek_offset_field =
  qtest "peek's offset field location is exact" QCheck2.Gen.(pair gen_fh int)
    (fun (fh, off) ->
      let off = Int64.of_int (abs off) in
      let buf = Codec.encode_call ~xid:9 (Nfs.Read (fh, off, 4096)) in
      let c = Codec.cursor () in
      Codec.peek_call_into c buf
      && c.Codec.c_off_field >= 0
      && Bytes.get_int64_be buf c.Codec.c_off_field = off)

let peek_rejects_garbage () =
  let c = Codec.cursor () in
  check_bool "garbage" false (Codec.peek_call_into c (Bytes.make 40 'x'));
  check_bool "empty" false (Codec.peek_call_into c Bytes.empty);
  let reply = Codec.encode_reply ~xid:3 (Ok Nfs.RNull) in
  check_bool "reply is not a call" false (Codec.peek_call_into c reply)

(* ---- replies ---- *)

let gen_reply =
  let open QCheck2.Gen in
  let a = return sample_attr in
  oneof
    [
      return Nfs.RNull;
      map (fun a -> Nfs.RGetattr a) a;
      map (fun a -> Nfs.RSetattr a) a;
      map2 (fun fh a -> Nfs.RLookup (fh, a)) gen_fh a;
      map2 (fun fh a -> Nfs.RCreate (fh, a)) gen_fh a;
      map2 (fun fh a -> Nfs.RMkdir (fh, a)) gen_fh a;
      map2 (fun m a -> Nfs.RAccess (m land 0x3F, a)) int a;
      map2 (fun t a -> Nfs.RReadlink (t, a)) gen_name a;
      map3 (fun d eof a -> Nfs.RRead (Nfs.Data d, eof, a)) (string_size (int_range 0 64)) bool a;
      map3 (fun n eof a -> Nfs.RRead (Nfs.Synthetic (n land 0xFFFFF), eof, a)) int bool a;
      map2 (fun n a -> Nfs.RWrite (n land 0xFFFFF, Nfs.Unstable, a)) int a;
      return Nfs.RRemove;
      return Nfs.RRmdir;
      return Nfs.RRename;
      map (fun a -> Nfs.RLink a) a;
      map (fun a -> Nfs.RCommit a) a;
      map2
        (fun names cookie ->
          let entries =
            List.mapi
              (fun i n ->
                { Nfs.entry_id = Int64.of_int i; entry_name = n; entry_cookie = Int64.of_int (i + 1) })
              names
          in
          Nfs.RReaddir (entries, Int64.of_int (abs cookie), true))
        (small_list gen_name) int;
    ]

(* The post-op attributes a reply carries, if any. *)
let reply_attr : Nfs.reply -> Nfs.fattr option = function
  | RGetattr a
  | RSetattr a
  | RLookup (_, a)
  | RAccess (_, a)
  | RReadlink (_, a)
  | RRead (_, _, a)
  | RWrite (_, _, a)
  | RCreate (_, a)
  | RMkdir (_, a)
  | RSymlink (_, a)
  | RLink a
  | RCommit a ->
      Some a
  | RNull | RRemove | RRmdir | RRename | RReaddir _ | RFsstat _ -> None

let attr_close a b =
  a.Nfs.ftype = b.Nfs.ftype && a.Nfs.mode = b.Nfs.mode && a.Nfs.nlink = b.Nfs.nlink
  && a.Nfs.size = b.Nfs.size && a.Nfs.fileid = b.Nfs.fileid
  && Float.abs (a.Nfs.mtime -. b.Nfs.mtime) < 1e-6

let reply_equal r1 r2 =
  match (r1, r2) with
  | Ok a, Ok b -> (
      match (a, b) with
      | Nfs.RGetattr x, Nfs.RGetattr y | Nfs.RSetattr x, Nfs.RSetattr y -> attr_close x y
      | Nfs.RLookup (f, x), Nfs.RLookup (g, y) | Nfs.RCreate (f, x), Nfs.RCreate (g, y) ->
          f = g && attr_close x y
      | Nfs.RRead (d1, e1, x), Nfs.RRead (d2, e2, y) -> d1 = d2 && e1 = e2 && attr_close x y
      | x, y -> (
          (* structural comparison is fine for attr-free replies *)
          match (reply_attr x, reply_attr y) with
          | None, None -> x = y
          | Some ax, Some ay -> attr_close ax ay
          | _ -> false))
  | Error a, Error b -> a = b
  | _ -> false

let reply_roundtrip =
  qtest ~count:500 "reply encode/decode roundtrip" gen_reply (fun r ->
      let xid', r' = Codec.decode_reply (Codec.encode_reply ~xid:5 (Ok r)) in
      xid' = 5 && reply_equal (Ok r) r')

let error_roundtrip () =
  List.iter
    (fun st ->
      let _, r = Codec.decode_reply (Codec.encode_reply ~xid:1 (Error st)) in
      check_bool (Nfs.status_name st) true (r = Error st))
    [
      Nfs.ERR_PERM; Nfs.ERR_NOENT; Nfs.ERR_IO; Nfs.ERR_EXIST; Nfs.ERR_NOTDIR; Nfs.ERR_ISDIR;
      Nfs.ERR_NOSPC; Nfs.ERR_NOTEMPTY; Nfs.ERR_STALE; Nfs.ERR_BADHANDLE; Nfs.ERR_JUKEBOX;
      Nfs.ERR_MISDIRECTED;
    ]

let attr_offset_fixed =
  qtest "attr block at fixed offset when present" gen_reply (fun r ->
      let buf = Codec.encode_reply ~xid:1 (Ok r) in
      match (reply_attr r, Codec.reply_attr_offset_i buf) with
      | Some a, off when off >= 0 -> attr_close a (Codec.decode_attr_at buf off)
      | None, -1 -> true
      | _ -> false)

let attr_patch_points () =
  let buf = Codec.encode_reply ~xid:1 (Ok (Nfs.RGetattr sample_attr)) in
  let off = Codec.reply_attr_offset_i buf in
  check_bool "attr block present" true (off >= 0);
  (* overwrite the size field in place and re-read *)
  let scr = Bytes.create 8 in
  Codec.put_u64_be scr 999;
  Bytes.blit scr 0 buf (off + Codec.attr_size_field_off) 8;
  Codec.put_time_be scr 777.5;
  Bytes.blit scr 0 buf (off + Codec.attr_mtime_field_off) 8;
  let a = Codec.decode_attr_at buf off in
  check_bool "size patched" true (a.Nfs.size = 999L);
  check_bool "mtime patched" true (Float.abs (a.Nfs.mtime -. 777.5) < 1e-6)

let reply_fh_after_attr () =
  let fh = { Fh.root with Fh.file_id = 55L; ftype = Fh.Reg } in
  let buf = Codec.encode_reply ~xid:1 (Ok (Nfs.RLookup (fh, sample_attr))) in
  let off = Codec.reply_fh_after_attr_off buf in
  check_bool "lookup fh found" true (off >= 0 && Fh.decode_at buf off = Some fh);
  let buf2 = Codec.encode_reply ~xid:1 (Ok (Nfs.RGetattr sample_attr)) in
  check_int "getattr has none" (-1) (Codec.reply_fh_after_attr_off buf2)

let extra_size_synthetic () =
  let fh = Fh.root in
  check_int "write synthetic" 4096
    (Codec.extra_size_of_call (Nfs.Write (fh, 0L, Nfs.Unstable, Nfs.Synthetic 4096)));
  check_int "write real" 0
    (Codec.extra_size_of_call (Nfs.Write (fh, 0L, Nfs.Unstable, Nfs.Data "abcd")));
  check_int "read reply synthetic" 8192
    (Codec.extra_size_of_response (Ok (Nfs.RRead (Nfs.Synthetic 8192, true, sample_attr))))

let apply_sattr_semantics () =
  let a = Nfs.default_attr ~ftype:Fh.Reg ~fileid:9L ~now:10.0 in
  let a' = Nfs.apply_sattr a (Nfs.sattr_size 100L) ~now:20.0 in
  check_bool "size set" true (a'.Nfs.size = 100L);
  check_bool "mtime bumped by size change" true (a'.Nfs.mtime = 20.0);
  check_bool "ctime bumped" true (a'.Nfs.ctime = 20.0);
  let a'' = Nfs.apply_sattr a' { Nfs.sattr_empty with set_mode = Some 0o600 } ~now:30.0 in
  check_int "mode set" 0o600 a''.Nfs.mode;
  check_bool "size unchanged" true (a''.Nfs.size = 100L)

(* ---- routing keys ---- *)

let name_site_range =
  qtest "name_site in range" QCheck2.Gen.(pair gen_fh gen_name) (fun (fh, n) ->
      let s = Routekey.name_site ~nsites:7 fh n in
      s >= 0 && s < 7)

(* The servers' routing keys are MD5 buckets of the handle's wire bytes
   (and, for a name, a NUL and the name): the reference below builds
   those bytes as a fresh string. Names run past 300 bytes so any
   scratch buffer the key is built in has to grow. *)
let server_keys_match_reference =
  qtest "server routing keys hash the wire bytes"
    QCheck2.Gen.(
      tup4 gen_fh gen_fh (string_size ~gen:char (int_range 0 400)) (int_range 1 64))
    (fun (parent, fh, name, nsites) ->
      Routekey.name_site ~nsites parent name
      = Slice_hash.Md5.bucket (Fh.encode parent ^ "\x00" ^ name) nsites
      && Routekey.file_site ~nsites fh = Slice_hash.Md5.bucket (Fh.encode fh) nsites)

let stripe_local_offset () =
  let su = 32768 in
  (* chunk k maps to local chunk k/n *)
  check_int "chunk 0" 0 (Routekey.local_offset_int ~nsites:4 ~stripe_unit:su 0);
  check_int "chunk 4 -> local chunk 1" su
    (Routekey.local_offset_int ~nsites:4 ~stripe_unit:su (4 * su));
  check_int "offset within chunk preserved" (su + 123)
    (Routekey.local_offset_int ~nsites:4 ~stripe_unit:su ((4 * su) + 123))

let stripe_rotation =
  qtest "stripe sites rotate by chunk" QCheck2.Gen.(pair gen_fh (int_range 0 100))
    (fun (fh, chunk) ->
      let su = 32768 in
      let buf = Bytes.of_string (Fh.encode fh) in
      let site off = Routekey.stripe_site_at ~nsites:8 ~stripe_unit:su buf ~off:0 off in
      let s1 = site (chunk * su) in
      site (chunk * su) = (Routekey.file_site ~nsites:8 fh + chunk) mod 8
      && site ((chunk + 1) * su) = (s1 + 1) mod 8)

let mirror_sites_distinct =
  qtest "mirror replicas distinct" gen_fh (fun fh ->
      let r0, r1 = Routekey.mirror_sites ~nsites:8 fh in
      r0 <> r1 && r0 >= 0 && r0 < 8 && r1 >= 0 && r1 < 8)

(* ---- wire goldens ---- *)

(* MD5 of one call and one reply encoding per NFS procedure, plus two
   error replies, recorded from the Buffer-based encoder this codec had
   before it moved onto a reused scratch buffer. Packet sizes drive
   simulated transfer times, so an encoder change that moves one byte
   fails here. *)
let golden_fh =
  { Fh.file_id = 0x0102030405L; gen = 7; ftype = Fh.Reg; mirrored = true; attr_site = 3;
    cap = 0x1122334455667788L }

let golden_dir = { Fh.root with Fh.file_id = 99L; attr_site = 1 }

let golden_sattr =
  { Nfs.set_mode = Some 0o600; set_uid = Some 5; set_gid = Some 6; set_size = Some 4096L;
    set_atime = Some 12.75; set_mtime = Some 13.5 }

let golden_calls =
  [
    ("null", Nfs.Null);
    ("getattr", Nfs.Getattr golden_fh);
    ("setattr", Nfs.Setattr (golden_fh, golden_sattr));
    ("lookup", Nfs.Lookup (golden_dir, "abc"));
    ("access", Nfs.Access (golden_fh, 0x1F));
    ("readlink", Nfs.Readlink golden_fh);
    ("read", Nfs.Read (golden_fh, 65536L, 8192));
    ("write", Nfs.Write (golden_fh, 3L, Nfs.Data_sync, Nfs.Data "hello"));
    ("write synthetic", Nfs.Write (golden_fh, 0L, Nfs.Unstable, Nfs.Synthetic 32768));
    ("create", Nfs.Create (golden_dir, "newfile"));
    ("mkdir", Nfs.Mkdir (golden_dir, "d"));
    ("symlink", Nfs.Symlink (golden_dir, "ln", "../target"));
    ("remove", Nfs.Remove (golden_dir, "gone"));
    ("rmdir", Nfs.Rmdir (golden_dir, "dd"));
    ("rename", Nfs.Rename (golden_dir, "a", golden_fh, "bcde"));
    ("link", Nfs.Link (golden_fh, golden_dir, "hard"));
    ("readdir", Nfs.Readdir (golden_dir, 5L, 4096));
    ("fsstat", Nfs.Fsstat golden_dir);
    ("commit", Nfs.Commit (golden_fh, 0L, 0));
  ]

let golden_replies : (string * Nfs.response) list =
  [
    ("null", Ok Nfs.RNull);
    ("getattr", Ok (Nfs.RGetattr sample_attr));
    ("setattr", Ok (Nfs.RSetattr sample_attr));
    ("lookup", Ok (Nfs.RLookup (golden_fh, sample_attr)));
    ("access", Ok (Nfs.RAccess (0x3F, sample_attr)));
    ("readlink", Ok (Nfs.RReadlink ("../t", sample_attr)));
    ("read", Ok (Nfs.RRead (Nfs.Data "xyz", true, sample_attr)));
    ("read synthetic", Ok (Nfs.RRead (Nfs.Synthetic 8192, false, sample_attr)));
    ("write", Ok (Nfs.RWrite (5, Nfs.File_sync, sample_attr)));
    ("create", Ok (Nfs.RCreate (golden_fh, sample_attr)));
    ("mkdir", Ok (Nfs.RMkdir (golden_dir, sample_attr)));
    ("symlink", Ok (Nfs.RSymlink (golden_fh, sample_attr)));
    ("remove", Ok Nfs.RRemove);
    ("rmdir", Ok Nfs.RRmdir);
    ("rename", Ok Nfs.RRename);
    ("link", Ok (Nfs.RLink sample_attr));
    ( "readdir",
      Ok
        (Nfs.RReaddir
           ( [
               { Nfs.entry_id = 1L; entry_name = "a"; entry_cookie = 1L };
               { Nfs.entry_id = 2L; entry_name = "bcdef"; entry_cookie = 2L };
             ],
             2L,
             true )) );
    ( "fsstat",
      Ok
        (Nfs.RFsstat
           { Nfs.total_bytes = 1_000_000L; free_bytes = 250_000L; total_files = 1000L;
             free_files = 10L }) );
    ("commit", Ok (Nfs.RCommit sample_attr));
    ("error noent", Error Nfs.ERR_NOENT);
    ("error misdirected", Error Nfs.ERR_MISDIRECTED);
  ]

let golden_md5 =
  [
    ("call null", "d7fd109edabe99c2b2bbadb25f0307f1");
    ("call getattr", "f5b64a25f2cbc5fc3c47357162476be1");
    ("call setattr", "e2af7be281b2c69562019e799e2b6318");
    ("call lookup", "13d47fe72d3c3c7a42f22157ff3e70e3");
    ("call access", "9d618d5f563aa75b8934f72863389485");
    ("call readlink", "f4f18c83795aa5c89656b2d74cad711c");
    ("call read", "a5a8fde5eda29d1f3031649002d50363");
    ("call write", "8f395cfb9d9931205a9517c7ab387634");
    ("call write synthetic", "16db4029efc7b4334b44f389f54f63b4");
    ("call create", "7a013bf2ec5c81bbc8fdc6f9d9531353");
    ("call mkdir", "7f8958bb9bc8f768dd7ea03b81d9b2a9");
    ("call symlink", "17abf9cf69f1df2543f24634150a75e9");
    ("call remove", "6a1bb65ecc93aef512e80cfc5485978e");
    ("call rmdir", "57bffb83ceb066b72e8cf74d9dbb9f1d");
    ("call rename", "44941048b2ff739e286594901aaa3b7b");
    ("call link", "e9bf03f69632723330d6d57312af42b7");
    ("call readdir", "384afc33e86886f1eeda0c5f42f448b6");
    ("call fsstat", "5b3128771af6d83d40f04299d100c08d");
    ("call commit", "70d5ac377f96811d015c3369872e911d");
    ("reply null", "e76525050a29ab2316ce5fbabadfd058");
    ("reply getattr", "ec4192dc1675589fbdd450bd8831795a");
    ("reply setattr", "01ce638e4043fb9c502143ad3994e661");
    ("reply lookup", "b68597b1933cf47c2d52834005e190ed");
    ("reply access", "ea9624c79c0d2749e0386b4ba237ed8c");
    ("reply readlink", "915955e06ed66792504094bc45d55123");
    ("reply read", "3458ade1950597bb05e088984de992b1");
    ("reply read synthetic", "d2a110c72dedffccd4e61778d9ce8d7e");
    ("reply write", "0fd03c62e2aea6faf1df2ccc56c95d5d");
    ("reply create", "d84276be26e98dda30d234a7f83076c8");
    ("reply mkdir", "d0185c2a5a9ff69f449454fdf96cd56a");
    ("reply symlink", "9fd5987d76ee1bcbf5816c9dda9a9a32");
    ("reply remove", "48c3e4ec8b5f8829712a3dd33fe59d9c");
    ("reply rmdir", "2b7e4f0c9e813bf97b3814c55a794544");
    ("reply rename", "5d8d56b5d23e7a24a860e87f89abe9db");
    ("reply link", "3341546f3526cef060066f792c8cda20");
    ("reply readdir", "8e91c9174a5dd4f2257bc5bea224bd53");
    ("reply fsstat", "ab3170cf61e8706aa0af42817a69e3f1");
    ("reply commit", "101e8fed8c8f6985b455385706b6eb99");
    ("reply error noent", "f3d921686484e5dfa007898549f664a8");
    ("reply error misdirected", "92ba0d53c88dbbafaea8543acd526773");
  ]

let wire_goldens () =
  let check name b =
    match List.assoc_opt name golden_md5 with
    | Some want -> check_string name want (Digest.to_hex (Digest.bytes b))
    | None -> Alcotest.failf "no golden digest for %s" name
  in
  List.iter (fun (n, c) -> check ("call " ^ n) (Codec.encode_call ~xid:0x89ABCDEF c)) golden_calls;
  List.iter
    (fun (n, r) -> check ("reply " ^ n) (Codec.encode_reply ~xid:0x01234567 r))
    golden_replies

let suite =
  [
    ("wire goldens", `Quick, wire_goldens);
    fh_roundtrip;
    ("fh wire length", `Quick, fh_wire_length);
    ("fh bad magic", `Quick, fh_bad_magic);
    ("fh root", `Quick, fh_root);
    call_roundtrip;
    peek_matches_decode;
    peek_offset_field;
    ("peek rejects garbage", `Quick, peek_rejects_garbage);
    reply_roundtrip;
    ("error statuses roundtrip", `Quick, error_roundtrip);
    attr_offset_fixed;
    ("attr patch points", `Quick, attr_patch_points);
    ("reply fh after attr", `Quick, reply_fh_after_attr);
    ("extra size synthetic", `Quick, extra_size_synthetic);
    ("apply_sattr semantics", `Quick, apply_sattr_semantics);
    name_site_range;
    server_keys_match_reference;
    ("stripe local offset", `Quick, stripe_local_offset);
    stripe_rotation;
    mirror_sites_distinct;
  ]

(* ---- robustness: decoders never crash on arbitrary bytes ---- *)

(* Fuzz containment: the full decoders raise only [Malformed]; the
   cursor peek never raises, and whenever both it and the full decode
   accept a buffer they agree on every recorded field. *)
let peek_contained c buf =
  match Codec.peek_call_into c buf with
  | false -> true
  | true -> (
      match Codec.decode_call buf with
      | exception Codec.Malformed _ -> true
      | _ -> cursor_agrees_with_decode buf c)

module Peer = Slice_dir.Peer
module Ctrl = Slice_storage.Ctrl

let contained f = match f () with _ -> true | exception Codec.Malformed _ -> true

(* The manager protocols' decoders, which read raw packet and log bytes
   just as the NFS decoders do. *)
let manager_decoders_contained buf =
  contained (fun () -> ignore (Peer.decode_msg buf))
  && contained (fun () -> ignore (Peer.decode_reply buf))
  && contained (fun () -> ignore (Ctrl.decode_msg buf))
  && contained (fun () -> ignore (Ctrl.decode_reply buf))

let decode_garbage_is_contained =
  qtest ~count:500 "decode of fuzz never escapes Malformed"
    QCheck2.Gen.(string_size (int_range 0 200))
    (fun s ->
      let buf = Bytes.of_string s in
      peek_contained (Codec.cursor ()) buf
      && contained (fun () -> ignore (Codec.decode_call buf))
      && contained (fun () -> ignore (Codec.decode_reply buf))
      && contained (fun () -> ignore (Codec.reply_attr_offset_i buf))
      && contained (fun () -> ignore (Codec.reply_fh_after_attr_off buf))
      && manager_decoders_contained buf)

let truncated_real_call_is_contained =
  qtest ~count:200 "truncated real calls are contained"
    QCheck2.Gen.(int_range 0 60)
    (fun keep ->
      let full = Codec.encode_call ~xid:5 (Nfs.Lookup (Fh.root, "victim")) in
      let cut = Bytes.sub full 0 (min keep (Bytes.length full)) in
      (match Codec.decode_call cut with
      | _ -> true
      | exception Codec.Malformed _ -> true)
      && peek_contained (Codec.cursor ()) cut)

(* ---- manager protocols: Peer and Ctrl ---- *)

(* Times are whole seconds plus a multiple of 1/512 s: the (seconds,
   nanoseconds) wire form holds those exactly, so re-encoding a decoded
   message reproduces its bytes. *)
let gen_time =
  QCheck2.Gen.(
    map2
      (fun s k -> float_of_int s +. (float_of_int k /. 512.))
      (int_range 0 1_000_000) (int_range 0 511))
let gen_u32 = QCheck2.Gen.int_range 0 0xFFFF_FFFF
let gen_i64 = QCheck2.Gen.(map Int64.of_int int)

let gen_attr =
  QCheck2.Gen.(
    map3
      (fun (ftype, mode, nlink) (size, fileid) (atime, mtime, ctime) ->
        { sample_attr with ftype; mode; nlink; size; used = size; fileid; atime; mtime; ctime })
      (triple gen_ftype gen_u32 gen_u32)
      (pair gen_i64 gen_i64)
      (triple gen_time gen_time gen_time))

let all_statuses =
  Nfs.
    [
      OK; ERR_PERM; ERR_NOENT; ERR_IO; ERR_EXIST; ERR_NOTDIR; ERR_ISDIR; ERR_NOSPC;
      ERR_NOTEMPTY; ERR_STALE; ERR_BADHANDLE; ERR_JUKEBOX; ERR_MISDIRECTED;
    ]

let gen_peer_msg =
  let open QCheck2.Gen in
  let delta = int_range (-1000) 1000 in
  oneof
    [
      map (fun fh -> Peer.Getattr fh) gen_fh;
      map3 (fun op_id fh delta -> Peer.Nlink { op_id; fh; delta }) gen_i64 gen_fh delta;
      map2
        (fun (op_id, dir) (delta, mtime) -> Peer.Entry_count { op_id; dir; delta; mtime })
        (pair gen_i64 gen_fh) (pair delta gen_time);
      map2
        (fun (op_id, dir) (name, child) -> Peer.Add_entry { op_id; dir; name; child })
        (pair gen_i64 gen_fh) (pair gen_name gen_fh);
    ]

let gen_peer_reply =
  let open QCheck2.Gen in
  oneof
    [
      return Peer.Ack;
      map (fun a -> Peer.Rattr a) gen_attr;
      map (fun st -> Peer.Rerr st) (oneofl all_statuses);
    ]

let gen_sites = QCheck2.Gen.(map Array.of_list (small_list gen_u32))

let gen_ctrl_msg =
  let open QCheck2.Gen in
  oneof
    [
      map3
        (fun op_id (kind, fh) participants -> Ctrl.Intent { op_id; kind; fh; participants })
        gen_i64
        (pair (oneofl [ Ctrl.K_remove; Ctrl.K_commit; Ctrl.K_mirror_write ]) gen_fh)
        gen_sites;
      map (fun op_id -> Ctrl.Complete { op_id }) gen_i64;
      map2 (fun fh sites -> Ctrl.Remove_file { fh; sites }) gen_fh gen_sites;
      map2 (fun fh sites -> Ctrl.Commit_file { fh; sites }) gen_fh gen_sites;
      map3 (fun fh first_block count -> Ctrl.Get_map { fh; first_block; count }) gen_fh gen_u32 gen_u32;
    ]

let gen_ctrl_reply =
  let open QCheck2.Gen in
  oneof
    [
      return Ctrl.Ack;
      return Ctrl.Nack;
      map2
        (fun first_block sites -> Ctrl.Map { first_block; sites })
        gen_u32 gen_sites;
    ]

(* encode -> decode -> encode reproduces the bytes, xid included. *)
let reencodes name gen encode decode =
  qtest ~count:300 name
    QCheck2.Gen.(pair gen_u32 gen)
    (fun (xid, m) ->
      let b = encode ~xid m in
      let m' = decode b in
      let xid' = Codec.xid_of b in
      xid' = xid && Bytes.equal (encode ~xid:xid' m') b)

(* A real message cut short or with one byte overwritten still decodes
   or raises [Malformed], never anything else. *)
let damaged_contained name gen encode =
  qtest ~count:300 name
    QCheck2.Gen.(triple gen small_nat (pair small_nat (int_range 0 255)))
    (fun (m, keep, (at, byte)) ->
      let b = encode ~xid:9 m in
      let cut = Bytes.sub b 0 (min keep (Bytes.length b)) in
      let hit = Bytes.copy b in
      Bytes.set hit (at mod Bytes.length hit) (Char.chr byte);
      manager_decoders_contained cut && manager_decoders_contained hit)

(* ---- reference call decoder ----

   The per-procedure call decoder, written directly against the XDR
   decoder and Codec's field codecs: the layout of every call read
   field by field. [Codec.decode_call] must agree with it on every
   buffer, accepted or refused. *)

module Dec = Slice_xdr.Xdr.Dec

let ref_opt d dec = if Dec.bool d then Some (dec d) else None

let ref_sattr d : Nfs.sattr =
  let set_mode = ref_opt d Dec.u32 in
  let set_uid = ref_opt d Dec.u32 in
  let set_gid = ref_opt d Dec.u32 in
  let set_size = ref_opt d Dec.u64 in
  let set_atime = ref_opt d Codec.dec_time in
  let set_mtime = ref_opt d Codec.dec_time in
  { set_mode; set_uid; set_gid; set_size; set_atime; set_mtime }

let ref_wdata d = if Dec.bool d then Nfs.Synthetic (Dec.u32 d) else Nfs.Data (Dec.opaque d)

let ref_stable d =
  match Dec.u32 d with
  | 0 -> Nfs.Unstable
  | 1 -> Nfs.Data_sync
  | 2 -> Nfs.File_sync
  | _ -> raise (Codec.Malformed "bad stable_how")

let reference_decode_call buf =
  let d = Dec.of_bytes buf in
  let fh () = Codec.dec_fh d buf in
  try
    let xid = Dec.u32 d in
    if Dec.u32 d <> 0 then raise (Codec.Malformed "not a call");
    if Dec.u32 d <> 2 then raise (Codec.Malformed "bad RPC version");
    let prog = Dec.u32 d in
    let vers = Dec.u32 d in
    if prog <> 100003 || vers <> 3 then raise (Codec.Malformed "not NFSv3");
    let proc = Dec.u32 d in
    let _cred_flavor = Dec.u32 d in
    Dec.opaque_span d;
    let _verf_flavor = Dec.u32 d in
    Dec.opaque_span d;
    let call : Nfs.call =
      match proc with
      | 0 -> Null
      | 1 -> Getattr (fh ())
      | 2 ->
          let f = fh () in
          Setattr (f, ref_sattr d)
      | 3 ->
          let f = fh () in
          Lookup (f, Dec.str d)
      | 4 ->
          let f = fh () in
          Access (f, Dec.u32 d)
      | 5 -> Readlink (fh ())
      | 6 ->
          let f = fh () in
          let off = Dec.u64 d in
          Read (f, off, Dec.u32 d)
      | 7 ->
          let f = fh () in
          let off = Dec.u64 d in
          let _count = Dec.u32 d in
          let stable = ref_stable d in
          Write (f, off, stable, ref_wdata d)
      | 8 ->
          let f = fh () in
          Create (f, Dec.str d)
      | 9 ->
          let f = fh () in
          Mkdir (f, Dec.str d)
      | 10 ->
          let f = fh () in
          let n = Dec.str d in
          Symlink (f, n, Dec.str d)
      | 12 ->
          let f = fh () in
          Remove (f, Dec.str d)
      | 13 ->
          let f = fh () in
          Rmdir (f, Dec.str d)
      | 14 ->
          let f1 = fh () in
          let n1 = Dec.str d in
          let f2 = fh () in
          Rename (f1, n1, f2, Dec.str d)
      | 15 ->
          let file = fh () in
          let dir = fh () in
          Link (file, dir, Dec.str d)
      | 16 ->
          let f = fh () in
          let cookie = Dec.u64 d in
          Readdir (f, cookie, Dec.u32 d)
      | 18 -> Fsstat (fh ())
      | 21 ->
          let f = fh () in
          let off = Dec.u64 d in
          Commit (f, off, Dec.u32 d)
      | n -> raise (Codec.Malformed (Printf.sprintf "unsupported proc %d" n))
    in
    (xid, call)
  with Slice_xdr.Xdr.Truncated -> raise (Codec.Malformed "truncated call")

(* Every call shape, with every sattr field and stable_how reachable. *)
let gen_wire_call =
  let open QCheck2.Gen in
  let gen_sattr =
    map3
      (fun (set_mode, set_uid) (set_gid, set_size) (set_atime, set_mtime) ->
        { Nfs.set_mode; set_uid; set_gid; set_size; set_atime; set_mtime })
      (pair (opt gen_u32) (opt gen_u32))
      (pair (opt gen_u32) (opt gen_i64))
      (pair (opt gen_time) (opt gen_time))
  in
  let gen_stable = oneofl [ Nfs.Unstable; Nfs.Data_sync; Nfs.File_sync ] in
  oneof
    [
      gen_call;
      map2 (fun f s -> Nfs.Setattr (f, s)) gen_fh gen_sattr;
      map3
        (fun f (off, stable) data -> Nfs.Write (f, off, stable, data))
        gen_fh (pair gen_i64 gen_stable)
        (oneof
           [
             map (fun s -> Nfs.Data s) (string_size (int_range 0 13));
             map (fun n -> Nfs.Synthetic n) gen_u32;
           ]);
      map3 (fun f off n -> Nfs.Read (f, off, n)) gen_fh gen_i64 gen_u32;
      map3 (fun f c n -> Nfs.Readdir (f, c, n)) gen_fh gen_i64 gen_u32;
      map3 (fun f off n -> Nfs.Commit (f, off, n)) gen_fh gen_i64 gen_u32;
      map2 (fun f m -> Nfs.Access (f, m)) gen_fh gen_u32;
    ]

let decode_outcome decode buf = match decode buf with v -> Some v | exception Codec.Malformed _ -> None

let decoders_agree buf =
  decode_outcome Codec.decode_call buf = decode_outcome reference_decode_call buf

(* The encoding itself, every proper prefix of it, and single-byte
   overwrites of it. *)
let decode_call_matches_reference =
  qtest ~count:300 "decode_call agrees with the reference decoder"
    QCheck2.Gen.(
      triple gen_u32 gen_wire_call (small_list (pair small_nat (int_range 0 255))))
    (fun (xid, call, hits) ->
      let b = Codec.encode_call ~xid call in
      let n = Bytes.length b in
      decode_outcome Codec.decode_call b = Some (xid, call)
      && decoders_agree b
      && List.for_all (fun keep -> decoders_agree (Bytes.sub b 0 keep)) (List.init n Fun.id)
      && List.for_all
           (fun (at, byte) ->
             let hit = Bytes.copy b in
             Bytes.set hit (at mod n) (Char.chr byte);
             decoders_agree hit)
           hits)

let suite =
  suite
  @ [
      decode_call_matches_reference;
      decode_garbage_is_contained;
      truncated_real_call_is_contained;
      reencodes "peer message re-encodes to the same bytes" gen_peer_msg Peer.encode_msg
        Peer.decode_msg;
      reencodes "peer reply re-encodes to the same bytes" gen_peer_reply Peer.encode_reply
        Peer.decode_reply;
      reencodes "ctrl message re-encodes to the same bytes" gen_ctrl_msg Ctrl.encode_msg
        Ctrl.decode_msg;
      reencodes "ctrl reply re-encodes to the same bytes" gen_ctrl_reply Ctrl.encode_reply
        Ctrl.decode_reply;
      damaged_contained "damaged peer messages are contained" gen_peer_msg Peer.encode_msg;
      damaged_contained "damaged peer replies are contained" gen_peer_reply Peer.encode_reply;
      damaged_contained "damaged ctrl messages are contained" gen_ctrl_msg Ctrl.encode_msg;
      damaged_contained "damaged ctrl replies are contained" gen_ctrl_reply Ctrl.encode_reply;
    ]

(* ---- replies against the reference decoder ----

   [Codec.decode_reply] materializes a whole response; it is the
   reference every in-place reply reader is held to. The generators
   reach every reply shape: each error status, every procedure's OK
   reply with random attributes (exact on the wire: [gen_time]), real
   and synthetic read data, readlink targets and readdir names of every
   padding class, and readdir pages of 0 to 40 entries. *)

let error_statuses = List.filter (fun st -> st <> Nfs.OK) all_statuses
let gen_target = QCheck2.Gen.(string_size ~gen:printable (int_range 0 13))

let gen_page =
  QCheck2.Gen.(
    map3
      (fun entries cookie eof -> Nfs.RReaddir (entries, cookie, eof))
      (list_size (int_range 0 40)
         (map3
            (fun entry_id entry_name entry_cookie -> { Nfs.entry_id; entry_name; entry_cookie })
            gen_i64 gen_target gen_i64))
      gen_i64 bool)

let gen_ok_reply =
  let open QCheck2.Gen in
  let a = gen_attr in
  oneof
    [
      oneofl [ Nfs.RNull; Nfs.RRemove; Nfs.RRmdir; Nfs.RRename ];
      map (fun a -> Nfs.RGetattr a) a;
      map (fun a -> Nfs.RSetattr a) a;
      map (fun a -> Nfs.RLink a) a;
      map (fun a -> Nfs.RCommit a) a;
      map2 (fun fh a -> Nfs.RLookup (fh, a)) gen_fh a;
      map2 (fun fh a -> Nfs.RCreate (fh, a)) gen_fh a;
      map2 (fun fh a -> Nfs.RMkdir (fh, a)) gen_fh a;
      map2 (fun fh a -> Nfs.RSymlink (fh, a)) gen_fh a;
      map2 (fun m a -> Nfs.RAccess (m, a)) gen_u32 a;
      map2 (fun t a -> Nfs.RReadlink (t, a)) gen_target a;
      map3 (fun d eof a -> Nfs.RRead (Nfs.Data d, eof, a)) gen_target bool a;
      map3 (fun n eof a -> Nfs.RRead (Nfs.Synthetic n, eof, a)) gen_u32 bool a;
      map3
        (fun n stable a -> Nfs.RWrite (n, stable, a))
        gen_u32 (oneofl [ Nfs.Unstable; Nfs.Data_sync; Nfs.File_sync ]) a;
      gen_page;
      map
        (fun (total_bytes, free_bytes, total_files, free_files) ->
          Nfs.RFsstat { total_bytes; free_bytes; total_files; free_files })
        (quad gen_i64 gen_i64 gen_i64 gen_i64);
    ]

let gen_wire_reply : Nfs.response QCheck2.Gen.t =
  QCheck2.Gen.(
    frequency
      [ (1, map (fun st -> Error st) (oneofl error_statuses)); (6, map (fun r -> Ok r) gen_ok_reply) ])

(* A reply's encoding, with every proper prefix and the given one-byte
   overwrites: the buffers each property below reads. *)
let damaged_replies (xid, resp, hits) =
  let b = Codec.encode_reply ~xid resp in
  let n = Bytes.length b in
  let prefixes = List.init n (fun keep -> Bytes.sub b 0 keep) in
  let overwrites =
    List.map
      (fun (at, byte) ->
        let hit = Bytes.copy b in
        Bytes.set hit (at mod n) (Char.chr byte);
        hit)
      hits
  in
  (b, prefixes, overwrites)

let gen_damaged_reply =
  QCheck2.Gen.(triple gen_u32 gen_wire_reply (small_list (pair (int_range 0 2000) (int_range 0 255))))

(* The reference reads every shape back exactly; every proper prefix is
   refused; a one-byte overwrite decodes or raises [Malformed], never
   anything else. *)
let decode_reply_reference =
  qtest ~count:300 "decode_reply reads every reply shape; damage is contained" gen_damaged_reply
    (fun ((xid, resp, _) as case) ->
      let b, prefixes, overwrites = damaged_replies case in
      decode_outcome Codec.decode_reply b = Some (xid, resp)
      && List.for_all (fun cut -> decode_outcome Codec.decode_reply cut = None) prefixes
      && List.for_all (fun hit -> contained (fun () -> ignore (Codec.decode_reply hit))) overwrites)

(* The in-place readers, held to the reference: a response rebuilt from
   the readers alone. The fields no reader reads (an access mask, a
   write's count and stable_how, fsstat's figures) are blanked on both
   sides; the lengths a reader reports without building are checked
   against what the reference built. *)
let reply_tags = [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 12; 13; 14; 15; 16; 18; 21 ]
let no_fs = { Nfs.total_bytes = 0L; free_bytes = 0L; total_files = 0L; free_files = 0L }

let blank_unread (xid, resp) =
  let r =
    match resp with
    | Ok (Nfs.RAccess (_, a)) -> Ok (Nfs.RAccess (0, a))
    | Ok (Nfs.RWrite (_, _, a)) -> Ok (Nfs.RWrite (0, Nfs.Unstable, a))
    | Ok (Nfs.RFsstat _) -> Ok (Nfs.RFsstat no_fs)
    | r -> r
  in
  (xid, r)

let read_in_place buf : int * Nfs.response =
  let xid = Codec.xid_of buf in
  match Codec.reply_status buf with
  | Nfs.OK ->
      let tag = List.find (fun tag -> Codec.reply_body buf ~tag >= 0) reply_tags in
      let body = Codec.reply_body buf ~tag in
      let attr () = Codec.reply_attr buf in
      let fh () = Codec.handle_at buf body in
      let r : Nfs.reply =
        match tag with
        | 0 -> RNull
        | 1 -> RGetattr (attr ())
        | 2 -> RSetattr (attr ())
        | 3 -> RLookup (fh (), attr ())
        | 4 -> RAccess (0, attr ())
        | 5 -> RReadlink (Codec.string_at buf body, attr ())
        | 6 ->
            let d = Codec.read_data buf body in
            if Codec.read_length buf body <> Nfs.wdata_length d then failwith "read_length";
            RRead (d, Codec.read_eof buf body, attr ())
        | 7 -> RWrite (0, Nfs.Unstable, attr ())
        | 8 -> RCreate (fh (), attr ())
        | 9 -> RMkdir (fh (), attr ())
        | 10 -> RSymlink (fh (), attr ())
        | 12 -> RRemove
        | 13 -> RRmdir
        | 14 -> RRename
        | 15 -> RLink (attr ())
        | 16 ->
            let rev, cookie, eof = Codec.readdir_page buf body [] in
            if Codec.readdir_count buf body <> List.length rev then failwith "readdir_count";
            RReaddir (List.rev rev, cookie, eof)
        | 18 -> RFsstat no_fs
        | _ -> RCommit (attr ())
      in
      (xid, Ok r)
  | st -> (xid, Error st)

(* What [Client.call] checks: the status, then the whole body. *)
let accepted_in_place buf =
  match Codec.reply_status buf with
  | Nfs.OK -> ignore (List.exists (fun tag -> Codec.reply_body buf ~tag >= 0) reply_tags)
  | _ -> ()

let readers_agree buf =
  decode_outcome (fun b -> blank_unread (Codec.decode_reply b)) buf
  = decode_outcome read_in_place buf
  && decode_outcome (fun b -> ignore (Codec.decode_reply b)) buf
     = decode_outcome accepted_in_place buf

let readers_match_reference =
  qtest ~count:300 "reply readers agree with the reference decoder" gen_damaged_reply
    (fun ((xid, resp, _) as case) ->
      let b, prefixes, overwrites = damaged_replies case in
      decode_outcome read_in_place b = Some (blank_unread (xid, resp))
      && List.for_all readers_agree prefixes
      && List.for_all readers_agree overwrites)

(* The µproxy's readdir splice as it was written against the decoded
   page: tag each cookie with the site, and hand over to the next site
   at the last page of this one. *)
let reference_splice ~site ~more buf =
  match Codec.decode_reply buf with
  | xid, Ok (Nfs.RReaddir (entries, cookie, eof)) ->
      let site = Int64.of_int site in
      let tag v = Int64.logor (Int64.shift_left site 32) (Int64.logand v 0xFFFFFFFFL) in
      let entries =
        List.map (fun (e : Nfs.entry) -> { e with Nfs.entry_cookie = tag e.Nfs.entry_cookie }) entries
      in
      let cookie, eof =
        if eof && more then (Int64.shift_left (Int64.add site 1L) 32, false) else (tag cookie, eof)
      in
      Codec.encode_reply ~xid (Ok (Nfs.RReaddir (entries, cookie, eof)))
  | _ -> Alcotest.fail "not a readdir page"

module Packet = Slice_net.Packet
module Cksum = Slice_net.Cksum

let splice_matches_reference =
  qtest ~count:300 "readdir splice in place matches the decode-and-re-encode splice"
    QCheck2.Gen.(quad gen_u32 gen_page (int_range 0 7) bool)
    (fun (xid, page, site, more) ->
      let buf = Codec.encode_reply ~xid (Ok page) in
      let pkt = Packet.make ~src:3 ~dst:0x0A000001 ~sport:2049 ~dport:1000 (Bytes.copy buf) in
      let payload = pkt.Packet.payload in
      let body = Codec.reply_body payload ~tag:16 in
      Cksum.adjust_sum pkt (Codec.splice_readdir payload ~body ~site ~more);
      Bytes.equal payload (reference_splice ~site ~more buf) && Cksum.verify pkt)

(* The allocation pins: the splice of a 32-entry page builds nothing,
   and reading a read reply builds its data, its eof pair and the [Ok]. *)
let page_of n =
  let entries =
    List.init n (fun i ->
        { Nfs.entry_id = Int64.of_int (100 + i); entry_name = Printf.sprintf "file%03d" i;
          entry_cookie = Int64.of_int (i + 1) })
  in
  Nfs.RReaddir (entries, Int64.of_int n, true)

let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let splice_allocates_nothing () =
  let buf = Codec.encode_reply ~xid:7 (Ok (page_of 32)) in
  let body = Codec.reply_body buf ~tag:16 in
  let sum = ref 0 in
  let splice () = sum := !sum + Codec.splice_readdir buf ~body ~site:1 ~more:true in
  splice ();
  check_float "32-entry splice: minor words" 0.0 (minor_words splice);
  check_float "reply_status and reply_body: minor words" 0.0
    (minor_words (fun () ->
         match Codec.reply_status buf with
         | Nfs.OK -> sum := !sum + Codec.reply_body buf ~tag:16
         | _ -> ()))

let read_reply_words () =
  let buf =
    Codec.encode_reply ~xid:7 (Ok (Nfs.RRead (Nfs.Synthetic 32768, false, sample_attr)))
  in
  let read () =
    match Codec.reply_status buf with
    | Nfs.OK ->
        let body = Codec.reply_body buf ~tag:6 in
        Ok (Codec.read_data buf body, Codec.read_eof buf body)
    | st -> Error st
  in
  ignore (Sys.opaque_identity (read ()));
  let got = ref (Error Nfs.ERR_IO) in
  let used = minor_words (fun () -> got := read ()) in
  check_bool "read reply read back" true (!got = Ok (Nfs.Synthetic 32768, false));
  check_bool (Printf.sprintf "read reply read: %.0f minor words, at most 7" used) true (used <= 7.0)

(* A warmed encode of a getattr reply allocates its payload and nothing
   else: the block of a [Bytes.t] of its length (a header word, and the
   bytes with their padding byte rounded up to words). *)
let getattr_reply_encode_words () =
  let resp = Ok (Nfs.RGetattr sample_attr) in
  let encode () = ignore (Sys.opaque_identity (Codec.encode_reply ~xid:7 resp)) in
  encode ();
  let len = Bytes.length (Codec.encode_reply ~xid:7 resp) in
  let block = float_of_int (1 + ((len + Sys.word_size / 8) / (Sys.word_size / 8))) in
  let used = minor_words encode in
  check_bool
    (Printf.sprintf "getattr reply encode: %.0f minor words, its %d-byte payload %.0f" used len block)
    true (used <= block)

let suite =
  suite
  @ [
      decode_reply_reference;
      readers_match_reference;
      splice_matches_reference;
      ("readdir splice allocates nothing", `Quick, splice_allocates_nothing);
      ("read reply read allocates at most 7 words", `Quick, read_reply_words);
      ("getattr reply encode allocates only its payload", `Quick, getattr_reply_encode_words);
    ]

(* ---- sorted directory listings ---- *)

module Dirlist = Slice_nfs.Dirlist

(* The fold-and-sort readdir body Dirlist replaced, verbatim but for its
   input: the directory's table. *)
let reference_page tbl ~start ~count =
  let names = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
  let total = List.length names in
  let rec take i acc = function
    | [] -> List.rev acc
    | _ when i >= start + count -> List.rev acc
    | (name, (child : Fh.t)) :: rest ->
        if i < start then take (i + 1) acc rest
        else
          take (i + 1)
            ({ Nfs.entry_id = child.Fh.file_id;
               entry_name = name;
               entry_cookie = Int64.of_int (i + 1) }
            :: acc)
            rest
  in
  let entries = take 0 [] names in
  let next = min total (start + count) in
  Nfs.RReaddir (entries, Int64.of_int next, next >= total)

(* [Again] repeats the last page request, so a page cached across an
   add or remove is asked for again. *)
type dir_op = Add of string * int | Remove of string | Page of int * int | Again

let print_dir_op = function
  | Add (n, id) -> Printf.sprintf "add %S %d" n id
  | Remove n -> Printf.sprintf "remove %S" n
  | Page (start, count) -> Printf.sprintf "page start=%d count=%d" start count
  | Again -> "again"

let gen_dir_ops =
  let open QCheck2.Gen in
  (* a small alphabet so names collide, re-add and share prefixes *)
  let name = string_size ~gen:(char_range 'a' 'c') (int_range 0 3) in
  list_size (int_range 0 80)
    (frequency
       [
         (4, map2 (fun n id -> Add (n, id)) name (int_range 1 1000));
         (2, map (fun n -> Remove n) name);
         (3, map2 (fun st c -> Page (st, c)) (int_range (-2) 24) (int_range (-1) 12));
         (2, pure Again);
       ])

let dirlist_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"dirlist pages match the fold-and-sort readdir"
       ~print:(fun ops -> String.concat "; " (List.map print_dir_op ops))
       gen_dir_ops
       (fun ops ->
         (* one directory, fileID 1, in an index of its own *)
         let index = Hashtbl.create 1 in
         let model = Hashtbl.create 8 in
         (* the last page returned, and whether an add or remove followed it *)
         let prev = ref None and changed = ref false in
         let check_page (start, count) =
           let l = Dirlist.listing index 1L in
           let p = Dirlist.page l ~start ~count in
           let rebuilt = match !prev with Some q when !changed -> p != q | _ -> true in
           let again = Dirlist.page l ~start ~count in
           prev := Some p;
           changed := false;
           (* the row lives exactly while the directory is non-empty *)
           Hashtbl.mem index 1L = (Hashtbl.length model > 0)
           && p = reference_page model ~start ~count
           && rebuilt
           && again == p
         in
         let request = ref (0, 0) in
         List.for_all
           (function
             | Add (name, id) ->
                 let fh = { Fh.root with Fh.file_id = Int64.of_int id; ftype = Fh.Reg } in
                 Hashtbl.replace model name fh;
                 Dirlist.add index 1L name fh;
                 changed := true;
                 true
             | Remove name ->
                 Hashtbl.remove model name;
                 Dirlist.remove index 1L name;
                 changed := true;
                 true
             | Page (start, count) ->
                 request := (start, count);
                 check_page !request
             | Again -> check_page !request)
           ops))

let suite = suite @ [ dirlist_matches_reference ]

(* ---- reference encoder ----

   Every message the system sends, written field by field into a private
   [Enc.owned] buffer with the XDR primitives alone: the wire layout of
   NFS calls and replies and of the two manager protocols, set down once
   more without the library's encoders. The encoders the servers, the
   µproxy and the clients use must produce these bytes exactly. *)

module Enc = Slice_xdr.Xdr.Enc

let ref_encode f =
  let e = Enc.owned 64 in
  f e;
  Bytes.sub (Enc.buffer e) 0 (Enc.length e)

let ref_fh e fh = Enc.opaque e (Fh.encode fh)

let ref_time e t =
  let secs = Float.floor t in
  Enc.u32 e (int_of_float secs);
  Enc.u32 e (min 999_999_999 (int_of_float ((t -. secs) *. 1e9)))

let ref_ftype = function Fh.Reg -> 1 | Fh.Dir -> 2 | Fh.Lnk -> 5

let ref_status : Nfs.status -> int = function
  | OK -> 0
  | ERR_PERM -> 1
  | ERR_NOENT -> 2
  | ERR_IO -> 5
  | ERR_EXIST -> 17
  | ERR_NOTDIR -> 20
  | ERR_ISDIR -> 21
  | ERR_NOSPC -> 28
  | ERR_NOTEMPTY -> 66
  | ERR_STALE -> 70
  | ERR_BADHANDLE -> 10001
  | ERR_JUKEBOX -> 10008
  | ERR_MISDIRECTED -> 20001

let ref_stable = function Nfs.Unstable -> 0 | Nfs.Data_sync -> 1 | Nfs.File_sync -> 2

let ref_some e enc = function
  | None -> Enc.u32 e 0
  | Some v ->
      Enc.u32 e 1;
      enc v

let ref_wdata e = function
  | Nfs.Data s ->
      Enc.u32 e 0;
      Enc.opaque e s
  | Nfs.Synthetic n ->
      Enc.u32 e 1;
      Enc.u32 e n

(* AUTH_UNIX: stamp, machine name, uid, gid and three auxiliary gids. *)
let ref_cred =
  ref_encode (fun e ->
      List.iter (Enc.u32 e) [ 0 ];
      Enc.str e "slice-client";
      List.iter (Enc.u32 e) [ 0; 0; 3; 0; 10; 100 ])
  |> Bytes.to_string

let ref_call ~xid (c : Nfs.call) =
  let proc, args =
    match c with
    | Null -> (0, fun _ -> ())
    | Getattr fh -> (1, fun e -> ref_fh e fh)
    | Setattr (fh, s) ->
        ( 2,
          fun e ->
            ref_fh e fh;
            ref_some e (Enc.u32 e) s.set_mode;
            ref_some e (Enc.u32 e) s.set_uid;
            ref_some e (Enc.u32 e) s.set_gid;
            ref_some e (Enc.u64 e) s.set_size;
            ref_some e (ref_time e) s.set_atime;
            ref_some e (ref_time e) s.set_mtime )
    | Lookup (fh, n) -> (3, fun e -> ref_fh e fh; Enc.str e n)
    | Access (fh, m) -> (4, fun e -> ref_fh e fh; Enc.u32 e m)
    | Readlink fh -> (5, fun e -> ref_fh e fh)
    | Read (fh, off, n) -> (6, fun e -> ref_fh e fh; Enc.u64 e off; Enc.u32 e n)
    | Write (fh, off, st, d) ->
        ( 7,
          fun e ->
            ref_fh e fh;
            Enc.u64 e off;
            Enc.u32 e (Nfs.wdata_length d);
            Enc.u32 e (ref_stable st);
            ref_wdata e d )
    | Create (fh, n) -> (8, fun e -> ref_fh e fh; Enc.str e n)
    | Mkdir (fh, n) -> (9, fun e -> ref_fh e fh; Enc.str e n)
    | Symlink (fh, n, t) -> (10, fun e -> ref_fh e fh; Enc.str e n; Enc.str e t)
    | Remove (fh, n) -> (12, fun e -> ref_fh e fh; Enc.str e n)
    | Rmdir (fh, n) -> (13, fun e -> ref_fh e fh; Enc.str e n)
    | Rename (f1, n1, f2, n2) -> (14, fun e -> ref_fh e f1; Enc.str e n1; ref_fh e f2; Enc.str e n2)
    | Link (f, d, n) -> (15, fun e -> ref_fh e f; ref_fh e d; Enc.str e n)
    | Readdir (fh, c, n) -> (16, fun e -> ref_fh e fh; Enc.u64 e c; Enc.u32 e n)
    | Fsstat fh -> (18, fun e -> ref_fh e fh)
    | Commit (fh, off, n) -> (21, fun e -> ref_fh e fh; Enc.u64 e off; Enc.u32 e n)
  in
  ref_encode (fun e ->
      List.iter (Enc.u32 e) [ xid; 0; 2; 100003; 3; proc; 1 ];
      Enc.opaque e ref_cred;
      List.iter (Enc.u32 e) [ 0; 0 ];
      args e)

let ref_fattr e (a : Nfs.fattr) =
  List.iter (Enc.u32 e) [ ref_ftype a.ftype; a.mode; a.nlink; a.uid; a.gid ];
  List.iter (Enc.u64 e) [ a.size; a.used; 0L; 0L; a.fileid ];
  List.iter (ref_time e) [ a.atime; a.mtime; a.ctime ]

let ref_reply ~xid (r : Nfs.response) =
  ref_encode (fun e ->
      List.iter (Enc.u32 e) [ xid; 1; 0; 0; 0; 0 ];
      match r with
      | Error st -> Enc.u32 e (ref_status st)
      | Ok reply ->
          Enc.u32 e 0;
          let attr, tag, body =
            match reply with
            | RNull -> (None, 0, ignore)
            | RGetattr a -> (Some a, 1, ignore)
            | RSetattr a -> (Some a, 2, ignore)
            | RLookup (fh, a) -> (Some a, 3, fun e -> ref_fh e fh)
            | RAccess (m, a) -> (Some a, 4, fun e -> Enc.u32 e m)
            | RReadlink (t, a) -> (Some a, 5, fun e -> Enc.str e t)
            | RRead (d, eof, a) ->
                ( Some a,
                  6,
                  fun e ->
                    Enc.u32 e (Nfs.wdata_length d);
                    Enc.u32 e (if eof then 1 else 0);
                    ref_wdata e d )
            | RWrite (n, st, a) -> (Some a, 7, fun e -> Enc.u32 e n; Enc.u32 e (ref_stable st))
            | RCreate (fh, a) -> (Some a, 8, fun e -> ref_fh e fh)
            | RMkdir (fh, a) -> (Some a, 9, fun e -> ref_fh e fh)
            | RSymlink (fh, a) -> (Some a, 10, fun e -> ref_fh e fh)
            | RRemove -> (None, 12, ignore)
            | RRmdir -> (None, 13, ignore)
            | RRename -> (None, 14, ignore)
            | RLink a -> (Some a, 15, ignore)
            | RReaddir (entries, cookie, eof) ->
                ( None,
                  16,
                  fun e ->
                    Enc.u32 e (List.length entries);
                    List.iter
                      (fun (en : Nfs.entry) ->
                        Enc.u64 e en.entry_id;
                        Enc.str e en.entry_name;
                        Enc.u64 e en.entry_cookie)
                      entries;
                    Enc.u64 e cookie;
                    Enc.u32 e (if eof then 1 else 0) )
            | RFsstat fs ->
                ( None,
                  18,
                  fun e ->
                    List.iter (Enc.u64 e)
                      [ fs.total_bytes; fs.free_bytes; fs.total_files; fs.free_files ] )
            | RCommit a -> (Some a, 21, ignore)
          in
          ref_some e (ref_fattr e) attr;
          Enc.u32 e tag;
          body e)

let ref_peer_attr e (a : Nfs.fattr) =
  List.iter (Enc.u32 e) [ ref_ftype a.ftype; a.mode; a.nlink; a.uid; a.gid ];
  List.iter (Enc.u64 e) [ a.size; a.used; a.fileid ];
  List.iter (ref_time e) [ a.atime; a.mtime; a.ctime ]

let ref_peer_msg ~xid (m : Peer.msg) =
  ref_encode (fun e ->
      Enc.u32 e xid;
      match m with
      | Getattr fh ->
          Enc.u32 e 1;
          ref_fh e fh
      | Nlink { op_id; fh; delta } ->
          Enc.u32 e 3;
          Enc.u64 e op_id;
          ref_fh e fh;
          Enc.u32 e (delta land 0xFFFFFFFF)
      | Entry_count { op_id; dir; delta; mtime } ->
          Enc.u32 e 4;
          Enc.u64 e op_id;
          ref_fh e dir;
          Enc.u32 e (delta land 0xFFFFFFFF);
          ref_time e mtime
      | Add_entry { op_id; dir; name; child } ->
          Enc.u32 e 5;
          Enc.u64 e op_id;
          ref_fh e dir;
          Enc.str e name;
          ref_fh e child)

let ref_peer_reply ~xid (r : Peer.reply) =
  ref_encode (fun e ->
      Enc.u32 e xid;
      match r with
      | Ack -> Enc.u32 e 1
      | Rattr a ->
          Enc.u32 e 2;
          ref_peer_attr e a
      | Rerr st ->
          Enc.u32 e 4;
          Enc.u32 e (ref_status st))

let ref_sites e sites =
  Enc.u32 e (Array.length sites);
  Array.iter (Enc.u32 e) sites

let ref_ctrl_msg ~xid (m : Ctrl.msg) =
  ref_encode (fun e ->
      Enc.u32 e xid;
      match m with
      | Intent { op_id; kind; fh; participants } ->
          Enc.u32 e 1;
          Enc.u64 e op_id;
          Enc.u32 e (match kind with K_remove -> 1 | K_commit -> 2 | K_mirror_write -> 3);
          ref_fh e fh;
          ref_sites e participants
      | Complete { op_id } ->
          Enc.u32 e 2;
          Enc.u64 e op_id
      | Remove_file { fh; sites } ->
          Enc.u32 e 3;
          ref_fh e fh;
          ref_sites e sites
      | Commit_file { fh; sites } ->
          Enc.u32 e 4;
          ref_fh e fh;
          ref_sites e sites
      | Get_map { fh; first_block; count } ->
          Enc.u32 e 5;
          ref_fh e fh;
          Enc.u32 e first_block;
          Enc.u32 e count)

let ref_ctrl_reply ~xid (r : Ctrl.reply) =
  ref_encode (fun e ->
      Enc.u32 e xid;
      match r with
      | Ack -> Enc.u32 e 1
      | Nack -> Enc.u32 e 2
      | Map { first_block; sites } ->
          Enc.u32 e 3;
          Enc.u32 e first_block;
          ref_sites e sites)

type wire =
  | W_call of Nfs.call
  | W_reply of Nfs.response
  | W_peer_msg of Peer.msg
  | W_peer_reply of Peer.reply
  | W_ctrl_msg of Ctrl.msg
  | W_ctrl_reply of Ctrl.reply

(* Setattr with every field drawn, and every stable_how. *)
let gen_wide_call =
  let open QCheck2.Gen in
  let o g = opt g in
  oneof
    [
      gen_call;
      map2
        (fun fh ((set_mode, set_uid, set_gid), (set_size, set_atime, set_mtime)) ->
          Nfs.Setattr (fh, { Nfs.set_mode; set_uid; set_gid; set_size; set_atime; set_mtime }))
        gen_fh
        (pair (triple (o gen_u32) (o gen_u32) (o gen_u32)) (triple (o gen_i64) (o gen_time) (o gen_time)));
      map3
        (fun fh off st -> Nfs.Write (fh, Int64.of_int (abs off), st, Nfs.Synthetic 512))
        gen_fh int
        (oneofl [ Nfs.Unstable; Nfs.Data_sync; Nfs.File_sync ]);
    ]

let gen_wire =
  let open QCheck2.Gen in
  oneof
    [
      map (fun c -> W_call c) gen_wide_call;
      map (fun r -> W_reply (Ok r)) gen_reply;
      map (fun a -> W_reply (Ok (Nfs.RGetattr a))) gen_attr;
      map
        (fun (total_bytes, free_bytes, total_files, free_files) ->
          W_reply (Ok (Nfs.RFsstat { total_bytes; free_bytes; total_files; free_files })))
        (quad gen_i64 gen_i64 gen_i64 gen_i64);
      map (fun st -> W_reply (Error st)) (oneofl all_statuses);
      map (fun m -> W_peer_msg m) gen_peer_msg;
      map (fun r -> W_peer_reply r) gen_peer_reply;
      map (fun m -> W_ctrl_msg m) gen_ctrl_msg;
      map (fun r -> W_ctrl_reply r) gen_ctrl_reply;
    ]

let encoders_match_reference =
  qtest ~count:1000 "encoders write the reference encoder's bytes"
    QCheck2.Gen.(pair gen_u32 gen_wire)
    (fun (xid, w) ->
      let ours, reference =
        match w with
        | W_call c -> (Codec.encode_call ~xid c, ref_call ~xid c)
        | W_reply r -> (Codec.encode_reply ~xid r, ref_reply ~xid r)
        | W_peer_msg m -> (Peer.encode_msg ~xid m, ref_peer_msg ~xid m)
        | W_peer_reply r -> (Peer.encode_reply ~xid r, ref_peer_reply ~xid r)
        | W_ctrl_msg m -> (Ctrl.encode_msg ~xid m, ref_ctrl_msg ~xid m)
        | W_ctrl_reply r -> (Ctrl.encode_reply ~xid r, ref_ctrl_reply ~xid r)
      in
      Bytes.equal ours reference)

let suite = suite @ [ encoders_match_reference ]
