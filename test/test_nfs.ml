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
          match (Nfs.reply_attr x, Nfs.reply_attr y) with
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
      match (Nfs.reply_attr r, Codec.reply_attr_offset_i buf) with
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

let decode_garbage_is_contained =
  qtest ~count:500 "decode of fuzz never escapes Malformed"
    QCheck2.Gen.(string_size (int_range 0 200))
    (fun s ->
      let buf = Bytes.of_string s in
      let contained f = match f () with _ -> true | exception Codec.Malformed _ -> true in
      peek_contained (Codec.cursor ()) buf
      && contained (fun () -> ignore (Codec.decode_call buf))
      && contained (fun () -> ignore (Codec.decode_reply buf))
      && contained (fun () -> ignore (Codec.reply_attr_offset_i buf))
      && contained (fun () -> ignore (Codec.reply_fh_after_attr_off buf)))

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

let suite =
  suite @ [ decode_garbage_is_contained; truncated_real_call_is_contained ]
