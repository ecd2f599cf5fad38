open Helpers
module Engine = Slice_sim.Engine
module Net = Slice_net.Net
module Nfs = Slice_nfs.Nfs
module Fh = Slice_nfs.Fh
module Host = Slice_storage.Host
module Nfs_server = Slice_baseline.Nfs_server
module Client = Slice_workload.Client

let mk ?(mem_only = false) () =
  let eng = Engine.create () in
  let net = Net.create eng () in
  let shost = Host.create net ~name:"server" ~disks:(if mem_only then 0 else 8) () in
  let server = Nfs_server.attach shost ~mem_only () in
  let chost = Host.create net ~name:"client" () in
  let cl = Client.create chost ~server:(Nfs_server.addr server) () in
  (eng, server, cl)

let full_lifecycle () =
  let eng, server, cl = mk () in
  run_on eng (fun () ->
      let root = Nfs_server.root server in
      let d, _ = ok_or_fail "mkdir" (Client.mkdir cl root "home") in
      let fh, _ = ok_or_fail "create" (Client.create_file cl d "f.txt") in
      let data = "baseline data" in
      ignore (ok_or_fail "write" (Client.write_at cl fh ~off:0L ~data:(Nfs.Data data) ()));
      ignore (ok_or_fail "commit" (Client.commit cl fh));
      (match ok_or_fail "read" (Client.read_at cl fh ~off:0L ~count:(String.length data)) with
      | Nfs.Data d', eof ->
          check_string "data" data d';
          check_bool "eof" true eof
      | _ -> Alcotest.fail "synthetic");
      (* rename + link + readdir *)
      ignore (ok_or_fail "rename" (Client.rename cl d "f.txt" d "g.txt"));
      ignore (ok_or_fail "link" (Client.link cl fh ~dir:d "h.txt"));
      let entries = ok_or_fail "readdir" (Client.readdir_all cl d) in
      check_int "two names" 2 (List.length entries);
      ignore (ok_or_fail "remove g" (Client.remove cl d "g.txt"));
      ignore (ok_or_fail "remove h" (Client.remove cl d "h.txt"));
      (match Client.getattr cl fh with
      | Error Nfs.ERR_STALE -> ()
      | _ -> Alcotest.fail "file gone after last unlink");
      ignore (ok_or_fail "rmdir" (Client.rmdir cl root "home"));
      check_int "no errors beyond expected" 1 (Client.errors cl))

let symlink_and_access () =
  let eng, server, cl = mk () in
  run_on eng (fun () ->
      let root = Nfs_server.root server in
      let lfh, _ = ok_or_fail "symlink" (Client.symlink cl root "ln" ~target:"elsewhere") in
      check_string "target" "elsewhere" (ok_or_fail "readlink" (Client.readlink cl lfh));
      ignore (ok_or_fail "access" (Client.access cl root)))

let mem_only_serves_without_disk () =
  let eng, server, cl = mk ~mem_only:true () in
  run_on eng (fun () ->
      let root = Nfs_server.root server in
      let fh, _ = ok_or_fail "create" (Client.create_file cl root "memfile") in
      ignore (ok_or_fail "write" (Client.write_at cl fh ~off:0L ~data:(Nfs.Synthetic 65536) ()));
      ignore (ok_or_fail "commit" (Client.commit cl fh));
      check_bool "fast (no disk waits)" true (Engine.now eng < 0.01))

let disk_write_path_slower_than_mfs () =
  let t_disk =
    let eng, server, cl = mk () in
    run_on eng (fun () ->
        let fh, _ = ok_or_fail "create" (Client.create_file cl (Nfs_server.root server) "d") in
        ignore (ok_or_fail "w" (Client.write_at cl fh ~off:0L ~data:(Nfs.Synthetic 8192) ()));
        ignore (ok_or_fail "commit" (Client.commit cl fh));
        Engine.now eng)
  in
  let t_mem =
    let eng, server, cl = mk ~mem_only:true () in
    run_on eng (fun () ->
        let fh, _ = ok_or_fail "create" (Client.create_file cl (Nfs_server.root server) "m") in
        ignore (ok_or_fail "w" (Client.write_at cl fh ~off:0L ~data:(Nfs.Synthetic 8192) ()));
        ignore (ok_or_fail "commit" (Client.commit cl fh));
        Engine.now eng)
  in
  check_bool "disk commit slower than MFS" true (t_disk > t_mem)

(* Listings follow every create, remove and rename, and a repeated
   readdir of an unchanged directory is answered the same. *)
let readdir_follows_changes () =
  let eng, server, cl = mk ~mem_only:true () in
  run_on eng (fun () ->
      let root = Nfs_server.root server in
      let names d =
        List.map (fun (e : Nfs.entry) -> e.Nfs.entry_name) (ok_or_fail "readdir" (Client.readdir_all cl d))
      in
      let check label expected d = Alcotest.(check (list string)) label expected (names d) in
      let a, _ = ok_or_fail "mkdir" (Client.mkdir cl root "a") in
      let b, _ = ok_or_fail "mkdir" (Client.mkdir cl root "b") in
      List.iter (fun n -> ignore (ok_or_fail n (Client.create_file cl a n))) [ "y"; "x" ];
      check "sorted" [ "x"; "y" ] a;
      check "unchanged" [ "x"; "y" ] a;
      ignore (ok_or_fail "create" (Client.create_file cl a "w"));
      check "created" [ "w"; "x"; "y" ] a;
      ignore (ok_or_fail "remove" (Client.remove cl a "x"));
      check "removed" [ "w"; "y" ] a;
      ignore (ok_or_fail "rename" (Client.rename cl a "y" b "z"));
      check "rename source" [ "w" ] a;
      check "rename target" [ "z" ] b;
      ignore (ok_or_fail "remove" (Client.remove cl a "w"));
      check "emptied" [] a)

(* A shrinking SETATTR leaves no stale bytes: past the new size, bytes
   read as zeros once a later write grows the file again — whether the
   size cut the block or dropped it whole. *)
let shrink_then_grow_reads_zeros () =
  let eng, server, cl = mk ~mem_only:true () in
  run_on eng (fun () ->
      let read_back label ~size expect =
        let fh, _ = ok_or_fail "create" (Client.create_file cl (Nfs_server.root server) label) in
        ignore (ok_or_fail "w" (Client.write_at cl fh ~off:0L ~data:(Nfs.Data "ABCDEFGH") ()));
        ignore (ok_or_fail "truncate" (Client.setattr cl fh (Nfs.sattr_size size)));
        ignore (ok_or_fail "w" (Client.write_at cl fh ~off:6L ~data:(Nfs.Data "Z") ()));
        match ok_or_fail "r" (Client.read_at cl fh ~off:0L ~count:8) with
        | Nfs.Data d, _ -> check_string label expect d
        | _ -> Alcotest.fail "synthetic"
      in
      read_back "cut to 0" ~size:0L "\000\000\000\000\000\000Z";
      read_back "cut to 3" ~size:3L "ABC\000\000\000Z")

let suite =
  [
    ("full lifecycle", `Quick, full_lifecycle);
    ("readdir follows changes", `Quick, readdir_follows_changes);
    ("symlink and access", `Quick, symlink_and_access);
    ("mem-only serves without disk", `Quick, mem_only_serves_without_disk);
    ("disk commit slower than MFS", `Quick, disk_write_path_slower_than_mfs);
    ("shrink then grow reads zeros", `Quick, shrink_then_grow_reads_zeros);
  ]
