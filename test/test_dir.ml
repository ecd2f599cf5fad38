open Helpers
module Engine = Slice_sim.Engine
module Net = Slice_net.Net
module Rpc = Slice_net.Rpc
module Nfs = Slice_nfs.Nfs
module Fh = Slice_nfs.Fh
module Codec = Slice_nfs.Codec
module Routekey = Slice_nfs.Routekey
module Host = Slice_storage.Host
module Dirserver = Slice_dir.Dirserver
module Wal = Slice_wal.Wal

type rig = {
  eng : Engine.t;
  net : Net.t;
  dirs : Dirserver.t array;
  addrs : Slice_net.Packet.addr array;
  rpc : Rpc.t;
  policy : Routekey.name_policy;
}

let mk_rig ?(nsites = 2) ?(policy = Routekey.Name_hashing) () =
  let eng = Engine.create () in
  let net = Net.create eng () in
  let hosts =
    Array.init nsites (fun i -> Host.create net ~name:(Printf.sprintf "dir%d" i) ~disks:1 ())
  in
  let addrs = Array.map (fun (h : Host.t) -> h.Host.addr) hosts in
  let dirs =
    Array.init nsites (fun i ->
        Dirserver.attach hosts.(i)
          {
            Dirserver.logical_id = i;
            nsites;
            policy;
            resolve = (fun l -> addrs.(l mod nsites));
            data_sites = (fun _ -> []);
            coordinator = (fun _ -> None);
            mirror_new_files = false;
            cap_secret = None;
            also_owns = [];
          })
  in
  let client = Host.create net ~name:"client" () in
  let rpc = Rpc.create net client.Host.addr ~port:1000 in
  { eng; net; dirs; addrs; rpc; policy }

(* Route a call the way the µproxy would, then send it directly. *)
let site_of rig (call : Nfs.call) =
  let n = Array.length rig.addrs in
  let by_name (dfh : Fh.t) name =
    match rig.policy with
    | Routekey.Mkdir_switching -> dfh.Fh.attr_site mod n
    | Routekey.Name_hashing -> Routekey.name_site ~nsites:n dfh name
  in
  match call with
  | Nfs.Getattr fh | Nfs.Setattr (fh, _) | Nfs.Access (fh, _) | Nfs.Readlink fh ->
      fh.Fh.attr_site mod n
  | Nfs.Lookup (d, m) | Nfs.Create (d, m) | Nfs.Mkdir (d, m) | Nfs.Symlink (d, m, _)
  | Nfs.Remove (d, m) | Nfs.Rmdir (d, m) | Nfs.Rename (d, m, _, _) ->
      by_name d m
  | Nfs.Link (_, d, m) -> by_name d m
  | Nfs.Readdir (d, _, _) -> d.Fh.attr_site mod n
  | _ -> 0

let call ?to_site rig (c : Nfs.call) =
  let site = match to_site with Some s -> s | None -> site_of rig c in
  let xid = Rpc.fresh_xid rig.rpc in
  let payload = Codec.encode_call ~xid c in
  let reply = Rpc.call rig.rpc ~dst:rig.addrs.(site) ~dport:2049 payload in
  snd (Codec.decode_reply reply)

let create rig dfh name =
  match call rig (Nfs.Create (dfh, name)) with
  | Ok (Nfs.RCreate (fh, a)) -> Ok (fh, a)
  | Error st -> Error st
  | _ -> Alcotest.fail "create reply"

let mkdir ?to_site rig dfh name =
  match call ?to_site rig (Nfs.Mkdir (dfh, name)) with
  | Ok (Nfs.RMkdir (fh, a)) -> Ok (fh, a)
  | Error st -> Error st
  | _ -> Alcotest.fail "mkdir reply"

let lookup rig dfh name =
  match call rig (Nfs.Lookup (dfh, name)) with
  | Ok (Nfs.RLookup (fh, a)) -> Ok (fh, a)
  | Error st -> Error st
  | _ -> Alcotest.fail "lookup reply"

(* ---- basic name-space semantics ---- *)

let create_lookup_getattr () =
  let rig = mk_rig () in
  run_on rig.eng (fun () ->
      let fh, a = ok_or_fail "create" (create rig Fh.root "file1") in
      check_bool "fresh file size 0" true (a.Nfs.size = 0L);
      check_bool "reg" true (fh.Fh.ftype = Fh.Reg);
      let fh', a' = ok_or_fail "lookup" (lookup rig Fh.root "file1") in
      check_bool "same fh" true (Fh.equal fh fh');
      check_bool "same id" true (a'.Nfs.fileid = a.Nfs.fileid);
      match call rig (Nfs.Getattr fh) with
      | Ok (Nfs.RGetattr ga) -> check_bool "getattr id" true (ga.Nfs.fileid = a.Nfs.fileid)
      | _ -> Alcotest.fail "getattr")

let lookup_noent () =
  let rig = mk_rig () in
  run_on rig.eng (fun () -> expect_err "lookup" Nfs.ERR_NOENT (lookup rig Fh.root "missing"))

let create_exists () =
  let rig = mk_rig () in
  run_on rig.eng (fun () ->
      ignore (ok_or_fail "create" (create rig Fh.root "dup"));
      expect_err "second create" Nfs.ERR_EXIST (create rig Fh.root "dup"))

let parent_mtime_and_count () =
  let rig = mk_rig ~nsites:1 () in
  run_on rig.eng (fun () ->
      ignore (ok_or_fail "c1" (create rig Fh.root "a"));
      ignore (ok_or_fail "c2" (create rig Fh.root "b"));
      match call rig (Nfs.Getattr Fh.root) with
      | Ok (Nfs.RGetattr a) ->
          (* dir size reflects its two entries *)
          check_bool "dir size grows" true (a.Nfs.size = 48L)
      | _ -> Alcotest.fail "getattr root")

let remove_semantics () =
  let rig = mk_rig () in
  run_on rig.eng (fun () ->
      ignore (ok_or_fail "create" (create rig Fh.root "gone"));
      (match call rig (Nfs.Remove (Fh.root, "gone")) with
      | Ok Nfs.RRemove -> ()
      | _ -> Alcotest.fail "remove");
      expect_err "lookup after remove" Nfs.ERR_NOENT (lookup rig Fh.root "gone");
      match call rig (Nfs.Remove (Fh.root, "gone")) with
      | Error Nfs.ERR_NOENT -> ()
      | _ -> Alcotest.fail "double remove")

let mkdir_rmdir () =
  let rig = mk_rig () in
  run_on rig.eng (fun () ->
      let d, _ = ok_or_fail "mkdir" (mkdir rig Fh.root "sub") in
      check_bool "dir type" true (d.Fh.ftype = Fh.Dir);
      ignore (ok_or_fail "create in sub" (create rig d "f"));
      (match call rig (Nfs.Rmdir (Fh.root, "sub")) with
      | Error Nfs.ERR_NOTEMPTY -> ()
      | _ -> Alcotest.fail "rmdir nonempty must fail");
      (match call rig (Nfs.Remove (d, "f")) with Ok Nfs.RRemove -> () | _ -> Alcotest.fail "rm f");
      (match call rig (Nfs.Rmdir (Fh.root, "sub")) with
      | Ok Nfs.RRmdir -> ()
      | _ -> Alcotest.fail "rmdir empty");
      expect_err "dir gone" Nfs.ERR_NOENT (lookup rig Fh.root "sub"))

let rmdir_of_file_fails () =
  let rig = mk_rig () in
  run_on rig.eng (fun () ->
      ignore (ok_or_fail "create" (create rig Fh.root "plain"));
      match call rig (Nfs.Rmdir (Fh.root, "plain")) with
      | Error Nfs.ERR_NOTDIR -> ()
      | _ -> Alcotest.fail "rmdir of file")

let remove_of_dir_fails () =
  let rig = mk_rig () in
  run_on rig.eng (fun () ->
      ignore (ok_or_fail "mkdir" (mkdir rig Fh.root "adir"));
      match call rig (Nfs.Remove (Fh.root, "adir")) with
      | Error Nfs.ERR_ISDIR -> ()
      | _ -> Alcotest.fail "remove of dir")

let symlink_readlink () =
  let rig = mk_rig () in
  run_on rig.eng (fun () ->
      (match call rig (Nfs.Symlink (Fh.root, "ln", "target/path")) with
      | Ok (Nfs.RSymlink (fh, _)) -> (
          check_bool "lnk type" true (fh.Fh.ftype = Fh.Lnk);
          match call rig (Nfs.Readlink fh) with
          | Ok (Nfs.RReadlink (t, _)) -> check_string "target" "target/path" t
          | _ -> Alcotest.fail "readlink")
      | _ -> Alcotest.fail "symlink"))

let link_bumps_nlink () =
  let rig = mk_rig () in
  run_on rig.eng (fun () ->
      let fh, a0 = ok_or_fail "create" (create rig Fh.root "orig") in
      check_int "nlink 1" 1 a0.Nfs.nlink;
      (match call rig (Nfs.Link (fh, Fh.root, "alias")) with
      | Ok (Nfs.RLink a) -> check_int "nlink 2" 2 a.Nfs.nlink
      | _ -> Alcotest.fail "link");
      let fh', _ = ok_or_fail "lookup alias" (lookup rig Fh.root "alias") in
      check_bool "same file" true (Fh.equal fh fh');
      (* removing one name keeps the file *)
      (match call rig (Nfs.Remove (Fh.root, "orig")) with
      | Ok Nfs.RRemove -> ()
      | _ -> Alcotest.fail "remove orig");
      match call rig (Nfs.Getattr fh) with
      | Ok (Nfs.RGetattr a) -> check_int "nlink back to 1" 1 a.Nfs.nlink
      | _ -> Alcotest.fail "file must survive")

let rename_basic () =
  let rig = mk_rig () in
  run_on rig.eng (fun () ->
      let fh, _ = ok_or_fail "create" (create rig Fh.root "old") in
      let d, _ = ok_or_fail "mkdir" (mkdir rig Fh.root "dest") in
      (match call rig (Nfs.Rename (Fh.root, "old", d, "new")) with
      | Ok Nfs.RRename -> ()
      | _ -> Alcotest.fail "rename");
      expect_err "old gone" Nfs.ERR_NOENT (lookup rig Fh.root "old");
      let fh', _ = ok_or_fail "new there" (lookup rig d "new") in
      check_bool "same file" true (Fh.equal fh fh'))

let readdir_lists_entries () =
  let rig = mk_rig ~nsites:1 () in
  run_on rig.eng (fun () ->
      let d, _ = ok_or_fail "mkdir" (mkdir rig Fh.root "list") in
      List.iter (fun n -> ignore (ok_or_fail n (create rig d n))) [ "c"; "a"; "b" ];
      match call rig (Nfs.Readdir (d, 0L, 10)) with
      | Ok (Nfs.RReaddir (entries, _, eof)) ->
          check_bool "eof" true eof;
          check_bool "sorted names" true
            (List.map (fun (e : Nfs.entry) -> e.Nfs.entry_name) entries = [ "a"; "b"; "c" ])
      | _ -> Alcotest.fail "readdir")

let readdir_paging () =
  let rig = mk_rig ~nsites:1 () in
  run_on rig.eng (fun () ->
      let d, _ = ok_or_fail "mkdir" (mkdir rig Fh.root "page") in
      for i = 0 to 9 do
        ignore (ok_or_fail "c" (create rig d (Printf.sprintf "f%02d" i)))
      done;
      let rec pages cookie acc =
        match call rig (Nfs.Readdir (d, cookie, 4)) with
        | Ok (Nfs.RReaddir (entries, next, eof)) ->
            let acc = acc @ List.map (fun (e : Nfs.entry) -> e.Nfs.entry_name) entries in
            if eof then acc else pages next acc
        | _ -> Alcotest.fail "readdir page"
      in
      let all = pages 0L [] in
      check_int "all ten" 10 (List.length all);
      check_bool "no dups" true (List.sort_uniq compare all = all))

(* ---- cross-site behaviour ---- *)

let hashing_spreads_entries () =
  let rig = mk_rig ~nsites:2 ~policy:Routekey.Name_hashing () in
  run_on rig.eng (fun () ->
      for i = 0 to 19 do
        ignore (ok_or_fail "c" (create rig Fh.root (Printf.sprintf "spread%02d" i)))
      done;
      let e0 = Dirserver.entry_count rig.dirs.(0) in
      let e1 = Dirserver.entry_count rig.dirs.(1) in
      check_int "all entries" 20 (e0 + e1);
      check_bool "both sites used" true (e0 > 0 && e1 > 0);
      (* parent counts crossed sites: root's attr cell lives at site 0 *)
      check_bool "cross-site ops happened" true
        (Dirserver.cross_site_ops rig.dirs.(0) + Dirserver.cross_site_ops rig.dirs.(1) > 0))

let redirected_mkdir_orphan () =
  let rig = mk_rig ~nsites:2 ~policy:Routekey.Mkdir_switching () in
  run_on rig.eng (fun () ->
      (* emulate the µproxy redirecting a mkdir to the non-parent site *)
      let parent_site = Fh.root.Fh.attr_site in
      let other = (parent_site + 1) mod 2 in
      let d, _ = ok_or_fail "redirected mkdir" (mkdir ~to_site:other rig Fh.root "orphan") in
      check_int "minted at other site" other d.Fh.attr_site;
      (* the name entry must live at the parent's site *)
      let fh', _ = ok_or_fail "lookup orphan" (lookup rig Fh.root "orphan") in
      check_bool "lookup finds it" true (Fh.equal d fh');
      check_bool "entry at parent site" true
        (Dirserver.lookup_local rig.dirs.(parent_site) ~parent:Fh.root "orphan" <> None);
      (* children of the orphan go to the new site *)
      let f, _ = ok_or_fail "create under orphan" (create rig d "child") in
      check_int "child minted at orphan's site" other f.Fh.attr_site)

let misdirected_bounced () =
  let rig = mk_rig ~nsites:2 ~policy:Routekey.Name_hashing () in
  run_on rig.eng (fun () ->
      ignore (ok_or_fail "create" (create rig Fh.root "here"));
      let right = site_of rig (Nfs.Lookup (Fh.root, "here")) in
      let wrong = (right + 1) mod 2 in
      match call ~to_site:wrong rig (Nfs.Lookup (Fh.root, "here")) with
      | Error Nfs.ERR_MISDIRECTED -> ()
      | _ -> Alcotest.fail "expected SLICE_MISDIRECTED bounce")

let getattr_stale () =
  let rig = mk_rig () in
  run_on rig.eng (fun () ->
      let ghost = { Fh.file_id = 999_999L; gen = 1; ftype = Fh.Reg; mirrored = false; attr_site = 0; cap = 0L } in
      match call rig (Nfs.Getattr ghost) with
      | Error Nfs.ERR_STALE -> ()
      | _ -> Alcotest.fail "stale handle")

(* ---- recovery ---- *)

let dir_state rig i =
  (Dirserver.entry_count rig.dirs.(i), Dirserver.attr_cell_count rig.dirs.(i))

let crash_recover_preserves_state () =
  let rig = mk_rig ~nsites:2 ~policy:Routekey.Name_hashing () in
  run_on rig.eng (fun () ->
      let d, _ = ok_or_fail "mkdir" (mkdir rig Fh.root "keep") in
      for i = 0 to 9 do
        ignore (ok_or_fail "c" (create rig d (Printf.sprintf "k%d" i)))
      done;
      ignore (ok_or_fail "symlink" (
        match call rig (Nfs.Symlink (d, "ln", "t")) with
        | Ok (Nfs.RSymlink (fh, a)) -> Ok (fh, a)
        | Error st -> Error st
        | _ -> Alcotest.fail "symlink"));
      let before0 = dir_state rig 0 and before1 = dir_state rig 1 in
      Dirserver.crash rig.dirs.(0);
      Dirserver.crash rig.dirs.(1);
      Dirserver.recover rig.dirs.(0);
      Dirserver.recover rig.dirs.(1);
      Engine.sleep rig.eng 0.5;
      check_bool "site0 state" true (dir_state rig 0 = before0);
      check_bool "site1 state" true (dir_state rig 1 = before1);
      (* and the namespace still works *)
      let fh, _ = ok_or_fail "lookup after recovery" (lookup rig d "k3") in
      check_bool "file intact" true (fh.Fh.ftype = Fh.Reg);
      ignore (ok_or_fail "create after recovery" (create rig d "post-crash")))

let checkpoint_then_recover () =
  let rig = mk_rig ~nsites:1 () in
  run_on rig.eng (fun () ->
      for i = 0 to 5 do
        ignore (ok_or_fail "c" (create rig Fh.root (Printf.sprintf "s%d" i)))
      done;
      Dirserver.checkpoint rig.dirs.(0);
      ignore (ok_or_fail "after ckpt" (create rig Fh.root "late"));
      let before = dir_state rig 0 in
      Dirserver.crash rig.dirs.(0);
      Dirserver.recover rig.dirs.(0);
      check_bool "state from snapshot + tail" true (dir_state rig 0 = before);
      ignore (ok_or_fail "lookup late" (lookup rig Fh.root "late"));
      ignore (ok_or_fail "lookup early" (lookup rig Fh.root "s2")))

(* A crash while the checkpoint's snapshot is still on its way to disk
   must leave the old journal in place: six creates, a checkpoint in a
   fiber of its own, a crash 1 µs later, then recovery. The checkpoint
   raises [Wal.Crashed]. *)
let crash_mid_checkpoint () =
  let rig = mk_rig ~nsites:1 () in
  let d = rig.dirs.(0) in
  run_on rig.eng (fun () ->
      for i = 0 to 5 do
        ignore (ok_or_fail "c" (create rig Fh.root (Printf.sprintf "s%d" i)))
      done;
      let before = dir_state rig 0 in
      let outcome = ref "running" in
      Engine.spawn rig.eng (fun () ->
          outcome :=
            match Dirserver.checkpoint d with () -> "done" | exception Wal.Crashed -> "crashed");
      Engine.sleep rig.eng 1e-6;
      Dirserver.crash d;
      Dirserver.recover d;
      check_bool "state from the old journal" true (dir_state rig 0 = before);
      ignore (ok_or_fail "lookup" (lookup rig Fh.root "s3"));
      Engine.sleep rig.eng 0.1;
      check_string "the checkpoint was cut off" "crashed" !outcome)

(* A create whose journal round is in flight when a checkpoint starts:
   the round lands before the snapshot, the create is answered, and the
   snapshot that replaces the old log holds it. *)
let checkpoint_during_create () =
  let rig = mk_rig ~nsites:1 () in
  let d = rig.dirs.(0) in
  run_on rig.eng (fun () ->
      ignore (ok_or_fail "c" (create rig Fh.root "early"));
      let answered = ref false in
      Engine.spawn rig.eng (fun () ->
          ignore (ok_or_fail "in-flight create" (create rig Fh.root "inflight"));
          answered := true);
      (* the entry is applied just before its round starts *)
      let n = Dirserver.entry_count d in
      while Dirserver.entry_count d = n do
        Engine.sleep rig.eng 1e-6
      done;
      Dirserver.checkpoint d;
      Engine.sleep rig.eng 0.1;
      check_bool "the create was answered" true !answered;
      let before = dir_state rig 0 in
      Dirserver.crash d;
      Dirserver.recover d;
      check_bool "state from the snapshot" true (dir_state rig 0 = before);
      ignore (ok_or_fail "lookup" (lookup rig Fh.root "inflight")))

let mint_counter_survives_recovery () =
  let rig = mk_rig ~nsites:1 () in
  run_on rig.eng (fun () ->
      let fh1, _ = ok_or_fail "c1" (create rig Fh.root "one") in
      Dirserver.crash rig.dirs.(0);
      Dirserver.recover rig.dirs.(0);
      let fh2, _ = ok_or_fail "c2" (create rig Fh.root "two") in
      check_bool "no fileid reuse" true (fh1.Fh.file_id <> fh2.Fh.file_id))

let suite =
  [
    ("create/lookup/getattr", `Quick, create_lookup_getattr);
    ("lookup ENOENT", `Quick, lookup_noent);
    ("create EEXIST", `Quick, create_exists);
    ("parent size tracks entries", `Quick, parent_mtime_and_count);
    ("remove semantics", `Quick, remove_semantics);
    ("mkdir/rmdir", `Quick, mkdir_rmdir);
    ("rmdir of file fails", `Quick, rmdir_of_file_fails);
    ("remove of dir fails", `Quick, remove_of_dir_fails);
    ("symlink/readlink", `Quick, symlink_readlink);
    ("link bumps nlink", `Quick, link_bumps_nlink);
    ("rename basic", `Quick, rename_basic);
    ("readdir lists entries", `Quick, readdir_lists_entries);
    ("readdir paging", `Quick, readdir_paging);
    ("name hashing spreads entries", `Quick, hashing_spreads_entries);
    ("redirected mkdir orphan", `Quick, redirected_mkdir_orphan);
    ("misdirected request bounced", `Quick, misdirected_bounced);
    ("getattr stale", `Quick, getattr_stale);
    ("crash/recover preserves state", `Quick, crash_recover_preserves_state);
    ("checkpoint then recover", `Quick, checkpoint_then_recover);
    ("crash mid-checkpoint keeps the old journal", `Quick, crash_mid_checkpoint);
    ("checkpoint during a create's round", `Quick, checkpoint_during_create);
    ("mint counter survives recovery", `Quick, mint_counter_survives_recovery);
  ]

(* Failover (Section 2.3): open a failed peer's journal of [site] at [d]
   and serve the site as well, as Reconfig.takeover does; the caller
   rebinds the routing table. *)
let adopt_site d ~from ~site =
  ignore (Dirserver.adopt_site d ~from site);
  Slice_storage.Tenure.own (Dirserver.tenure d) site

let failover_adopt_site () =
  (* Section 2.3: a surviving server assumes a failed server's role,
     recovering its state from the shared journal. *)
  let rig = mk_rig ~nsites:2 ~policy:Routekey.Name_hashing () in
  run_on rig.eng (fun () ->
      let names = List.init 16 (Printf.sprintf "file%02d") in
      List.iter (fun n -> ignore (ok_or_fail n (create rig Fh.root n))) names;
      (* names whose entries live on site 1 *)
      let on_site1 =
        List.filter (fun n -> site_of rig (Nfs.Lookup (Fh.root, n)) = 1) names
      in
      check_bool "some entries on site 1" true (on_site1 <> []);
      (* server 1 fails; its synced journal survives on shared storage *)
      Dirserver.crash rig.dirs.(1);
      (* server 0 opens logical site 1's journal *)
      adopt_site rig.dirs.(0) ~from:rig.dirs.(1) ~site:1;
      check_bool "owns both sites" true
        (Slice_storage.Tenure.owned_sites (Dirserver.tenure rig.dirs.(0)) = [ 0; 1 ]);
      (* site-1 entries are now served by server 0 (the routing table
         would be rebound to it) *)
      List.iter
        (fun n ->
          match call ~to_site:0 rig (Nfs.Lookup (Fh.root, n)) with
          | Ok (Nfs.RLookup _) -> ()
          | _ -> Alcotest.failf "lookup %s after failover" n)
        on_site1;
      (* new site-1 names can be created at the survivor *)
      (match call ~to_site:0 rig (Nfs.Create (Fh.root, "post-failover")) with
      | Ok (Nfs.RCreate _) -> ()
      | Error Nfs.ERR_MISDIRECTED -> Alcotest.fail "survivor must accept adopted site"
      | _ -> Alcotest.fail "create after failover");
      (* the survivor now holds both sites' journals: crash/recover it
         and both sites come back *)
      let before = (Dirserver.entry_count rig.dirs.(0), Dirserver.attr_cell_count rig.dirs.(0)) in
      Dirserver.crash rig.dirs.(0);
      Dirserver.recover rig.dirs.(0);
      check_bool "survivor state intact after its own crash" true
        ((Dirserver.entry_count rig.dirs.(0), Dirserver.attr_cell_count rig.dirs.(0)) = before))

let suite = suite @ [ ("failover: adopt failed site", `Quick, failover_adopt_site) ]

let rebalance_logical_sites () =
  (* Section 3.3.1: run more logical sites than physical servers; grow the
     ensemble by moving logical sites to a new server and rebinding the
     (external) routing table. With L logical sites, rebalancing moves
     1/Nth of the data at the granularity of a site. *)
  let nlogical = 8 in
  let eng = Engine.create () in
  let net = Net.create eng () in
  let hosts =
    Array.init 3 (fun i -> Host.create net ~name:(Printf.sprintf "d%d" i) ~disks:1 ())
  in
  let addrs = Array.map (fun (h : Host.t) -> h.Host.addr) hosts in
  (* external table: who owns each logical site now; servers resolve peers
     through it too *)
  let binding = Array.init nlogical (fun l -> l mod 2) in
  let mk_server i primary extras =
    Dirserver.attach hosts.(i)
      {
        Dirserver.logical_id = primary;
        nsites = nlogical;
        policy = Routekey.Name_hashing;
        resolve = (fun l -> addrs.(binding.(l mod nlogical)));
        data_sites = (fun _ -> []);
        coordinator = (fun _ -> None);
        mirror_new_files = false;
        cap_secret = None;
        also_owns = extras;
      }
  in
  (* two physical servers host four logical sites each *)
  let s0 = mk_server 0 0 [ 2; 4; 6 ] in
  let s1 = mk_server 1 1 [ 3; 5; 7 ] in
  let client = Host.create net ~name:"client" () in
  let rpc = Rpc.create net client.Host.addr ~port:1000 in
  let call (c : Nfs.call) =
    let site =
      match c with
      | Nfs.Lookup (d, m) | Nfs.Create (d, m) -> Routekey.name_site ~nsites:nlogical d m
      | _ -> 0
    in
    let xid = Rpc.fresh_xid rpc in
    let reply = Rpc.call rpc ~dst:addrs.(binding.(site)) ~dport:2049 (Codec.encode_call ~xid c) in
    snd (Codec.decode_reply reply)
  in
  run_on eng (fun () ->
      let names = List.init 24 (Printf.sprintf "doc%02d") in
      List.iter
        (fun n ->
          match call (Nfs.Create (Fh.root, n)) with
          | Ok (Nfs.RCreate _) -> ()
          | _ -> Alcotest.failf "create %s" n)
        names;
      (* grow: bring up server 2 and move logical sites 6 and 7 to it,
         recovering their state from the donors' journals *)
      let s2 = mk_server 2 6 [] in
      adopt_site s2 ~from:s1 ~site:7;
      adopt_site s2 ~from:s0 ~site:6;
      binding.(6) <- 2;
      binding.(7) <- 2;
      (* every name is still reachable under the new binding *)
      List.iter
        (fun n ->
          match call (Nfs.Lookup (Fh.root, n)) with
          | Ok (Nfs.RLookup _) -> ()
          | _ -> Alcotest.failf "lookup %s after rebalance" n)
        names;
      (* and new creates land on the new server for its sites *)
      let moved = ref 0 in
      for i = 0 to 19 do
        let n = Printf.sprintf "new%02d" i in
        let site = Routekey.name_site ~nsites:nlogical Fh.root n in
        match call (Nfs.Create (Fh.root, n)) with
        | Ok (Nfs.RCreate _) -> if binding.(site) = 2 then incr moved
        | _ -> Alcotest.failf "create %s after rebalance" n
      done;
      check_bool "new server takes its share" true (!moved > 0);
      check_bool "new server holds entries" true (Dirserver.entry_count s2 > 0))

let suite = suite @ [ ("rebalance logical sites onto new server", `Quick, rebalance_logical_sites) ]

(* ---- readdir sees every namespace change ---- *)

(* Each site's readdir reply for name-hashed [d], asked of the server
   hosting the site with the site tagged into the cookie, as the µproxy
   iterates the directory. *)
let site_pages rig d =
  List.init (Array.length rig.addrs) (fun site ->
      let cookie = Int64.shift_left (Int64.of_int site) 32 in
      match call ~to_site:site rig (Nfs.Readdir (d, cookie, 1000)) with
      | Ok (Nfs.RReaddir (entries, _, eof) as r) ->
          check_bool "one page" true eof;
          (r, List.map (fun (e : Nfs.entry) -> e.Nfs.entry_name) entries)
      | _ -> Alcotest.fail "readdir")

(* The names of [d] over every site, sorted. *)
let listing rig d = List.sort String.compare (List.concat_map snd (site_pages rig d))

let check_names label expected got =
  Alcotest.(check (list string)) label expected got

let readdir_tracks_create_remove () =
  let rig = mk_rig ~nsites:1 () in
  run_on rig.eng (fun () ->
      let d, _ = ok_or_fail "mkdir" (mkdir rig Fh.root "live") in
      ignore (ok_or_fail "c" (create rig d "b"));
      check_names "before" [ "b" ] (listing rig d);
      check_names "again" [ "b" ] (listing rig d);
      ignore (ok_or_fail "c" (create rig d "a"));
      check_names "created name listed" [ "a"; "b" ] (listing rig d);
      (match call rig (Nfs.Remove (d, "b")) with
      | Ok Nfs.RRemove -> ()
      | _ -> Alcotest.fail "remove");
      check_names "removed name gone" [ "a" ] (listing rig d);
      (match call rig (Nfs.Remove (d, "a")) with
      | Ok Nfs.RRemove -> ()
      | _ -> Alcotest.fail "remove");
      (* the emptied directory reads like one never filled *)
      match call rig (Nfs.Readdir (d, 0L, 10)) with
      | Ok (Nfs.RReaddir ([], 0L, true)) -> ()
      | _ -> Alcotest.fail "empty directory")

let readdir_tracks_rename () =
  let rig = mk_rig () in
  run_on rig.eng (fun () ->
      let src, _ = ok_or_fail "mkdir" (mkdir rig Fh.root "src") in
      let dst, _ = ok_or_fail "mkdir" (mkdir rig Fh.root "dst") in
      List.iter (fun n -> ignore (ok_or_fail n (create rig src n))) [ "x"; "y" ];
      ignore (ok_or_fail "z" (create rig dst "z"));
      check_names "src before" [ "x"; "y" ] (listing rig src);
      check_names "dst before" [ "z" ] (listing rig dst);
      (match call rig (Nfs.Rename (src, "x", dst, "w")) with
      | Ok Nfs.RRename -> ()
      | _ -> Alcotest.fail "rename");
      check_names "src after" [ "y" ] (listing rig src);
      check_names "dst after" [ "w"; "z" ] (listing rig dst))

let readdir_survives_recovery () =
  let rig = mk_rig () in
  run_on rig.eng (fun () ->
      let d, _ = ok_or_fail "mkdir" (mkdir rig Fh.root "durable") in
      for i = 0 to 11 do
        ignore (ok_or_fail "c" (create rig d (Printf.sprintf "n%02d" i)))
      done;
      (match call rig (Nfs.Remove (d, "n05")) with
      | Ok Nfs.RRemove -> ()
      | _ -> Alcotest.fail "remove");
      let before = List.map fst (site_pages rig d) in
      Array.iter Dirserver.crash rig.dirs;
      Array.iter Dirserver.recover rig.dirs;
      Engine.sleep rig.eng 0.5;
      check_bool "same replies after WAL replay" true (List.map fst (site_pages rig d) = before))

let readdir_sites_cover_directory () =
  let rig = mk_rig ~nsites:2 ~policy:Routekey.Name_hashing () in
  run_on rig.eng (fun () ->
      let d, _ = ok_or_fail "mkdir" (mkdir rig Fh.root "spread") in
      let names = List.init 20 (Printf.sprintf "e%02d") in
      List.iter (fun n -> ignore (ok_or_fail n (create rig d n))) names;
      let pages = List.map snd (site_pages rig d) in
      check_bool "both sites list names" true (List.for_all (fun p -> p <> []) pages);
      check_names "union is the directory" names (listing rig d))

let suite =
  suite
  @ [
      ("readdir tracks create and remove", `Quick, readdir_tracks_create_remove);
      ("readdir tracks rename across directories", `Quick, readdir_tracks_rename);
      ("readdir survives crash and recovery", `Quick, readdir_survives_recovery);
      ("readdir site pages cover the directory", `Quick, readdir_sites_cover_directory);
    ]

(* ---- peer protocol ---- *)

module Peer = Slice_dir.Peer

let cross_total rig = Array.fold_left (fun n d -> n + Dirserver.cross_site_ops d) 0 rig.dirs
let cells_total rig = Array.fold_left (fun n d -> n + Dirserver.attr_cell_count d) 0 rig.dirs

(* First name of the form [prefix ^ i] whose root entry hashes to [site]. *)
let name_at rig prefix site =
  let rec go i =
    let n = prefix ^ string_of_int i in
    if site_of rig (Nfs.Lookup (Fh.root, n)) = site then n else go (i + 1)
  in
  go 0

let getattr_nlink rig fh =
  match call rig (Nfs.Getattr fh) with
  | Ok (Nfs.RGetattr a) -> a.Nfs.nlink
  | _ -> Alcotest.fail "getattr"

(* Link counts of a file whose attribute cell lives at the other site
   travel as [Peer.Nlink]. The file is created at site 1 (its cell lives
   with its entry); its link lives at site 0, so linking and removing the
   link change the count across sites, and removing the original name
   updates root's entry count (root's cell is at site 0) across sites. *)
let cross_site_nlink () =
  let rig = mk_rig ~nsites:2 ~policy:Routekey.Name_hashing () in
  run_on rig.eng (fun () ->
      let orig = name_at rig "orig" 1 and alias = name_at rig "alias" 0 in
      let fh, _ = ok_or_fail "create" (create rig Fh.root orig) in
      check_int "cell at site 1" 1 fh.Fh.attr_site;
      let cross0 = cross_total rig in
      (match call rig (Nfs.Link (fh, Fh.root, alias)) with
      | Ok (Nfs.RLink a) -> check_int "link reply nlink 2" 2 a.Nfs.nlink
      | _ -> Alcotest.fail "link");
      check_int "nlink 2" 2 (getattr_nlink rig fh);
      let cross1 = cross_total rig in
      check_bool "link crossed sites" true (cross1 > cross0);
      (match call rig (Nfs.Remove (Fh.root, orig)) with
      | Ok Nfs.RRemove -> ()
      | _ -> Alcotest.fail "remove orig");
      check_int "nlink 1" 1 (getattr_nlink rig fh);
      let cross2 = cross_total rig in
      check_bool "remove of orig crossed sites" true (cross2 > cross1);
      let cells = cells_total rig in
      (match call rig (Nfs.Remove (Fh.root, alias)) with
      | Ok Nfs.RRemove -> ()
      | _ -> Alcotest.fail "remove alias");
      check_bool "remove of alias crossed sites" true (cross_total rig > cross2);
      expect_err "last link gone" Nfs.ERR_STALE
        (match call rig (Nfs.Getattr fh) with
        | Ok (Nfs.RGetattr a) -> Ok a
        | Error st -> Error st
        | _ -> Alcotest.fail "getattr reply");
      check_int "cell freed" (cells - 1) (cells_total rig))

let peer_call rig ~site msg =
  let xid = Rpc.fresh_xid rig.rpc in
  let reply = Rpc.call rig.rpc ~dst:rig.addrs.(site) ~dport:Peer.port (Peer.encode_msg ~xid msg) in
  Peer.decode_reply reply

let root_entries rig =
  match call rig (Nfs.Getattr Fh.root) with
  | Ok (Nfs.RGetattr a) -> Int64.to_int a.Nfs.size / 24
  | _ -> Alcotest.fail "getattr root"

(* Recovery re-sends prepared updates, so a peer must apply each op id
   once: the second delivery of the same message changes nothing and
   answers as the first did. *)
let peer_redelivery_applies_once () =
  let rig = mk_rig ~nsites:2 ~policy:Routekey.Name_hashing () in
  run_on rig.eng (fun () ->
      let name = name_at rig "f" 1 in
      let fh, _ = ok_or_fail "create" (create rig Fh.root name) in
      let twice site msg =
        let r1 = peer_call rig ~site msg in
        (r1, peer_call rig ~site msg)
      in
      (match twice 1 (Peer.Nlink { op_id = 0x7000_0001L; fh; delta = 1 }) with
      | Peer.Rattr a1, Peer.Rattr a2 ->
          check_int "first reply" 2 a1.Nfs.nlink;
          check_int "second reply" 2 a2.Nfs.nlink
      | _ -> Alcotest.fail "nlink replies");
      check_int "nlink moved once" 2 (getattr_nlink rig fh);
      let entries = root_entries rig in
      (match
         twice 0 (Peer.Entry_count { op_id = 0x7000_0002L; dir = Fh.root; delta = 1; mtime = 5.0 })
       with
      | Peer.Ack, Peer.Ack -> ()
      | _ -> Alcotest.fail "entry-count replies");
      check_int "entry count moved once" (entries + 1) (root_entries rig);
      let added = name_at rig "added" 0 in
      let stored = Dirserver.entry_count rig.dirs.(0) in
      (match
         twice 0 (Peer.Add_entry { op_id = 0x7000_0003L; dir = Fh.root; name = added; child = fh })
       with
      | Peer.Ack, Peer.Ack -> ()
      | _, Peer.Rerr st -> Alcotest.failf "re-delivered add: %s" (Nfs.status_name st)
      | _ -> Alcotest.fail "add-entry replies");
      check_int "entry added once" (stored + 1) (Dirserver.entry_count rig.dirs.(0));
      check_int "parent counted once" (entries + 2) (root_entries rig);
      check_bool "entry installed" true
        (Dirserver.lookup_local rig.dirs.(0) ~parent:Fh.root added <> None))

let suite =
  suite
  @ [
      ("peer: cross-site link counts", `Quick, cross_site_nlink);
      ("peer: re-delivered updates apply once", `Quick, peer_redelivery_applies_once);
    ]

(* ---- one journal round per update ---- *)

(* Entries of directory [d] as its attributes count them. *)
let dir_count rig d =
  match call rig (Nfs.Getattr d) with
  | Ok (Nfs.RGetattr a) -> Int64.to_int a.Nfs.size / 24
  | _ -> Alcotest.fail "getattr"

(* Thirty renames from one directory into another over [nsites]
   name-hashed sites. A new entry that hashes to a site other than the
   old one's is installed there by [Peer.Add_entry], and the new parent
   must count it wherever the parent's cell lives; removing the thirty
   must bring the count back to zero. *)
let rename_across_sites_counts nsites () =
  let rig = mk_rig ~nsites () in
  run_on rig.eng (fun () ->
      let src, _ = ok_or_fail "mkdir" (mkdir rig Fh.root "src") in
      let dst, _ = ok_or_fail "mkdir" (mkdir rig Fh.root "dst") in
      let names = List.init 30 (Printf.sprintf "r%02d") in
      List.iter (fun n -> ignore (ok_or_fail n (create rig src n))) names;
      List.iter
        (fun n ->
          match call rig (Nfs.Rename (src, n, dst, n)) with
          | Ok Nfs.RRename -> ()
          | _ -> Alcotest.failf "rename %s" n)
        names;
      check_int "the new parent counts every entry" 30 (dir_count rig dst);
      check_int "the old parent counts none" 0 (dir_count rig src);
      check_names "the new parent lists every entry" names (listing rig dst);
      List.iter
        (fun n ->
          match call rig (Nfs.Remove (dst, n)) with
          | Ok Nfs.RRemove -> ()
          | _ -> Alcotest.failf "remove %s" n)
        names;
      check_int "the emptied parent counts none" 0 (dir_count rig dst))

(* Journal writes on every directory host's log disk. *)
let log_writes rig =
  Array.fold_left
    (fun n d -> n + Slice_disk.Disk.ops (Host.disk_exn (Dirserver.host d)))
    0 rig.dirs

(* Sequential updates, so no two share a group commit. A create or
   remove whose effects all live on one server takes one journal round
   there; a create whose parent's cell lives at the other site takes one
   round at each server: the entry goes out with the prepare, and the
   peer logs the count with its dedup row. *)
let one_round_per_update () =
  let writes rig f =
    let before = log_writes rig in
    f ();
    log_writes rig - before
  in
  let names = List.init 20 (Printf.sprintf "u%02d") in
  let rig = mk_rig ~nsites:1 () in
  run_on rig.eng (fun () ->
      Engine.sleep rig.eng 0.1;
      check_int "1 site: 20 creates" 20
        (writes rig (fun () ->
             List.iter (fun n -> ignore (ok_or_fail n (create rig Fh.root n))) names));
      check_int "1 site: 20 removes" 20
        (writes rig (fun () ->
             List.iter
               (fun n ->
                 match call rig (Nfs.Remove (Fh.root, n)) with
                 | Ok Nfs.RRemove -> ()
                 | _ -> Alcotest.failf "remove %s" n)
               names)));
  let rig = mk_rig ~nsites:2 () in
  let remote =
    List.length (List.filter (fun n -> site_of rig (Nfs.Create (Fh.root, n)) <> 0) names)
  in
  run_on rig.eng (fun () ->
      Engine.sleep rig.eng 0.1;
      check_bool "some parents counted across sites" true (remote > 0);
      check_int "2 sites: 20 creates" (20 + remote)
        (writes rig (fun () ->
             List.iter (fun n -> ignore (ok_or_fail n (create rig Fh.root n))) names)));
  (* one server owning both sites: a create whose entry and parent's cell
     sit on different sites journals to both, in one write *)
  let eng = Engine.create () in
  let net = Net.create eng () in
  let host = Host.create net ~name:"dir" ~disks:1 () in
  let d =
    Dirserver.attach host
      {
        Dirserver.logical_id = 0;
        nsites = 2;
        policy = Routekey.Name_hashing;
        resolve = (fun _ -> host.Host.addr);
        data_sites = (fun _ -> []);
        coordinator = (fun _ -> None);
        mirror_new_files = false;
        cap_secret = None;
        also_owns = [ 1 ];
      }
  in
  let rig = { rig with eng; net; dirs = [| d |]; addrs = [| host.Host.addr |]; rpc = Rpc.create net (Host.create net ~name:"client" ()).Host.addr ~port:1000 } in
  let on_site1 = List.filter (fun n -> Routekey.name_site ~nsites:2 Fh.root n = 1) names in
  run_on eng (fun () ->
      Engine.sleep eng 0.1;
      check_bool "some entries away from the parent's site" true (on_site1 <> []);
      check_int "1 server, 2 sites: 20 creates" 20
        (writes rig (fun () ->
             List.iter
               (fun n -> ignore (ok_or_fail n (create rig Fh.root n)))
               names));
      check_int "every entry counted" 20 (dir_count rig Fh.root))

(* Dir 0, which holds root's cell, crashes while its host's network stays
   up, so a create at site 1 gets no answer to the prepared entry-count
   update. The request ends without a reply and the run goes on; so does
   a recovery whose re-send times out. The prepare stays logged, and the
   re-send after dir 0 is back counts the entry. *)
let peer_timeout_ends_the_request () =
  let rig = mk_rig ~nsites:2 () in
  let name = name_at rig "late" 1 in
  run_on rig.eng (fun () ->
      Engine.sleep rig.eng 0.1;
      Dirserver.crash rig.dirs.(0);
      (match create rig Fh.root name with
      | exception Rpc.Timeout -> ()
      | _ -> Alcotest.fail "a create whose peer is down was answered");
      Engine.sleep rig.eng 30.0;
      Dirserver.crash rig.dirs.(1);
      Dirserver.recover rig.dirs.(1);
      Engine.sleep rig.eng 30.0;
      Dirserver.recover rig.dirs.(0);
      Dirserver.crash rig.dirs.(1);
      Dirserver.recover rig.dirs.(1);
      Engine.sleep rig.eng 1.0;
      ignore (ok_or_fail "lookup" (lookup rig Fh.root name));
      check_int "the re-sent update counts the entry" 1 (dir_count rig Fh.root))

let suite =
  suite
  @ [
      ("rename across sites counts the entry (2 sites)", `Quick, rename_across_sites_counts 2);
      ("rename across sites counts the entry (3 sites)", `Quick, rename_across_sites_counts 3);
      ("one log round per update", `Quick, one_round_per_update);
      ("a peer timeout ends the request, not the run", `Quick, peer_timeout_ends_the_request);
    ]

(* The re-send after recovery holds two prepares: one to dir 0, whose
   server is down with its network up, and one to dir 2, whose commit
   never reached the log (it rides a round that never came). The first
   times out; that ends neither the run nor the re-send of the second. *)
let resend_survives_a_timeout () =
  let rig = mk_rig ~nsites:3 () in
  let rec name_in d prefix site i =
    let n = prefix ^ string_of_int i in
    if site_of rig (Nfs.Create (d, n)) = site then n else name_in d prefix site (i + 1)
  in
  run_on rig.eng (fun () ->
      let d, _ = ok_or_fail "mkdir" (mkdir rig Fh.root (name_in Fh.root "d" 2 0)) in
      check_int "the directory's cell is at site 2" 2 d.Fh.attr_site;
      Dirserver.crash rig.dirs.(0);
      (match create rig Fh.root (name_in Fh.root "a" 1 0) with
      | exception Rpc.Timeout -> ()
      | _ -> Alcotest.fail "a create whose peer is down was answered");
      Engine.sleep rig.eng 30.0;
      ignore (ok_or_fail "create" (create rig d (name_in d "b" 1 0)));
      let served = Dirserver.peer_ops_served rig.dirs.(2) in
      Dirserver.crash rig.dirs.(1);
      Dirserver.recover rig.dirs.(1);
      Engine.sleep rig.eng 30.0;
      check_int "the live peer got its re-send" (served + 1)
        (Dirserver.peer_ops_served rig.dirs.(2)))

let suite = suite @ [ ("the re-send survives a peer timeout", `Quick, resend_survives_a_timeout) ]

(* An entry-count update whose site moves while the call is in flight
   lands at the site's new holder. Dir 2, which holds [d]'s cell (site
   2), is cut off when a create under [d] at site 1 sends the count
   there; site 2 then moves to dir 0, and the cut heals. The update's
   retransmission must reach dir 0, so [d] counts the entry its listing
   shows. *)
let count_follows_a_moved_site () =
  let rig = mk_rig ~nsites:3 () in
  let rec name_in d prefix site i =
    let n = prefix ^ string_of_int i in
    if site_of rig (Nfs.Create (d, n)) = site then n else name_in d prefix site (i + 1)
  in
  run_on rig.eng (fun () ->
      let d, _ = ok_or_fail "mkdir" (mkdir rig Fh.root (name_in Fh.root "d" 2 0)) in
      check_int "the directory's cell is at site 2" 2 d.Fh.attr_site;
      let created = ref None in
      Net.fault rig.net (Net.Partition [ rig.addrs.(2) ]);
      Engine.spawn rig.eng (fun () -> created := Some (create rig d (name_in d "n" 1 0)));
      Engine.sleep rig.eng 0.05;
      Dirserver.settle_site rig.dirs.(2) 2;
      adopt_site rig.dirs.(0) ~from:rig.dirs.(2) ~site:2;
      rig.addrs.(2) <- rig.addrs.(0);
      Slice_storage.Tenure.disown (Dirserver.tenure rig.dirs.(2)) 2;
      Dirserver.drop_site rig.dirs.(2) 2;
      Net.fault rig.net Net.Heal;
      Engine.sleep rig.eng 1.0;
      (match !created with
      | Some (Ok _) -> ()
      | Some (Error st) -> Alcotest.failf "create: %s" (Nfs.status_name st)
      | None -> Alcotest.fail "the create did not answer");
      check_int "the parent counts its listing" (List.length (listing rig d)) (dir_count rig d))

let suite = suite @ [ ("an entry count follows a moved site", `Quick, count_follows_a_moved_site) ]

(* One server owning two sites drains the one holding root's cell (site
   0), while a create at its other site (site 1) counts its entry there.
   No count may land on the draining site: the update waits, re-sent,
   until the site has moved to dir 2, which counts it. *)
let count_waits_for_a_draining_site () =
  let eng = Engine.create () in
  let net = Net.create eng () in
  let hosts = Array.init 2 (fun i -> Host.create net ~name:(Printf.sprintf "dir%d" i) ~disks:1 ()) in
  let addrs = [| hosts.(0).Host.addr; hosts.(0).Host.addr; hosts.(1).Host.addr |] in
  let attach logical_id also_owns =
    Dirserver.attach hosts.(if logical_id = 0 then 0 else 1)
      {
        Dirserver.logical_id;
        nsites = 3;
        policy = Routekey.Name_hashing;
        resolve = (fun l -> addrs.(l));
        data_sites = (fun _ -> []);
        coordinator = (fun _ -> None);
        mirror_new_files = false;
        cap_secret = None;
        also_owns;
      }
  in
  let dirs = [| attach 0 [ 1 ]; attach 2 [] |] in
  let client = Host.create net ~name:"client" () in
  let rig =
    { eng; net; dirs; addrs; rpc = Rpc.create net client.Host.addr ~port:1000; policy = Routekey.Name_hashing }
  in
  let name = name_at rig "n" 1 in
  let tenure = Dirserver.tenure dirs.(0) in
  run_on eng (fun () ->
      Engine.sleep eng 0.1;
      let created = ref None in
      Slice_storage.Tenure.begin_drain tenure 0;
      Engine.spawn eng (fun () -> created := Some (create rig Fh.root name));
      Engine.sleep eng 0.05;
      check_int "no count on the draining site" 0 (dir_count rig Fh.root);
      check_bool "the create waits for the move" true (!created = None);
      Dirserver.settle_site dirs.(0) 0;
      adopt_site dirs.(1) ~from:dirs.(0) ~site:0;
      addrs.(0) <- addrs.(2);
      Slice_storage.Tenure.disown tenure 0;
      Dirserver.drop_site dirs.(0) 0;
      Engine.sleep eng 1.0;
      (match !created with
      | Some (Ok _) -> ()
      | Some (Error st) -> Alcotest.failf "create: %s" (Nfs.status_name st)
      | None -> Alcotest.fail "the create did not answer");
      check_int "the moved site counts the entry" 1 (dir_count rig Fh.root))

let suite =
  suite @ [ ("an entry count waits for a draining site", `Quick, count_waits_for_a_draining_site) ]
