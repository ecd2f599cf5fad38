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

type rig = {
  eng : Engine.t;
  net : Net.t;
  dirs : Dirserver.t array;
  addrs : Slice_net.Packet.addr array;
  rpc : Rpc.t;
  policy : Dirserver.policy;
}

let mk_rig ?(nsites = 2) ?(policy = Dirserver.Name_hashing) () =
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
            peer_port = 2051;
            data_sites = (fun _ -> []);
            smallfile_site = (fun _ -> None);
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
    | Dirserver.Mkdir_switching -> dfh.Fh.attr_site mod n
    | Dirserver.Name_hashing -> Routekey.name_site ~nsites:n dfh name
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
  let rig = mk_rig ~nsites:2 ~policy:Dirserver.Name_hashing () in
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
  let rig = mk_rig ~nsites:2 ~policy:Dirserver.Mkdir_switching () in
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
  let rig = mk_rig ~nsites:2 ~policy:Dirserver.Name_hashing () in
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
  let rig = mk_rig ~nsites:2 ~policy:Dirserver.Name_hashing () in
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
    ("mint counter survives recovery", `Quick, mint_counter_survives_recovery);
  ]

(* Failover (Section 2.3): replay a failed peer's journal into [d] and
   serve its logical site as well, as Reconfig.takeover does; the caller
   rebinds the routing table. *)
let adopt_site d ~site ~log =
  ignore (Dirserver.import_log d ~log);
  Slice_storage.Tenure.own (Dirserver.tenure d) site

let failover_adopt_site () =
  (* Section 2.3: a surviving server assumes a failed server's role,
     recovering its state from the shared journal. *)
  let rig = mk_rig ~nsites:2 ~policy:Dirserver.Name_hashing () in
  run_on rig.eng (fun () ->
      let names = List.init 16 (Printf.sprintf "file%02d") in
      List.iter (fun n -> ignore (ok_or_fail n (create rig Fh.root n))) names;
      (* names whose entries live on site 1 *)
      let on_site1 =
        List.filter (fun n -> site_of rig (Nfs.Lookup (Fh.root, n)) = 1) names
      in
      check_bool "some entries on site 1" true (on_site1 <> []);
      (* server 1 fails; its synced journal survives on shared storage *)
      let journal = Dirserver.log_image rig.dirs.(1) in
      Dirserver.crash rig.dirs.(1);
      (* server 0 adopts logical site 1 from the journal *)
      adopt_site rig.dirs.(0) ~site:1 ~log:journal;
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
      (* fold the adopted state into the survivor's own journal, then
         crash/recover the survivor: both sites come back *)
      Dirserver.checkpoint rig.dirs.(0);
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
        policy = Dirserver.Name_hashing;
        resolve = (fun l -> addrs.(binding.(l mod nlogical)));
        peer_port = 2051;
        data_sites = (fun _ -> []);
        smallfile_site = (fun _ -> None);
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
      adopt_site s2 ~site:7 ~log:(Dirserver.log_image s1);
      adopt_site s2 ~site:6 ~log:(Dirserver.log_image s0);
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
