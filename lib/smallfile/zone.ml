module Engine = Slice_sim.Engine
module Fiber = Slice_sim.Fiber
module Rpc = Slice_net.Rpc
module Nfs = Slice_nfs.Nfs
module Fh = Slice_nfs.Fh
module Codec = Slice_nfs.Codec
module Routekey = Slice_nfs.Routekey
module Ctrl = Slice_storage.Ctrl
module Bcache = Slice_disk.Bcache
module Trace = Slice_trace.Trace

let bs = Bcache.block_size

(* Zone handles for a dataless small-file server's backing objects: one
   per (server, cache-object) pair, striped across the storage array. *)
let zone_fh ?cap_secret ~sf_idx obj =
  let fh =
    {
      Fh.file_id = Int64.add 900_000_000_000L (Int64.of_int ((sf_idx * 16) + Int64.to_int obj));
      gen = 1;
      ftype = Fh.Reg;
      mirrored = false;
      attr_site = 0;
      cap = 0L;
    }
  in
  match cap_secret with Some secret -> Slice_nfs.Cap.seal ~secret fh | None -> fh

(* A run of [remaining] blocks from [blk] is split on stripe-chunk
   boundaries, so each request lands whole on one storage node. The
   chunk starting at [blk] holds this many blocks: *)
let chunk_blocks ~stripe_unit blk remaining =
  let within = blk * bs mod stripe_unit in
  min remaining (max 1 ((stripe_unit - within) / bs))

let rec chunk_count ~stripe_unit blk remaining =
  if remaining <= 0 then 0
  else
    let n = chunk_blocks ~stripe_unit blk remaining in
    1 + chunk_count ~stripe_unit (blk + n) (remaining - n)

(* First block of chunk [j] of the run. *)
let rec chunk_start ~stripe_unit blk remaining j =
  if j = 0 then blk
  else
    let n = chunk_blocks ~stripe_unit blk remaining in
    chunk_start ~stripe_unit (blk + n) (remaining - n) (j - 1)

let backend eng rpc ~nsites ~resolve ~coordinator ?cap_secret ~sf_idx ~stripe_unit () =
  (* The cache has two objects, the map array (1) and the data zone (2),
     each striped from its own primary site. *)
  let map_fh = zone_fh ?cap_secret ~sf_idx 1L in
  let data_fh = zone_fh ?cap_secret ~sf_idx 2L in
  let map_site = Routekey.file_site ~nsites map_fh in
  let data_site = Routekey.file_site ~nsites data_fh in
  let coord = Ctrl.holder coordinator in
  (* The chunk at byte [off] goes to its stripe site's holder, at the
     wire offset that names the site. A storage node bounces a chunk
     whose site it is draining, or every chunk while a takeover has
     fenced it, and the chunk goes again to the site's holder. *)
  let send ~write ~obj off len =
    let map = Int64.equal obj 1L in
    let fh = if map then map_fh else data_fh in
    let primary = if map then map_site else data_site in
    let site = (primary + Routekey.chunk_of_offset_int ~stripe_unit off) mod nsites in
    let woff =
      Int64.of_int
        (Routekey.site_offset_int ~site (Routekey.local_offset_int ~nsites ~stripe_unit off))
    in
    let call =
      if write then Nfs.Write (fh, woff, Nfs.Unstable, Nfs.Synthetic len) else Nfs.Read (fh, woff, len)
    in
    let xid = Rpc.fresh_xid rpc in
    ignore
      (Rpc.call_role rpc ~span:Trace.null ~timeout:2.0 ~holder:resolve ~site ~dst:(resolve site) ~dport:2049
         ~refused:Codec.misdirected ~extra_size:(Codec.extra_size_of_call call)
         (Codec.encode_call ~xid call))
  in
  (* One fiber per chunk, spawned last chunk first; each draws its xid
     when it starts. *)
  let chunked_io ~write ~obj ~block ~count =
    let n = chunk_count ~stripe_unit block count in
    Fiber.fan_out eng n (fun i ->
        let first = chunk_start ~stripe_unit block count (n - 1 - i) in
        let len = chunk_blocks ~stripe_unit first (block + count - first) * bs in
        send ~write ~obj (first * bs) len)
  in
  (* A zone commit goes straight to the coordinator, which commits the
     object on every node that holds its stripes. *)
  let commit fh =
    if Option.is_some (coordinator ()) then begin
      let sites = Array.of_list (List.sort_uniq Int.compare (List.init nsites resolve)) in
      ignore (Ctrl.call rpc ~span:Trace.null ~holder:coord (Ctrl.Commit_file { fh; sites }))
    end
  in
  {
    Bcache.demand_read =
      (fun ~obj ~block ~count ~sequential:_ -> chunked_io ~write:false ~obj ~block ~count);
    readahead =
      (fun ~obj ~block ~count ->
        Engine.spawn eng (fun () -> chunked_io ~write:false ~obj ~block ~count));
    write_back =
      (fun ~obj ~block ~count ~done_ ->
        Engine.spawn eng (fun () ->
            chunked_io ~write:true ~obj ~block ~count;
            done_ ()));
    sync = (fun () -> Fiber.fan_out eng 2 (fun i -> commit (if i = 0 then map_fh else data_fh)));
  }
