module Engine = Slice_sim.Engine
module Fiber = Slice_sim.Fiber
module Rpc = Slice_net.Rpc
module Nfs = Slice_nfs.Nfs
module Fh = Slice_nfs.Fh
module Codec = Slice_nfs.Codec
module Bcache = Slice_disk.Bcache

let bs = Bcache.block_size

(* Zone handles for a dataless small-file server's backing objects: one
   per (server, cache-object) pair, striped across the storage array by
   the manager host's own storage-only µproxy. *)
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

let backend eng rpc ~vaddr ?cap_secret ~sf_idx ~stripe_unit () =
  (* The cache has two objects, the map array (1) and the data zone (2). *)
  let map_fh = zone_fh ?cap_secret ~sf_idx 1L in
  let data_fh = zone_fh ?cap_secret ~sf_idx 2L in
  let fh_of obj =
    if Int64.equal obj 1L then map_fh
    else if Int64.equal obj 2L then data_fh
    else zone_fh ?cap_secret ~sf_idx obj
  in
  let call call =
    let xid = Rpc.fresh_xid rpc in
    let payload = Codec.encode_call ~xid call in
    ignore (Rpc.call rpc ~timeout:2.0 ~dst:vaddr ~dport:2049 ~extra_size:(Codec.extra_size_of_call call) payload)
  in
  (* One fiber per chunk, spawned last chunk first; each draws its xid
     when it starts. *)
  let chunked_io ~write ~obj ~block ~count =
    let fh = fh_of obj in
    let n = chunk_count ~stripe_unit block count in
    Fiber.fan_out eng n (fun i ->
        let first = chunk_start ~stripe_unit block count (n - 1 - i) in
        let len = chunk_blocks ~stripe_unit first (block + count - first) * bs in
        let off = Int64.of_int (first * bs) in
        call
          (if write then Nfs.Write (fh, off, Nfs.Unstable, Nfs.Synthetic len)
           else Nfs.Read (fh, off, len)))
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
    sync =
      (fun () ->
        (* zone commit: the µproxy orchestrates commitment across the
           storage sites via the coordinator *)
        Fiber.fan_out eng 2 (fun i ->
            call (Nfs.Commit ((if i = 0 then map_fh else data_fh), 0L, 0))));
  }
