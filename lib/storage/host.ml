type t = {
  net : Slice_net.Net.t;
  eng : Slice_sim.Engine.t;
  addr : Slice_net.Packet.addr;
  cpu : Slice_sim.Resource.t;
  cpu_scale : float;
  disk : Slice_disk.Disk.t option;
}

let create net ~name ?(cpu_scale = 1.0) ?(disks = 0) () =
  let eng = Slice_net.Net.engine net in
  let addr = Slice_net.Net.add_node net ~name in
  let disk =
    if disks > 0 then
      Some (Slice_disk.Disk.create eng ~arms:disks ~name ())
    else None
  in
  {
    net;
    eng;
    addr;
    cpu = Slice_sim.Resource.create eng ~name:(name ^ ".cpu") ();
    cpu_scale;
    disk;
  }

let cpu t cost = Slice_sim.Resource.use t.cpu (cost /. t.cpu_scale)
let cpu_async t cost = Slice_sim.Resource.reserve t.cpu (cost /. t.cpu_scale)

let disk_exn t =
  match t.disk with
  | Some d -> d
  | None -> invalid_arg "Host.disk_exn: diskless host"

let name t = Slice_net.Net.node_name t.net t.addr
