type t = {
  mutable names : string array; (* [0, len) sorted by String.compare *)
  mutable fhs : Fh.t array; (* fhs.(i) is bound to names.(i) *)
  mutable len : int;
  (* The last page built and the request it answers; valid while
     [cached], which every insert and delete clears. *)
  mutable cached : bool;
  mutable last : Nfs.reply;
  mutable last_start : int;
  mutable last_count : int;
}

let create () =
  {
    names = [||];
    fhs = [||];
    len = 0;
    cached = false;
    last = Nfs.RNull;
    last_start = 0;
    last_count = 0;
  }

(* The first slot whose name is not below [name]. *)
let slot t name =
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if String.compare t.names.(mid) name < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let present t i name = i < t.len && String.equal t.names.(i) name

let insert t name fh =
  t.cached <- false;
  let i = slot t name in
  if present t i name then t.fhs.(i) <- fh
  else begin
    if t.len = Array.length t.names then begin
      let cap = (2 * t.len) + 1 in
      let names = Array.make cap name and fhs = Array.make cap fh in
      Array.blit t.names 0 names 0 t.len;
      Array.blit t.fhs 0 fhs 0 t.len;
      t.names <- names;
      t.fhs <- fhs
    end;
    Array.blit t.names i t.names (i + 1) (t.len - i);
    Array.blit t.fhs i t.fhs (i + 1) (t.len - i);
    t.names.(i) <- name;
    t.fhs.(i) <- fh;
    t.len <- t.len + 1
  end

let delete t name =
  t.cached <- false;
  let i = slot t name in
  if present t i name then begin
    Array.blit t.names (i + 1) t.names i (t.len - i - 1);
    Array.blit t.fhs (i + 1) t.fhs i (t.len - i - 1);
    t.len <- t.len - 1;
    (* so the vacated slot keeps no removed entry alive *)
    t.names.(t.len) <- "";
    t.fhs.(t.len) <- Fh.root
  end

type index = (int64, t) Hashtbl.t

let add index dir name fh =
  match Hashtbl.find_opt index dir with
  | Some t -> insert t name fh
  | None ->
      let t = create () in
      insert t name fh;
      Hashtbl.replace index dir t

let remove index dir name =
  match Hashtbl.find_opt index dir with
  | Some t ->
      delete t name;
      if t.len = 0 then Hashtbl.remove index dir
  | None -> ()

let listing index dir = match Hashtbl.find_opt index dir with Some t -> t | None -> create ()

let find index dir name =
  match Hashtbl.find index dir with
  | t ->
      let i = slot t name in
      if present t i name then Some t.fhs.(i) else None
  | exception Not_found -> None

let mem index dir name =
  match Hashtbl.find index dir with
  | t -> present t (slot t name) name
  | exception Not_found -> false

let iter f index =
  Hashtbl.iter
    (fun dir t ->
      for i = 0 to t.len - 1 do
        f dir t.names.(i) t.fhs.(i)
      done)
    index

let entry t i pos =
  { Nfs.entry_id = t.fhs.(i).Fh.file_id; entry_name = t.names.(i); entry_cookie = Int64.of_int pos }

(* The entries at slots [lo, i], consed in front of [acc]. *)
let rec slice t i lo acc = if i < lo || i < 0 then acc else slice t (i - 1) lo (entry t i (i + 1) :: acc)

let build t ~start ~count =
  let hi = start + count in
  let next = min t.len hi in
  Nfs.RReaddir (slice t (next - 1) start [], Int64.of_int next, next >= t.len)

let page t ~start ~count =
  if t.cached && t.last_start = start && t.last_count = count then t.last
  else begin
    let r = build t ~start ~count in
    t.cached <- true;
    t.last <- r;
    t.last_start <- start;
    t.last_count <- count;
    r
  end
