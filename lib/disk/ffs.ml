(* Free list as a sorted association list of (offset, length). Partitions
   hold few live fragments in our workloads, so the O(n) list walk is not a
   bottleneck; correctness (coalescing, overlap detection) is what the
   tests lean on. *)

type t = { size : int64; mutable free : (int64 * int64) list; mutable free_total : int64 }

let create ~size =
  if Int64.compare size 0L <= 0 then invalid_arg "Ffs.create";
  { size; free = [ (0L, size) ]; free_total = size }

let alloc t ?(strategy = `First_fit) len =
  if len <= 0 then invalid_arg "Ffs.alloc";
  let len64 = Int64.of_int len in
  let candidate =
    match strategy with
    | `First_fit ->
        List.find_opt (fun (_, l) -> Int64.compare l len64 >= 0) t.free
    | `Best_fit ->
        List.fold_left
          (fun best (o, l) ->
            if Int64.compare l len64 < 0 then best
            else
              match best with
              | Some (_, bl) when Int64.compare bl l <= 0 -> best
              | _ -> Some (o, l))
          None t.free
  in
  match candidate with
  | None -> None
  | Some (off, flen) ->
      t.free <-
        List.concat_map
          (fun (o, l) ->
            if o = off then
              if Int64.compare l len64 = 0 then []
              else [ (Int64.add o len64, Int64.sub l len64) ]
            else [ (o, l) ])
          t.free;
      ignore flen;
      t.free_total <- Int64.sub t.free_total len64;
      Some off

let free t ~off ~len =
  if len <= 0 then invalid_arg "Ffs.free: bad length";
  let len64 = Int64.of_int len in
  let fin = Int64.add off len64 in
  if Int64.compare off 0L < 0 || Int64.compare fin t.size > 0 then
    invalid_arg "Ffs.free: out of range";
  List.iter
    (fun (o, l) ->
      let oe = Int64.add o l in
      if Int64.compare off oe < 0 && Int64.compare o fin < 0 then
        invalid_arg "Ffs.free: double free / overlap")
    t.free;
  (* Insert sorted, then coalesce neighbours. *)
  let rec insert = function
    | [] -> [ (off, len64) ]
    | (o, l) :: rest when Int64.compare off o < 0 -> (off, len64) :: (o, l) :: rest
    | e :: rest -> e :: insert rest
  in
  let rec coalesce = function
    | (o1, l1) :: (o2, l2) :: rest when Int64.add o1 l1 = o2 ->
        coalesce ((o1, Int64.add l1 l2) :: rest)
    | e :: rest -> e :: coalesce rest
    | [] -> []
  in
  t.free <- coalesce (insert t.free);
  t.free_total <- Int64.add t.free_total len64

let free_bytes t = t.free_total
let used_bytes t = Int64.sub t.size t.free_total
let fragment_count t = List.length t.free

let largest_free t =
  List.fold_left (fun acc (_, l) -> if Int64.compare l acc > 0 then l else acc) 0L t.free

let check_invariants t =
  let rec ok total = function
    | [] -> Some total
    | (o, l) :: rest ->
        if Int64.compare o 0L < 0 || Int64.compare l 0L <= 0 then None
        else if Int64.compare (Int64.add o l) t.size > 0 then None
        else begin
          match rest with
          | (o2, _) :: _ when Int64.compare (Int64.add o l) o2 >= 0 -> None
          | _ -> ok (Int64.add total l) rest
        end
  in
  match ok 0L t.free with Some total -> total = t.free_total | None -> false
