(* Doubly-linked list threaded through a hashtable: O(1) find/add/evict.
   Nodes link through an inline-record variant with a [Nil] end marker
   rather than [node option], so relinking an entry on a hit allocates
   nothing. *)

type ('k, 'v) node =
  | Nil
  | Node of {
      key : 'k;
      value : 'v;
      weight : int;
      expires_at : float;
      mutable prev : ('k, 'v) node;
      mutable next : ('k, 'v) node;
    }

type ('k, 'v) t = {
  tbl : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node; (* most recently used *)
  mutable tail : ('k, 'v) node; (* least recently used *)
  mutable total : int;
  capacity : int;
  on_evict : 'k -> 'v -> unit;
}

type 'v ttl_lookup = Fresh of 'v | Stale | Miss

let create ?(on_evict = fun _ _ -> ()) ~capacity () =
  if capacity <= 0 then invalid_arg "Lru.create: capacity must be positive";
  (* lint: bounded — mirrors the intrusive list; add evicts down to capacity *)
  { tbl = Hashtbl.create 64; head = Nil; tail = Nil; total = 0; capacity; on_evict }

let unlink t = function
  | Nil -> ()
  | Node r ->
      (match r.prev with Node p -> p.next <- r.next | Nil -> t.head <- r.next);
      (match r.next with Node n -> n.prev <- r.prev | Nil -> t.tail <- r.prev);
      r.prev <- Nil;
      r.next <- Nil

let push_front t node =
  match node with
  | Nil -> ()
  | Node r ->
      r.next <- t.head;
      r.prev <- Nil;
      (match t.head with Node h -> h.prev <- node | Nil -> t.tail <- node);
      t.head <- node

let promote t node =
  unlink t node;
  push_front t node

let find t k =
  match Hashtbl.find t.tbl k with
  | Node r as node ->
      promote t node;
      Some r.value
  | Nil -> None
  | exception Not_found -> None

let mem t k = Hashtbl.mem t.tbl k

let remove_node t = function
  | Nil -> ()
  | Node r as node ->
      unlink t node;
      Hashtbl.remove t.tbl r.key;
      t.total <- t.total - r.weight

let find_ttl t k ~now =
  match Hashtbl.find t.tbl k with
  | Node r as node when r.expires_at <= now ->
      (* A lapsed lease is dead data, not displaced data: drop it without
         the eviction hook (which models write-back of live state). *)
      remove_node t node;
      Stale
  | Node r as node ->
      promote t node;
      Fresh r.value
  | Nil -> Miss
  | exception Not_found -> Miss

(* Evict from the LRU end until the weights fit. The entry just added
   goes last; reaching it means it alone outweighs the whole cache, and
   it leaves without the hook: it was never cached, so nothing was
   displaced. *)
let rec evict_until_fits t added =
  if t.total > t.capacity then
    match t.tail with
    | Nil -> ()
    | Node r as victim ->
        remove_node t victim;
        if victim != added then t.on_evict r.key r.value;
        evict_until_fits t added

let add t ?(weight = 1) ?(expires_at = infinity) k v =
  (* Replacing a live entry displaces its value just like pressure does:
     the eviction hook must see it (a dirty cached attribute silently
     replaced would otherwise lose its write-back). *)
  (match Hashtbl.find t.tbl k with
  | Node old as node ->
      remove_node t node;
      t.on_evict old.key old.value
  | Nil -> ()
  | exception Not_found -> ());
  let node = Node { key = k; value = v; weight; expires_at; prev = Nil; next = Nil } in
  Hashtbl.replace t.tbl k node;
  t.total <- t.total + weight;
  push_front t node;
  evict_until_fits t node

let remove t k =
  match Hashtbl.find t.tbl k with
  | node -> remove_node t node
  | exception Not_found -> ()

let size t = t.total
let entry_count t = Hashtbl.length t.tbl
let capacity t = t.capacity

let iter t f =
  let rec loop = function
    | Nil -> ()
    | Node r ->
        f r.key r.value;
        loop r.next
  in
  loop t.head

let clear t =
  Hashtbl.reset t.tbl;
  t.head <- Nil;
  t.tail <- Nil;
  t.total <- 0

let flush t =
  let entries = ref [] in
  iter t (fun k v -> entries := (k, v) :: !entries);
  clear t;
  List.iter (fun (k, v) -> t.on_evict k v) (List.rev !entries)
