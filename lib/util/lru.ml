(* Doubly-linked list threaded through a hashtable: O(1) find/add/evict.
   Nodes link through an inline-record variant with a [Nil] end marker
   rather than [node option], so relinking an entry on a hit allocates
   nothing. *)

type ('k, 'v) node =
  | Nil
  | Node of {
      key : 'k;
      value : 'v;
      expires_at : float;
      mutable prev : ('k, 'v) node;
      mutable next : ('k, 'v) node;
    }

type ('k, 'v) t = {
  tbl : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node; (* most recently used *)
  mutable tail : ('k, 'v) node; (* least recently used *)
  capacity : int;
  on_evict : 'k -> 'v -> unit;
}

type 'v ttl_lookup = Fresh of 'v | Stale | Miss

let create ?(on_evict = fun _ _ -> ()) ~capacity () =
  if capacity <= 0 then invalid_arg "Lru.create: capacity must be positive";
  (* lint: bounded — mirrors the intrusive list; add evicts down to capacity *)
  { tbl = Hashtbl.create 64; head = Nil; tail = Nil; capacity; on_evict }

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

let remove_node t = function
  | Nil -> ()
  | Node r as node ->
      unlink t node;
      Hashtbl.remove t.tbl r.key

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

let add t ?(expires_at = infinity) k v =
  (* Replacing a live entry displaces its value just like pressure does:
     the eviction hook must see it (a dirty cached attribute silently
     replaced would otherwise lose its write-back). *)
  (match Hashtbl.find t.tbl k with
  | Node old as node ->
      remove_node t node;
      t.on_evict old.key old.value
  | Nil -> ()
  | exception Not_found -> ());
  let node = Node { key = k; value = v; expires_at; prev = Nil; next = Nil } in
  Hashtbl.replace t.tbl k node;
  push_front t node;
  (* one entry over: the LRU tail goes, never the entry just added, since
     the capacity is at least 1 *)
  if Hashtbl.length t.tbl > t.capacity then
    match t.tail with
    | Nil -> ()
    | Node r as victim ->
        remove_node t victim;
        t.on_evict r.key r.value

let remove t k =
  match Hashtbl.find t.tbl k with
  | node -> remove_node t node
  | exception Not_found -> ()

let entry_count t = Hashtbl.length t.tbl

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
  t.tail <- Nil
