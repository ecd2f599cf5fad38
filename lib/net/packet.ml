type addr = int

type t = {
  mutable src : addr;
  mutable dst : addr;
  mutable sport : int;
  mutable dport : int;
  payload : bytes;
  mutable extra_size : int;
  mutable cksum : int;
}

let header_bytes = 74 (* 14 Ethernet + 20 IP + 8 UDP + 32 RPC record marks etc. *)

let wire_size t = header_bytes + Bytes.length t.payload + t.extra_size

(* make is completed by Cksum.seal, but Cksum depends on this module; we
   inline the checksum here to keep [make] self-contained. *)

let ones_add a b =
  let s = a + b in
  (s land 0xFFFF) + (s lsr 16)

let sum_payload payload =
  let n = Bytes.length payload in
  let acc = ref 0 in
  let i = ref 0 in
  while !i + 1 < n do
    acc := ones_add !acc ((Char.code (Bytes.get payload !i) lsl 8) lor Char.code (Bytes.get payload (!i + 1)));
    i := !i + 2
  done;
  if !i < n then acc := ones_add !acc (Char.code (Bytes.get payload !i) lsl 8);
  !acc

let add16 acc v = ones_add acc (v land 0xFFFF)

(* The pseudo-header words in order: src and dst as two 16-bit halves
   each, then the ports and the length. *)
let pseudo_sum ~src ~dst ~sport ~dport ~len =
  let acc = add16 (add16 (add16 (add16 0 (src lsr 16)) src) (dst lsr 16)) dst in
  add16 (add16 (add16 acc sport) dport) len

let compute_cksum ~src ~dst ~sport ~dport payload =
  let s =
    ones_add (sum_payload payload)
      (pseudo_sum ~src ~dst ~sport ~dport ~len:(Bytes.length payload))
  in
  lnot s land 0xFFFF

let make ~src ~dst ~sport ~dport ?(extra_size = 0) payload =
  {
    src;
    dst;
    sport;
    dport;
    payload;
    extra_size;
    cksum = compute_cksum ~src ~dst ~sport ~dport payload;
  }

let copy t =
  {
    src = t.src;
    dst = t.dst;
    sport = t.sport;
    dport = t.dport;
    payload = Bytes.copy t.payload;
    extra_size = t.extra_size;
    cksum = t.cksum;
  }
