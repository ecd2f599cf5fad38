let name_site ~nsites parent name =
  Slice_hash.Md5.bucket (Fh.key parent ^ "\x00" ^ name) nsites

let file_site ~nsites fh = Slice_hash.Md5.bucket (Fh.key fh) nsites

let mirror_sites ~nsites fh =
  let r0 = file_site ~nsites fh in
  if nsites < 2 then (r0, r0)
  else (r0, (r0 + 1 + ((nsites - 1) / 2)) mod nsites)

(* ---- in-place variants: the same fingerprints computed over handle and
   name spans inside a packet buffer, plus plain-int offset arithmetic.
   These are the µproxy hot-path entry points; the site functions must
   agree bit-for-bit with their materializing twins above
   (test-enforced), since servers detect misdirection with the string
   versions. *)

let file_site_at ~nsites buf ~off =
  Slice_hash.Md5.bucket_bytes buf ~pos:off ~len:Fh.wire_length nsites

(* The string key is [Fh.key parent ^ "\x00" ^ name]; build the same
   bytes in the caller's scratch buffer (the proxy sizes and grows it
   off the hot path) and bucket in place. *)
let name_site_at ~nsites ~scratch buf ~fh_off ~name_off ~name_len =
  Bytes.blit buf fh_off scratch 0 Fh.wire_length;
  Bytes.set scratch Fh.wire_length '\000';
  Bytes.blit buf name_off scratch (Fh.wire_length + 1) name_len;
  Slice_hash.Md5.bucket_bytes scratch ~pos:0 ~len:(Fh.wire_length + 1 + name_len) nsites

let chunk_of_offset_int ~stripe_unit off = off / stripe_unit

let stripe_site_at ~nsites ~stripe_unit buf ~off offset =
  let primary = file_site_at ~nsites buf ~off in
  (primary + chunk_of_offset_int ~stripe_unit offset) mod nsites

let local_offset_int ~nsites ~stripe_unit off =
  let chunk = off / stripe_unit in
  (chunk / nsites * stripe_unit) + (off mod stripe_unit)

(* Second replica site given the primary ([file_site_at]); returning it
   separately keeps the hot path free of the pair allocation in
   [mirror_sites]. *)
let mirror_partner ~nsites r0 =
  if nsites < 2 then r0 else (r0 + 1 + ((nsites - 1) / 2)) mod nsites

(* Logical sites can outnumber storage nodes, and reconfiguration may
   bind several sites to one node.  The wire offset therefore carries the
   logical site in its high bits: the node decodes it to keep each site's
   subobject separate (so co-located or migrating sites never collide in
   one object's offset space) while the low bits stay the dense node-local
   sequence the prefetcher wants. site·2^40 + local fits a 63-bit int for
   any plausible site count, so the codec is plain int arithmetic. *)
let site_stride_int = 1 lsl 40 (* far above any object size *)
let site_offset_int ~site local = (site * site_stride_int) + local
let offset_site_int off = off / site_stride_int
let offset_local_int off = off mod site_stride_int
