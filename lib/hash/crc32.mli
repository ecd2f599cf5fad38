(** CRC-32 (IEEE 802.3 polynomial, the zlib variant). Guards write-ahead
    log records so recovery can detect torn tails after a crash. *)

val bytes : bytes -> pos:int -> len:int -> int32

val sum : bytes -> pos:int -> len:int -> int
(** The same checksum as {!bytes}, as an int in 0 .. 2^32 - 1: nothing
    is boxed, so a caller can stamp it into a buffer allocation-free. *)
