(** CRC-32 (IEEE 802.3 polynomial, the zlib variant). Guards write-ahead
    log records so recovery can detect torn tails after a crash. *)

val bytes : bytes -> pos:int -> len:int -> int32
