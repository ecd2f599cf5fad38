(* F1 fixture: fenced-module entry points. Wal.append is the protected
   mutation; wedged is the guard. Positions and messages are pinned by
   golden/f1.json. *)

module Wal = struct
  let append log payload = log := payload :: !log
end

type t = { mutable lease_until : float; mutable bounces : int; log : int list ref }

let wedged t = t.lease_until < 1.0

(* internal helper: appends unguarded — unsafe, but not exported, so the
   finding lands on its exported callers instead *)
let log_raw t payload = Wal.append t.log payload

(* positive: exported, direct unguarded append *)
let mutate t payload = Wal.append t.log payload

(* positive: exported, reaches the append through the helper *)
let mutate_via_helper t payload = log_raw t payload

(* positive: the guard runs only after the mutation *)
let guard_too_late t payload =
  Wal.append t.log payload;
  if wedged t then t.bounces <- t.bounces + 1

(* clean: the wedge check dominates the append *)
let handle t payload =
  if wedged t then t.bounces <- t.bounces + 1
  else log_raw t payload

(* suppressed: recovery replay *)
(* lint: F1 ok — recovery replay runs before the server answers requests *)
let recover t payload = log_raw t payload

(* suppressed: crash simulation *)
(* lint: F1 ok — crash simulation models the disk, not client dispatch *)
let crash t payload = Wal.append t.log payload

(* The in-place entry point is protected too (names resolve by their
   last two components, so the nesting does not hide it). *)
module In_place = struct
  module Wal = struct
    let append_with log write v = log := write v :: !log
  end
end

(* positive: exported, direct unguarded in-place append *)
let mutate_in_place t v = In_place.Wal.append_with t.log succ v
