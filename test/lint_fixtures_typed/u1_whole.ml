type t = int

let compare = Int.compare
let extra = 0
