type klass = Dir | Smallfile | Storage

type t =
  | Add_server of klass
  | Remove_server of klass * int
  | Rebalance
  | Takeover of klass * int * int

let klass_name = function
  | Dir -> "dir"
  | Smallfile -> "smallfile"
  | Storage -> "storage"

let klass_of_name = function
  | "dir" -> Some Dir
  | "smallfile" -> Some Smallfile
  | "storage" -> Some Storage
  | _ -> None
