let used x = x + 1
let dead x = x - 1
let self_only x = x * 2
let test_only x = self_only x
let kept x = x
let used_too x = x

module Inner = struct
  let deep = 3
end
