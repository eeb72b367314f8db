type t = Finish_bottom_handler | Strict_cut

let default = Finish_bottom_handler
let defers = function Finish_bottom_handler -> true | Strict_cut -> false
