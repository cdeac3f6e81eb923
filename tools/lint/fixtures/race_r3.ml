(* R3 trigger: polymorphic (=) on floats inside lib/core. *)
let f x = x = 0.
