(* Fixture: a helper partially applied over public data, point-free.
   Another call site passes the secret key as the helper's second
   argument, but the partial application does not supply that
   parameter: the closure's argument comes from the public list it is
   mapped over, so nothing secret reaches the printf.  This file must
   produce zero diagnostics. *)

let scale k x = k * x

let hidden sk = scale 2 sk

let show xs = Printf.printf "%d\n" (List.fold_left ( + ) 0 (List.map (scale 3) xs))
