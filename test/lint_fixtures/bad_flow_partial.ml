(* Fixture: the same point-free partial application, mapped over the
   secret key: the higher-order call's own arguments carry the secret
   into its result, which a helper prints. *)

let shift k x = k + x

let emit v = Printf.printf "%d\n" v

let leak sk = emit (List.fold_left ( + ) 0 (List.map (shift 1) sk))
