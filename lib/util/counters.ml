type event = Round | Bytes_sent of int

type op =
  | Op_encrypt
  | Op_decrypt
  | Op_ct_add
  | Op_ct_mul
  | Op_mul_plain
  | Op_modswitch
  | Op_level_drop
  | Op_key_switch
  | Op_ntt_fwd
  | Op_ntt_inv
  | Op_slot_pack
  | Op_slot_unpack

let all_ops =
  [| Op_encrypt; Op_decrypt; Op_ct_add; Op_ct_mul; Op_mul_plain; Op_modswitch;
     Op_level_drop; Op_key_switch; Op_ntt_fwd; Op_ntt_inv; Op_slot_pack;
     Op_slot_unpack |]

let num_ops = Array.length all_ops

let op_index = function
  | Op_encrypt -> 0
  | Op_decrypt -> 1
  | Op_ct_add -> 2
  | Op_ct_mul -> 3
  | Op_mul_plain -> 4
  | Op_modswitch -> 5
  | Op_level_drop -> 6
  | Op_key_switch -> 7
  | Op_ntt_fwd -> 8
  | Op_ntt_inv -> 9
  | Op_slot_pack -> 10
  | Op_slot_unpack -> 11

let op_name = function
  | Op_encrypt -> "encrypt"
  | Op_decrypt -> "decrypt"
  | Op_ct_add -> "ct_add"
  | Op_ct_mul -> "ct_mul"
  | Op_mul_plain -> "mul_plain"
  | Op_modswitch -> "modswitch"
  | Op_level_drop -> "level_drop"
  | Op_key_switch -> "key_switch"
  | Op_ntt_fwd -> "ntt_fwd"
  | Op_ntt_inv -> "ntt_inv"
  | Op_slot_pack -> "slot_pack"
  | Op_slot_unpack -> "slot_unpack"

(* Level-less ops (slot pack/unpack, Paillier's) record at level 0.
   BGV ciphertext ops record at 1..max_level. *)
let max_level = 64

type t = {
  mutable round : int;
  mutable bytes : int;
  ledger : int array array;
      (* [ledger.(op_index op).(level)] — op-kind × BGV-level counts *)
}

let create () =
  { round = 0; bytes = 0; ledger = Array.make_matrix num_ops (max_level + 1) 0 }

let reset t =
  t.round <- 0;
  t.bytes <- 0;
  Array.iter (fun row -> Array.fill row 0 (Array.length row) 0) t.ledger

let record_n t e k =
  if k < 0 then invalid_arg "Counters.record_n: negative count";
  match e with
  | Round -> t.round <- t.round + k
  | Bytes_sent n -> t.bytes <- t.bytes + (n * k)

let record t e = record_n t e 1

let check_level level =
  if level < 0 || level > max_level then
    invalid_arg (Printf.sprintf "Counters.record_op: level %d out of range" level)

let record_op_n t op ~level k =
  if k < 0 then invalid_arg "Counters.record_op_n: negative count";
  check_level level;
  let row = t.ledger.(op_index op) in
  row.(level) <- row.(level) + k

let record_op t op ~level = record_op_n t op ~level 1
let op_count t op ~level = check_level level; t.ledger.(op_index op).(level)
let op_total t op = Array.fold_left ( + ) 0 t.ledger.(op_index op)
let ops_total t = Array.fold_left (fun s row -> Array.fold_left ( + ) s row) 0 t.ledger

let ledger_entries t =
  let acc = ref [] in
  for i = num_ops - 1 downto 0 do
    let row = t.ledger.(i) in
    for level = max_level downto 0 do
      if row.(level) <> 0 then acc := (all_ops.(i), level, row.(level)) :: !acc
    done
  done;
  !acc

(* The Table 1 classes are sums of ledger rows. *)
let encryptions t = op_total t Op_encrypt
let decryptions t = op_total t Op_decrypt
let hom_adds t = op_total t Op_ct_add
let hom_muls t = op_total t Op_ct_mul
let hom_mul_plains t = op_total t Op_mul_plain
let hom_modswitches t = op_total t Op_modswitch
let hom_relins t = op_total t Op_key_switch

let hom_total t =
  hom_adds t + hom_muls t + hom_mul_plains t + hom_modswitches t + hom_relins t

let rounds t = t.round
let bytes_sent t = t.bytes

let ledger_iter2 f a b =
  for i = 0 to num_ops - 1 do
    let ra = a.ledger.(i) and rb = b.ledger.(i) in
    for level = 0 to max_level do
      f ra rb level
    done
  done

let absorb ~into b =
  into.round <- into.round + b.round;
  into.bytes <- into.bytes + b.bytes;
  ledger_iter2 (fun ri rb level -> ri.(level) <- ri.(level) + rb.(level)) into b

let copy t =
  let c = { (create ()) with round = t.round; bytes = t.bytes } in
  ledger_iter2 (fun rc rt level -> rc.(level) <- rt.(level)) c t;
  c

let diff a b =
  let d = { (create ()) with round = a.round - b.round; bytes = a.bytes - b.bytes } in
  for i = 0 to num_ops - 1 do
    let rd = d.ledger.(i) and ra = a.ledger.(i) and rb = b.ledger.(i) in
    for level = 0 to max_level do
      rd.(level) <- ra.(level) - rb.(level)
    done
  done;
  d

let is_zero t =
  t.round = 0 && t.bytes = 0
  && Array.for_all (fun row -> Array.for_all (fun c -> c = 0) row) t.ledger

let to_list t =
  [ ("encryptions", encryptions t);
    ("decryptions", decryptions t);
    ("hom_adds", hom_adds t);
    ("hom_muls", hom_muls t);
    ("hom_mul_plains", hom_mul_plains t);
    ("hom_modswitches", hom_modswitches t);
    ("hom_relins", hom_relins t);
    ("rounds", t.round);
    ("bytes_sent", t.bytes) ]

let merge a b =
  let c = copy a in
  absorb ~into:c b;
  c

let equal_ledger a b =
  let ok = ref true in
  ledger_iter2 (fun ra rb level -> if ra.(level) <> rb.(level) then ok := false) a b;
  !ok

let pp ppf t =
  Format.fprintf ppf
    "@[<v>enc=%d dec=%d hom(add=%d mul=%d mulp=%d modsw=%d relin=%d total=%d)@ \
     rounds=%d bytes=%d"
    (encryptions t) (decryptions t) (hom_adds t) (hom_muls t) (hom_mul_plains t)
    (hom_modswitches t) (hom_relins t) (hom_total t) t.round t.bytes;
  (match ledger_entries t with
   | [] -> ()
   | entries ->
     Format.fprintf ppf "@ ledger(";
     List.iteri
       (fun i (op, level, count) ->
         if i > 0 then Format.fprintf ppf " ";
         Format.fprintf ppf "%s@@L%d=%d" (op_name op) level count)
       entries;
     Format.fprintf ppf ")");
  Format.fprintf ppf "@]"
