(** The repository's one JSON codec.

    Every artifact a run leaves behind — traces, flight dumps, [sknn
    cost] and [sknn plan] records, the calibration cache, bench results
    and SARIF — is written by {!to_string} and read back by
    {!of_string}.

    {b Printing} is compact (no whitespace) and deterministic: object
    fields print in list order.  Strings escape the double quote, the
    backslash and every byte below 0x20, and pass every other byte
    through unchanged.  An [Int] prints as an integer; a [Float] prints
    as the first of [%.15g], [%.16g] and [%.17g] that parses back to the
    same bits, with a [.0] suffix when that text would otherwise read as
    an integer, so a printed value always parses back to itself.

    {b Parsing} is strict RFC 8259: trailing commas, [nan]/[Infinity],
    a leading [+] or [0], raw control bytes in strings, unknown escapes,
    lone UTF-16 surrogates and trailing input are all errors.  A number
    without a fraction or exponent that fits an [int] parses to [Int];
    every other number parses to [Float] (one whose magnitude overflows
    a double is an error).  Bytes at or above 0x20 inside strings are
    taken as they are, so every string the printer writes reads back. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** @raise Invalid_argument on a NaN or infinite [Float], which JSON
    cannot hold. *)

val output_line : out_channel -> t -> unit
(** [output_line oc v] writes [to_string v] and a newline: one JSON
    Lines record. *)

val of_string : string -> (t, string) result
(** [Error] carries a message with the byte offset of the fault. *)

val member : string -> t -> t option
(** [member name v] is the first field called [name] when [v] is an
    object; [None] otherwise. *)

val number : t -> float option
(** An [Int] or a [Float] as a float; [None] for any other value. *)
