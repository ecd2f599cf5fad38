(** Uniform paper-vs-measured reporting for every reproduced exhibit. *)

type row = { label : string; paper : string; measured : string; note : string }

type t = {
  title : string;
  preamble : string list;  (** context lines printed before the rows *)
  rows : row list;
}

val row : ?note:string -> label:string -> paper:string -> measured:string -> unit -> row
val rowf : ?note:string -> label:string -> paper:float -> measured:float -> unit -> row
(** Numeric convenience; prints one decimal and the measured/paper ratio
    as the note when none is given. *)

val print : t -> unit
