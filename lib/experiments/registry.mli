(** The experiment registry: id → runner. *)

val all : (string * (unit -> Common.result)) list
(** In order E1 … E11. *)

val find : string -> (unit -> Common.result) option
(** Case-insensitive lookup by id ("e4", "E4"). *)

val run_all : unit -> Common.result list
(** Run every experiment, printing each result as it completes. *)

val contains_mismatch : string -> bool
(** Whether a verdict reports a MISMATCH against the paper's claim. *)
