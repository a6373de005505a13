(** Printer for configuration specifications; round-trips with
    {!Mil_parser}. *)

val pp_module : Format.formatter -> Spec.module_spec -> unit
val config_to_string : Spec.config -> string
