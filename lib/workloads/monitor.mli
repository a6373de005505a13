(** The Monitor example of the paper (§2, Figs. 1–5): a sensor producing
    temperature values, a display requesting averages, and a compute
    module averaging recursively — with its reconfiguration point inside
    the recursive procedure, so moving it exercises activation-record
    capture mid-recursion. *)

val mil : string
(** Configuration specification (Fig. 2 port). *)

val compute_source : string
(** Fig. 3 port: the original (uninstrumented) compute module. *)

val sources : (string * string) list
(** [(module name, source)] for {!Dynrecon.System.load}. *)

val hosts : Dr_bus.Bus.host list
(** Three hosts: hostA (x86_64), hostB (sparc32 — big-endian 32-bit),
    hostC (arm32). *)

val load : ?options:Dr_transform.Instrument.options -> unit -> Dynrecon.System.t
(** Load and prepare the monitor system.
    @raise Failure if loading fails (it must not). *)

val start :
  ?params:Dr_bus.Bus.params ->
  Dynrecon.System.t ->
  Dr_bus.Bus.t
(** Deploy application [monitor] on {!hosts}.
    @raise Failure if deployment fails. *)

val parse_displayed : string -> (int * float) option
(** Parse a display output line "avg(n) = v" into [(n, v)]. *)

val averages_plausible : n:int -> float list -> bool
(** Check that every reported average is the mean of [n] {e consecutive}
    integers from the sensor stream 1,2,3,…, and that successive
    averages consume strictly increasing stream segments — the
    correctness criterion that must survive a migration. *)
