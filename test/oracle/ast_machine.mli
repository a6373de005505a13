(** The original AST-walking MiniProc engine, kept as the semantic
    reference for the resolved engine in {!Dr_interp.Machine}.

    Hashtable-backed frames, raw [Ast.expr] evaluation. A test-only
    library: linked by the differential tests and the [bench -- interp]
    comparison, never by the library; production code (the bus,
    baselines, drc) runs {!Dr_interp.Machine}. The two engines must
    agree on every observable: prints, statuses, instruction counts,
    traces, error messages. *)

type status =
  | Ready
  | Sleeping of float   (** remaining duration requested by [sleep] *)
  | Blocked_read of string  (** waiting for a message on an interface *)
  | Blocked_decode      (** waiting for a state image ([mh_decode]) *)
  | Halted              (** main returned *)
  | Crashed of string   (** runtime error *)

type t

val create :
  ?status_attr:string ->
  io:Dr_interp.Io_intf.t ->
  ?code:(string, Dr_interp.Ir.proc_code) Hashtbl.t ->
  Dr_lang.Ast.program ->
  t
(** Build a machine for [program] (which must typecheck — call
    {!Dr_lang.Typecheck.check} first) and push a frame for [main].
    [status_attr] is what [mh_getstatus()] returns ("normal" by default,
    "clone" for a module started as a restoration). [code] lets callers
    share one lowered table across many machines. *)

val status : t -> status

val program : t -> Dr_lang.Ast.program

val step : t -> unit
(** Execute one instruction (or run a pending signal handler to
    completion first). No-op unless the status is [Ready]. *)

val run : ?max_steps:int -> t -> unit
(** Step until the machine stops being [Ready] or the budget runs out. *)

val set_ready : t -> unit
(** Wake a [Sleeping]/[Blocked_*] machine (the scheduler decides when). *)

val deliver_signal : t -> unit
(** Mark the reconfiguration signal pending; handled before the next
    instruction if a handler is installed, ignored otherwise. *)

val force_crash : t -> string -> unit
(** Externally induced failure (fault injection: host crash, kill -9):
    the machine transitions to [Crashed reason] from any live status.
    No-op on a machine that already halted or crashed. *)

val signal_handled : t -> bool
(** Has a signal handler been installed? *)

val instr_count : t -> int
(** Total instructions executed (the virtual-time cost measure). *)

val stack_depth : t -> int

val current_proc : t -> string option
(** Name of the procedure on top of the stack. *)

val read_global : t -> string -> Dr_state.Value.t option

val read_local : t -> string -> Dr_state.Value.t option
(** Read a variable of the top frame. *)

val heap_block : t -> int -> Dr_state.Image.heap_block option

val heap_size : t -> int

val divulged : t -> Dr_state.Image.t option
(** The last image passed to [mh_encode], if any (also handed to
    [Dr_interp.Io_intf.io_encode]). *)

val feed_image : t -> Dr_state.Image.t -> unit
(** Deposit a state image for a blocked/future [mh_decode]. Heap blocks
    in the image are materialised into this machine's heap with fresh
    ids; record values are remapped. *)

val set_tracer :
  t -> (string -> int -> Dr_interp.Ir.instr -> unit) option -> unit
(** Install a per-instruction hook [(proc, pc, instr)] called before each
    instruction executes — debugging support for [drc exec --trace]. *)

val pp_status : Format.formatter -> status -> unit

(** {1 Support for the baseline systems (paper §4)} *)

val stack_procs : t -> string list
(** Procedure names on the activation-record stack, top first. Used by
    the procedure-level updater, which may only replace procedures that
    are not executing. *)

val clone : t -> io:Dr_interp.Io_intf.t -> t
(** Machine-specific state capture: a deep copy of the entire runtime
    state (globals, frames with program counters, heap, buffers). This is
    the approach the paper's abstract format replaces — it only works
    between identical "machines". Cell aliasing from by-reference
    parameters is preserved. The clone gets fresh io callbacks. *)

val state_size : t -> int
(** Abstract byte size of the full machine state (globals + all frame
    cells + heap): the cost driver for checkpointing. *)

val replace_proc_code : t -> Dr_interp.Ir.proc_code -> unit
(** Swap in a new implementation for one procedure; takes effect on the
    next call (active frames keep running the old code). This is the
    procedure-level update granularity of Frieder & Segal. *)
