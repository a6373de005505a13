(** The MiniProc abstract machine: one single-threaded module instance.

    A machine owns its globals, heap and activation-record stack, and
    executes {!Resolve}d slot-indexed instructions one [step] at a time
    so an external scheduler (the software bus) can interleave modules,
    deliver messages and signals, and account for simulated time. Frames
    are flat arrays of mutable cells; the interpreter loop does no string
    hashing (the original hashtable engine survives as the test-only
    oracle, [test/oracle/ast_machine.ml]).

    Signals are delivered between instructions, as in the paper: a
    pending reconfiguration signal runs the installed handler procedure
    (which sets [mh_reconfig]) before the next instruction of the
    interrupted frame. *)

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
  io:Io_intf.t ->
  ?resolved:Resolve.program ->
  Dr_lang.Ast.program ->
  t
(** Build a machine for [program] (which must typecheck — call
    {!Dr_lang.Typecheck.check} first) and push a frame for [main].
    [status_attr] is what [mh_getstatus()] returns ("normal" by default,
    "clone" for a module started as a restoration). [resolved] lets
    callers share one compiled artifact across many machines (see
    {!Cache}); without it the program is lowered and resolved here. *)

val status : t -> status

val program : t -> Dr_lang.Ast.program

val step : t -> unit
(** Execute one instruction (or run a pending signal handler to
    completion first). No-op unless the status is [Ready]. The same
    loop as {!exec_budget} with a budget of one. *)

val run : ?max_steps:int -> t -> unit
(** Step until the machine stops being [Ready] or the budget runs out. *)

val exec_budget : t -> int -> int
(** [exec_budget t n] executes at most [n] instructions while [Ready]
    and returns the number actually executed — the bus's quantum loop,
    hoisted into the machine so the hot path avoids a per-instruction
    [step] call. Without a tracer it dispatches superinstructions
    ({!Resolve.fused}) whenever a whole run fits in the remaining
    budget; instruction counts, crash semantics and observable
    behaviour are those of one-at-a-time dispatch, which a tracer
    always gets. *)

val set_ready : t -> unit
(** Wake a [Sleeping]/[Blocked_*] machine (the scheduler decides when). *)

val deliver_signal : t -> unit
(** Mark the reconfiguration signal pending; handled before the next
    instruction if a handler is installed, ignored otherwise. *)

val force_crash : t -> string -> unit
(** Externally induced failure (fault injection: host crash, kill -9):
    the machine transitions to [Crashed reason] from any live status.
    No-op on a machine that already halted or crashed. *)

val retire : t -> unit
(** Drop the execution state of a machine that will never run again
    (its instance was removed): the stack, the heap blocks, the capture
    and restore buffers, and any parked point hook. Status, counters,
    stamps and globals stay readable. *)

val instr_count : t -> int
(** Total instructions executed (the virtual-time cost measure). *)

(** {2 Observability}

    Virtual-time stamps of the capture/restore lifecycle, read from the
    machine's [io_now]. Passive: nothing here affects execution. *)

val signal_handled_at : t -> float option
(** When the pending reconfiguration signal was consumed and its handler
    frame pushed. *)

val capture_started_at : t -> float option
(** When the first [mh_capture] of the current capture ran. *)

val restore_done_at : t -> float option
(** When the last restore record was consumed ([mh_restore] emptied the
    buffer). *)

val captures_taken : t -> int
(** Activation records captured over the machine's lifetime. *)

val restores_applied : t -> int
(** Restore records consumed by [mh_restore]. *)

val frames_rebuilt : t -> int
(** Frames pushed by the restore dispatch (calls made while the restore
    buffer was non-empty). *)

val stack_depth : t -> int

val read_global : t -> string -> Dr_state.Value.t option

val read_local : t -> string -> Dr_state.Value.t option
(** Read a variable of the top frame. *)

val heap_block : t -> int -> Dr_state.Image.heap_block option

val heap_size : t -> int

val feed_image : t -> Dr_state.Image.t -> unit
(** Deposit a state image for a blocked/future [mh_decode]. Heap blocks
    in the image are materialised into this machine's heap with fresh
    ids; record values are remapped. *)

val set_tracer : t -> (string -> int -> Ir.instr -> unit) option -> unit
(** Install a per-instruction hook [(proc, pc, instr)] called before each
    instruction executes — debugging support for [drc exec --trace]. *)

val pp_status : Format.formatter -> status -> unit

(** {2 Pre-copy hook}

    The controller can let a running instance serve on until its next
    reconfiguration point before freezing it: it parks a hook there
    ({!set_point_hook}) and signals from inside it. *)

val set_point_hook : t -> (unit -> unit) option -> unit
(** One-shot hook fired the next time execution reaches a
    reconfiguration-point gate (before the point's own logic runs);
    cleared before it is invoked. *)

(** {1 Support for the baseline systems (paper §4)} *)

val stack_procs : t -> string list
(** Procedure names on the activation-record stack, top first. Used by
    the procedure-level updater, which may only replace procedures that
    are not executing. *)

val clone : t -> io:Io_intf.t -> t
(** Machine-specific state capture: a deep copy of the entire runtime
    state (globals, frames with program counters, heap, buffers). This is
    the approach the paper's abstract format replaces — it only works
    between identical "machines". Cell aliasing from by-reference
    parameters is preserved. The clone runs over [io]. *)

val state_size : t -> int
(** Abstract byte size of the full machine state (globals + all frame
    cells + heap): the cost driver for checkpointing. *)

val replace_proc_code : t -> Ir.proc_code -> unit
(** Swap in a new implementation for one procedure; takes effect on the
    next call (active frames keep running the old code). This is the
    procedure-level update granularity of Frieder & Segal. *)
