(** Resolution pass: turns lowered {!Ir.proc_code} into slot-indexed
    executable form, so the {!Machine} interpreter loop does zero string
    hashing per instruction.

    Frame variables (by-value params, locals, temps) become indices into
    a frame's two slot arrays; a by-reference parameter becomes an index
    into the frame's references, each naming where its argument lives;
    globals become indices into the machine's global slots; call targets
    become procedure indices. Expressions are
    compiled once into closed {!rexpr} trees over those slots. The
    resolved instruction array is index-aligned with the source
    [Ir.proc_code], so program counters, jump targets, tracer output and
    golden traces are unchanged.

    Unresolvable names are represented, not rejected: they raise the
    usual "unbound variable" runtime error only if execution reaches
    them — identical to the lazy hashtable lookup they replace. *)

type slot =
  | Sframe of int       (** index into the frame's slot arrays *)
  | Sref of int
      (** by-reference parameter [k]: the caller's slot or the global
          its argument named, fixed when the frame is made *)
  | Sglobal of int      (** index into the machine's global slots *)
  | Sunbound of string  (** unresolvable: raises only when touched *)

type rexpr =
  | Rconst of Dr_state.Value.t
  | Rframe of int
  | Rref of int
  | Rglobal of int
  | Runbound of string
  | Rindex of rexpr * rexpr
  | Raddr of slot * rexpr
  | Rneg of rexpr
  | Rnot of rexpr
  | Rbinop of Dr_lang.Ast.binop * rexpr * rexpr
  | Rresidual_call of string
  | Rbuiltin of string * rexpr list

type rlvalue = Rlvar of slot | Rlindex of slot * rexpr

type rarg = Raexpr of rexpr | Ralv of rlvalue

type rcall_arg = {
  ca_expr : rexpr;        (** evaluated in the caller for by-value *)
  ca_slot : slot option;  (** the bare variable's slot, for by-ref *)
}

type rinstr =
  | Rassign of rlvalue * rexpr
  | Rcall of {
      target : int;  (** pre-resolved proc index; -1 = look up by name *)
      callee : string;
      args : rcall_arg array;
      ret_slot : slot option;
    }
  | Rreturn of rexpr option
  | Rjump of int
  | Rcjump of { cond : rexpr; if_false : int }
  | Rprint of rexpr list
  | Rsleep of rexpr
  | Rbuiltin_stmt of string * rarg list
  | Rskip
  | Rpoint_gate of rinstr
      (** the gate opening an instrumented reconfiguration point's
          capture block ("_Pj" label): executes exactly like the wrapped
          instruction, but the machine can park a one-shot hook here
          (pre-copy's freeze) that fires when control reaches the
          point *)

(** Superinstructions: maximal straight-line runs (up to eight
    instructions) pre-joined at resolve time so the
    dispatch loop pays one match for the whole run. Advisory and
    index-aligned with [rp_instrs]: jump targets landing mid-run execute
    the member unfused, and observable behaviour (instruction counts,
    traces, crash points) is unchanged. *)
type fmember =
  | Mskip
  | Massign of slot * rexpr
      (** [Rassign (Rlvar _, _)] destructured at fuse time *)
  | Massign_index of slot * rexpr * rexpr  (** [slot.[idx] <- e] *)
(** Run members: fall-through instructions pre-destructured so the
    machine executes them with a three-way match and a deferred pc
    update, bypassing the full instruction dispatch. *)

type fused =
  | Frun of { body : fmember array; tail : rinstr option }
      (** a straight-line run of members, optionally closed by a
          control transfer: exec all, one dispatch *)
  | Fcjump_run of {
      cond : rexpr;
      if_false : int;
      body : fmember array;
      tail : rinstr option;
    }
      (** compare+branch heading a run: false → branch (1 instr), true →
          fall through the members into the optional tail — a tight loop
          body becomes a single dispatch per iteration *)

val fused_length : fused -> int
(** Maximum instructions a fused run can execute (the true-path count
    for [Fcjump_run]); used for budget headroom checks. *)

type rproc = {
  rp_source : Ir.proc_code;  (** index-aligned with [rp_instrs] *)
  rp_params : (int * Dr_lang.Ast.param) array;
      (** per formal: its [Sframe] index if by value, its [Sref] index if
          by reference *)
  rp_defaults : Dr_state.Value.t array;  (** initial value per [Sframe] slot *)
  rp_nrefs : int;  (** by-reference parameters, [Sref 0 .. rp_nrefs - 1] *)
  rp_slot_index : (string, slot) Hashtbl.t;
      (** a frame variable's slot by name ([Sframe] or [Sref]) *)
  rp_instrs : rinstr array;
  rp_fused : fused option array;  (** index-aligned with [rp_instrs] *)
}

type program = {
  rg_source : Dr_lang.Ast.program;
  rg_code : (string, Ir.proc_code) Hashtbl.t;
  rg_procs : rproc array;
  rg_proc_index : (string, int) Hashtbl.t;
  rg_globals : (string * Dr_lang.Ast.ty) array;
  rg_global_index : (string, int) Hashtbl.t;
  rg_global_inits : rexpr option array;
}

val resolve_program :
  Dr_lang.Ast.program -> (string, Ir.proc_code) Hashtbl.t -> program
(** Resolve a whole lowered program. Global initialiser [k] only sees
    globals declared before it (later references stay unbound), matching
    the declaration-order evaluation of the unresolved engine. *)

val resolve_proc :
  global_index:(string, int) Hashtbl.t ->
  proc_index:(string, int) Hashtbl.t ->
  Ir.proc_code ->
  rproc
(** Resolve one procedure against an existing global/procedure index —
    used by {!Machine.replace_proc_code} to compile hot-swapped code.
    Calls to names absent from [proc_index] fall back to by-name lookup
    at call time. *)

val scratch_proc : rproc
(** Empty procedure backing the scratch frame for global initialisers. *)
