(* Resolution pass: [Ir.proc_code] -> slot-indexed executable form.

   Lowering leaves instructions holding raw [Ast.expr] trees, so the
   machine resolves every variable through a per-frame string hashtable
   on each access. This pass does all name resolution once, at compile
   time:

   - by-value params, locals and temps of a procedure collapse into
     one run of slot indices (param wins over a same-named local, first
     declaration wins — mirroring the hashtable population order of the
     unresolved engine), which the machine backs with two flat arrays
     per frame;
   - a by-reference param gets its own kind of slot, [Sref k]: the
     frame's k-th reference, which the call sets to where the argument
     lives (a caller's slot or a global), so no slot is shared between
     frames;
   - globals resolve to indices into the machine's global slots;
   - call and jump targets become integer indices;
   - every call-free expression becomes a closed [rexpr] tree over
     slots — zero string hashing in the interpreter loop.

   Names that do not resolve are NOT an error here: they become
   [Sunbound]/[Runbound] nodes that raise the engine's usual
   "unbound variable" error only if execution actually reaches them,
   exactly like the lazy hashtable lookup they replace.

   Each resolved instruction keeps its index in the source
   [Ir.proc_code] (the arrays are index-aligned), so tracers still see
   the original [Ir.instr] and golden traces are unaffected. *)

open Dr_lang
module Value = Dr_state.Value

type slot =
  | Sframe of int       (* index into the frame's slot arrays *)
  | Sref of int         (* by-reference param k: where its argument lives *)
  | Sglobal of int      (* index into the machine's global slots *)
  | Sunbound of string  (* unresolvable: raises only when touched *)

type rexpr =
  | Rconst of Value.t
  | Rframe of int
  | Rref of int
  | Rglobal of int
  | Runbound of string
  | Rindex of rexpr * rexpr
  | Raddr of slot * rexpr
  | Rneg of rexpr
  | Rnot of rexpr
  | Rbinop of Ast.binop * rexpr * rexpr
  | Rresidual_call of string  (* lowering removed all calls; guard *)
  | Rbuiltin of string * rexpr list

type rlvalue = Rlvar of slot | Rlindex of slot * rexpr

(* Statement-builtin arguments keep the Aexpr/Alv split so the runtime
   argument-shape checks (mh_read, mh_capture, ...) behave as before. *)
type rarg = Raexpr of rexpr | Ralv of rlvalue

type rcall_arg = {
  ca_expr : rexpr;          (* evaluated in the caller for by-value *)
  ca_slot : slot option;    (* the bare variable's slot, for by-ref *)
}

type rinstr =
  | Rassign of rlvalue * rexpr
  | Rcall of {
      target : int;  (* pre-resolved proc index; -1 = look up by name *)
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
      (* the conditional jump opening an instrumented reconfiguration
         point's capture block (the transform labels it "_Pj"): executes
         exactly like the wrapped instruction, but the machine can park a
         one-shot observation hook here (pre-copy's freeze) that
         fires when control reaches the point *)

(* Superinstructions: maximal straight-line runs pre-joined at resolve
   time so the dispatch loop pays one bounds-check + match for a whole
   run — up to [max_fused_run] instructions, typically an entire loop
   body (compare+branch, the load/store assigns, and the back jump or
   call). Run members are pre-destructured assigns/skips ([fmember]),
   which always fall through, so the machine executes them with a
   three-way match and a deferred pc update instead of the full
   instruction dispatch; a single control transfer (jump, conditional
   jump, call) may close the run as its [tail]. Blocking, returning,
   builtin and gated instructions never join one. The fused table is
   advisory and index-aligned with [rp_instrs]: jump targets landing
   mid-run execute from their own (shorter) entry, and tracers ignore
   the table entirely, so observable behaviour (counts, traces, crash
   points) is bit-identical. *)
type fmember =
  | Mskip
  | Massign of slot * rexpr  (* Rassign (Rlvar _, _) destructured *)
  | Massign_index of slot * rexpr * rexpr  (* slot.[idx] <- e *)

type fused =
  | Frun of { body : fmember array; tail : rinstr option }
      (* 1..max_fused_run-1 members, optionally closed by a transfer *)
  | Fcjump_run of {
      cond : rexpr;
      if_false : int;
      body : fmember array;
      tail : rinstr option;
    }
      (* compare+branch heading a run: false -> branch (1 instr), true
         -> fall through the members into the optional tail *)

let max_fused_run = 8

let tail_length = function
  | Some _ -> 1
  | None -> 0

let fused_length = function
  | Frun { body; tail } -> Array.length body + tail_length tail
  | Fcjump_run { body; tail; _ } -> 1 + Array.length body + tail_length tail

type rproc = {
  rp_source : Ir.proc_code;  (* index-aligned with rp_instrs *)
  rp_params : (int * Ast.param) array;  (* Sframe or Sref index per formal *)
  rp_defaults : Value.t array;  (* initial value per Sframe slot (immutable) *)
  rp_nrefs : int;  (* by-reference params *)
  rp_slot_index : (string, slot) Hashtbl.t;  (* introspection only *)
  rp_instrs : rinstr array;
  rp_fused : fused option array;  (* index-aligned with rp_instrs *)
}

type program = {
  rg_source : Ast.program;
  rg_code : (string, Ir.proc_code) Hashtbl.t;  (* the lowered table *)
  rg_procs : rproc array;
  rg_proc_index : (string, int) Hashtbl.t;
  rg_globals : (string * Ast.ty) array;
  rg_global_index : (string, int) Hashtbl.t;
  rg_global_inits : rexpr option array;
}

type env = {
  frame_index : (string, slot) Hashtbl.t;
  global_index : (string, int) Hashtbl.t;
  (* Globals at index >= cutoff are unbound: initialiser k only sees
     globals declared before it, like the incrementally-populated
     global table of the unresolved engine. *)
  global_cutoff : int;
  proc_index : (string, int) Hashtbl.t;
}

let slot_of env name =
  match Hashtbl.find_opt env.frame_index name with
  | Some slot -> slot
  | None -> (
    match Hashtbl.find_opt env.global_index name with
    | Some i when i < env.global_cutoff -> Sglobal i
    | Some _ | None -> Sunbound name)

let rec resolve_expr env (e : Ast.expr) : rexpr =
  match e with
  | Int i -> Rconst (Vint i)
  | Float f -> Rconst (Vfloat f)
  | Bool b -> Rconst (Vbool b)
  | Str s -> Rconst (Vstr s)
  | Null -> Rconst Vnull
  | Var name -> (
    match slot_of env name with
    | Sframe i -> Rframe i
    | Sref k -> Rref k
    | Sglobal i -> Rglobal i
    | Sunbound name -> Runbound name)
  | Index (base, idx) -> Rindex (resolve_expr env base, resolve_expr env idx)
  | Addr (name, idx) -> Raddr (slot_of env name, resolve_expr env idx)
  | Unop (Neg, e) -> Rneg (resolve_expr env e)
  | Unop (Not, e) -> Rnot (resolve_expr env e)
  | Binop (op, a, b) -> Rbinop (op, resolve_expr env a, resolve_expr env b)
  | Call (name, _) -> Rresidual_call name
  | Builtin (name, args) -> Rbuiltin (name, List.map (resolve_expr env) args)

let resolve_lvalue env (lv : Ast.lvalue) : rlvalue =
  match lv with
  | Lvar name -> Rlvar (slot_of env name)
  | Lindex (name, idx) -> Rlindex (slot_of env name, resolve_expr env idx)

let resolve_arg env (a : Ast.arg) : rarg =
  match a with
  | Aexpr e -> Raexpr (resolve_expr env e)
  | Alv lv -> Ralv (resolve_lvalue env lv)

let resolve_call_arg env (e : Ast.expr) : rcall_arg =
  { ca_expr = resolve_expr env e;
    ca_slot = (match e with Ast.Var name -> Some (slot_of env name) | _ -> None)
  }

let resolve_instr env (instr : Ir.instr) : rinstr =
  match instr with
  | Iassign (lv, e) -> Rassign (resolve_lvalue env lv, resolve_expr env e)
  | Icall { callee; args; ret_temp } ->
    let target =
      match Hashtbl.find_opt env.proc_index callee with
      | Some i -> i
      | None -> -1
    in
    Rcall
      { target;
        callee;
        args = Array.of_list (List.map (resolve_call_arg env) args);
        ret_slot = Option.map (fun temp -> slot_of env temp) ret_temp }
  | Ireturn e -> Rreturn (Option.map (resolve_expr env) e)
  | Ijump target -> Rjump target
  | Icjump { cond; if_false } ->
    Rcjump { cond = resolve_expr env cond; if_false }
  | Iprint es -> Rprint (List.map (resolve_expr env) es)
  | Isleep e -> Rsleep (resolve_expr env e)
  | Ibuiltin (name, args) ->
    Rbuiltin_stmt (name, List.map (resolve_arg env) args)
  | Iskip -> Rskip

(* "_P<j>" labels mark the transform's point-capture gates (see
   {!Dr_transform.Instrument}); lowering records a statement's label at
   the pc of its first emitted instruction, which for the gate's [If] is
   its conditional jump. *)
let is_point_label label =
  String.length label >= 2 && label.[0] = '_' && label.[1] = 'P'

let fuse_pairs (instrs : rinstr array) : fused option array =
  let n = Array.length instrs in
  (* middle members must fall through unconditionally; they are
     destructured here so the dispatch loop never re-matches them *)
  let member = function
    | Rskip -> Some Mskip
    | Rassign (Rlvar slot, e) -> Some (Massign (slot, e))
    | Rassign (Rlindex (slot, idx), e) -> Some (Massign_index (slot, idx, e))
    | _ -> None
  in
  (* a control transfer may only close a run: after it, the current
     frame (or pc) is no longer the one the run was fused against *)
  let is_tail = function
    | Rjump _ | Rcjump _ | Rcall _ -> true
    | _ -> false
  in
  (* collect up to [limit] instructions of straight line starting at
     [pc]: simple members, one optional closing control transfer
     (counted against the same limit) *)
  let run_from pc limit =
    let rec go acc pc len =
      if len >= limit || pc >= n then (List.rev acc, None)
      else
        match member instrs.(pc) with
        | Some m -> go (m :: acc) (pc + 1) (len + 1)
        | None ->
          if is_tail instrs.(pc) then (List.rev acc, Some instrs.(pc))
          else (List.rev acc, None)
    in
    go [] pc 0
  in
  Array.init n (fun pc ->
      match member instrs.(pc) with
      | Some lead -> (
        match run_from (pc + 1) (max_fused_run - 1) with
        | [], None -> None  (* nothing joined: stay unfused *)
        | body, tail -> Some (Frun { body = Array.of_list (lead :: body); tail }))
      | None -> (
        match instrs.(pc) with
        | Rcjump { cond; if_false } -> (
          match run_from (pc + 1) (max_fused_run - 1) with
          | [], None -> None
          | body, tail ->
            Some (Fcjump_run { cond; if_false; body = Array.of_list body; tail }))
        | _ -> None))

let resolve_proc ~global_index ~proc_index (code : Ir.proc_code) : rproc =
  let frame_index = Hashtbl.create 16 in
  let defaults_rev = ref [] in
  let nslots = ref 0 in
  let nrefs = ref 0 in
  let new_slot default =
    defaults_rev := default :: !defaults_rev;
    incr nslots;
    !nslots - 1
  in
  let name_slot name slot =
    if not (Hashtbl.mem frame_index name) then Hashtbl.add frame_index name slot
  in
  let add name default =
    if not (Hashtbl.mem frame_index name) then
      name_slot name (Sframe (new_slot default))
  in
  (* every formal has storage of its own; a name declared twice (which
     the typechecker refuses) names its first declaration *)
  let params =
    List.map
      (fun (p : Ast.param) ->
        if p.pref then begin
          incr nrefs;
          name_slot p.pname (Sref (!nrefs - 1));
          (!nrefs - 1, p)
        end
        else begin
          let i = new_slot (Value.default_of_ty p.pty) in
          name_slot p.pname (Sframe i);
          (i, p)
        end)
      code.pc_params
  in
  List.iter
    (fun (name, ty) -> add name (Value.default_of_ty ty))
    code.pc_locals;
  List.iter (fun name -> add name (Value.Vint 0)) code.pc_temps;
  let env =
    { frame_index; global_index; global_cutoff = max_int; proc_index }
  in
  let rp_instrs = Array.map (resolve_instr env) code.pc_instrs in
  List.iter
    (fun (label, pc) ->
      if is_point_label label && pc >= 0 && pc < Array.length rp_instrs then
        rp_instrs.(pc) <- Rpoint_gate rp_instrs.(pc))
    code.pc_labels;
  { rp_source = code;
    rp_params = Array.of_list params;
    rp_defaults = Array.of_list (List.rev !defaults_rev);
    rp_nrefs = !nrefs;
    rp_slot_index = frame_index;
    rp_instrs;
    rp_fused = fuse_pairs rp_instrs }

let no_frame : (string, slot) Hashtbl.t = Hashtbl.create 1
let no_procs : (string, int) Hashtbl.t = Hashtbl.create 1

let resolve_program (prog : Ast.program) (code : (string, Ir.proc_code) Hashtbl.t)
    : program =
  let rg_globals =
    Array.of_list (List.map (fun (g : Ast.global) -> (g.gname, g.gty)) prog.globals)
  in
  let rg_global_index = Hashtbl.create 16 in
  Array.iteri (fun i (name, _) -> Hashtbl.replace rg_global_index name i) rg_globals;
  let codes =
    List.filter_map
      (fun (p : Ast.proc) -> Hashtbl.find_opt code p.proc_name)
      prog.procs
  in
  let rg_proc_index = Hashtbl.create 16 in
  List.iteri
    (fun i (c : Ir.proc_code) -> Hashtbl.replace rg_proc_index c.pc_name i)
    codes;
  let rg_procs =
    Array.of_list
      (List.map
         (resolve_proc ~global_index:rg_global_index ~proc_index:rg_proc_index)
         codes)
  in
  let rg_global_inits =
    Array.of_list
      (List.mapi
         (fun i (g : Ast.global) ->
           Option.map
             (resolve_expr
                { frame_index = no_frame;
                  global_index = rg_global_index;
                  global_cutoff = i;
                  proc_index = no_procs })
             g.ginit)
         prog.globals)
  in
  { rg_source = prog;
    rg_code = code;
    rg_procs;
    rg_proc_index;
    rg_globals;
    rg_global_index;
    rg_global_inits }

(* Empty procedure used for the scratch frame that evaluates global
   initialisers before main's frame exists. *)
let scratch_proc : rproc =
  { rp_source =
      { Ir.pc_name = "<globals>"; pc_params = []; pc_ret = None;
        pc_locals = []; pc_temps = []; pc_instrs = [||]; pc_labels = [] };
    rp_params = [||];
    rp_defaults = [||];
    rp_nrefs = 0;
    rp_slot_index = Hashtbl.create 1;
    rp_instrs = [||];
    rp_fused = [||] }
