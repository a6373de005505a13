(* The original AST-walking execution engine, kept verbatim as the
   reference implementation: every variable access goes through a
   per-frame (string, Value.t ref) Hashtbl.t and expressions are raw
   [Ast.expr] trees. {!Machine} replaced it with resolved slot-indexed
   code; this engine remains the semantic oracle for the differential
   property tests (test_resolve.ml) and the comparison in
   [bench -- interp], the only two places that link this test-only
   library. Its observable behaviour — prints, traces, instruction
   counts, error messages — is the contract the resolved engine must
   match byte for byte. *)

open Dr_interp
open Dr_lang
module Value = Dr_state.Value
module Image = Dr_state.Image

exception Runtime_error of string

let runtime fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

type status =
  | Ready
  | Sleeping of float
  | Blocked_read of string
  | Blocked_decode
  | Halted
  | Crashed of string

let pp_status ppf = function
  | Ready -> Fmt.string ppf "ready"
  | Sleeping d -> Fmt.pf ppf "sleeping(%g)" d
  | Blocked_read iface -> Fmt.pf ppf "blocked-read(%s)" iface
  | Blocked_decode -> Fmt.string ppf "blocked-decode"
  | Halted -> Fmt.string ppf "halted"
  | Crashed message -> Fmt.pf ppf "crashed(%s)" message

type frame = {
  code : Ir.proc_code;
  cells : (string, Value.t ref) Hashtbl.t;
  mutable pc : int;
  ret_slot : Value.t ref option;  (* caller's temp awaiting the result *)
}

type t = {
  prog : Ast.program;
  code_table : (string, Ir.proc_code) Hashtbl.t;
  globals : (string, Value.t ref) Hashtbl.t;
  mutable stack : frame list;
  heap : (int, Image.heap_block) Hashtbl.t;
  mutable next_block : int;
  mutable mstatus : status;
  mutable pending_signal : bool;
  mutable handler : string option;
  mutable capture_records : Image.record list;  (* reverse capture order *)
  mutable restore_records : Image.record list;  (* capture order; pop from end *)
  mutable divulged_image : Image.t option;
  status_attr : string;
  io : Io_intf.t;
  mutable instrs_executed : int;
  mutable tracer : (string -> int -> Ir.instr -> unit) option;
}

let max_stack_depth = 4096

let status t = t.mstatus

let set_tracer t tracer = t.tracer <- tracer
let program t = t.prog
let instr_count t = t.instrs_executed
let stack_depth t = List.length t.stack
let divulged t = t.divulged_image
let signal_handled t = Option.is_some t.handler

let current_proc t =
  match t.stack with [] -> None | f :: _ -> Some f.code.pc_name

let set_ready t =
  match t.mstatus with
  | Sleeping _ | Blocked_read _ | Blocked_decode -> t.mstatus <- Ready
  | Ready | Halted | Crashed _ -> ()

let deliver_signal t = t.pending_signal <- true

let force_crash t reason =
  match t.mstatus with
  | Halted | Crashed _ -> ()
  | Ready | Sleeping _ | Blocked_read _ | Blocked_decode ->
    t.mstatus <- Crashed reason

let read_global t name =
  Option.map (fun cell -> !cell) (Hashtbl.find_opt t.globals name)

let read_local t name =
  match t.stack with
  | [] -> None
  | frame :: _ ->
    Option.map (fun cell -> !cell) (Hashtbl.find_opt frame.cells name)

let heap_block t id = Hashtbl.find_opt t.heap id

let heap_size t = Hashtbl.length t.heap

(* ------------------------------------------------------------- values *)

let lookup_cell t frame name =
  match Hashtbl.find_opt frame.cells name with
  | Some cell -> cell
  | None -> (
    match Hashtbl.find_opt t.globals name with
    | Some cell -> cell
    | None -> runtime "unbound variable %s" name)

let block_cells t id =
  match Hashtbl.find_opt t.heap id with
  | Some block -> block.cells
  | None -> runtime "dangling heap reference #%d" id

let heap_load t base index =
  match base with
  | Value.Varr id ->
    let cells = block_cells t id in
    if index < 0 || index >= Array.length cells then
      runtime "index %d out of bounds for block #%d of length %d" index id
        (Array.length cells);
    cells.(index)
  | Value.Vptr (id, off) ->
    let cells = block_cells t id in
    let i = off + index in
    if i < 0 || i >= Array.length cells then
      runtime "pointer access #%d+%d out of bounds (length %d)" id i
        (Array.length cells);
    cells.(i)
  | Value.Vnull -> runtime "null dereference"
  | v -> runtime "cannot index a %s" (Value.type_name v)

let heap_store t base index v =
  match base with
  | Value.Varr id ->
    let cells = block_cells t id in
    if index < 0 || index >= Array.length cells then
      runtime "index %d out of bounds for block #%d of length %d" index id
        (Array.length cells);
    cells.(index) <- v
  | Value.Vptr (id, off) ->
    let cells = block_cells t id in
    let i = off + index in
    if i < 0 || i >= Array.length cells then
      runtime "pointer store #%d+%d out of bounds (length %d)" id i
        (Array.length cells);
    cells.(i) <- v
  | Value.Vnull -> runtime "null dereference in store"
  | v -> runtime "cannot index a %s" (Value.type_name v)

let alloc_block t elem_ty n =
  if n < 0 then runtime "negative allocation size %d" n;
  let id = t.next_block in
  t.next_block <- id + 1;
  Hashtbl.replace t.heap id
    { Image.elem_ty; cells = Array.make n (Value.default_of_ty elem_ty) };
  Value.Varr id

(* Human-readable rendering used by print and str(): strings unquoted. *)
let display_value = function
  | Value.Vstr s -> s
  | v -> Value.to_string v

let as_int = function
  | Value.Vint i -> i
  | v -> runtime "expected an int, found %s" (Value.type_name v)

let as_bool = function
  | Value.Vbool b -> b
  | v -> runtime "expected a bool, found %s" (Value.type_name v)

let as_str = function
  | Value.Vstr s -> s
  | v -> runtime "expected a string, found %s" (Value.type_name v)

let rec eval t frame (e : Ast.expr) : Value.t =
  match e with
  | Int i -> Vint i
  | Float f -> Vfloat f
  | Bool b -> Vbool b
  | Str s -> Vstr s
  | Null -> Vnull
  | Var name -> !(lookup_cell t frame name)
  | Index (base, idx) ->
    let b = eval t frame base in
    let i = as_int (eval t frame idx) in
    heap_load t b i
  | Addr (name, idx) -> (
    let i = as_int (eval t frame idx) in
    match !(lookup_cell t frame name) with
    | Varr id -> Vptr (id, i)
    | Vptr (id, off) -> Vptr (id, off + i)
    | Vnull -> runtime "cannot take the address into null"
    | v -> runtime "cannot take an address into a %s" (Value.type_name v))
  | Unop (Neg, e) -> (
    match eval t frame e with
    | Vint i -> Vint (-i)
    | Vfloat f -> Vfloat (-.f)
    | v -> runtime "cannot negate a %s" (Value.type_name v))
  | Unop (Not, e) -> Vbool (not (as_bool (eval t frame e)))
  | Binop (op, a, b) -> eval_binop t frame op a b
  | Call (name, _) ->
    (* lowering removed all calls from expressions *)
    runtime "internal error: residual call to %s in expression" name
  | Builtin (name, args) -> eval_builtin t frame name args

and eval_binop t frame op a b =
  let va = eval t frame a in
  let vb = eval t frame b in
  let arith fi ff =
    match va, vb with
    | Value.Vint x, Value.Vint y -> Value.Vint (fi x y)
    | Value.Vfloat x, Value.Vfloat y -> Value.Vfloat (ff x y)
    | _ ->
      runtime "arithmetic on %s and %s" (Value.type_name va) (Value.type_name vb)
  in
  let compare_values () =
    match va, vb with
    | Value.Vint x, Value.Vint y -> compare x y
    | Value.Vfloat x, Value.Vfloat y -> Float.compare x y
    | Value.Vstr x, Value.Vstr y -> String.compare x y
    | _ ->
      runtime "cannot order %s and %s" (Value.type_name va) (Value.type_name vb)
  in
  match op with
  | Add -> (
    match va, vb with
    | Value.Vptr (id, off), Value.Vint n -> Value.Vptr (id, off + n)
    | _ -> arith ( + ) ( +. ))
  | Sub -> (
    match va, vb with
    | Value.Vptr (id, off), Value.Vint n -> Value.Vptr (id, off - n)
    | _ -> arith ( - ) ( -. ))
  | Mul -> arith ( * ) ( *. )
  | Div -> (
    match va, vb with
    | Value.Vint _, Value.Vint 0 -> runtime "division by zero"
    | _ -> arith ( / ) ( /. ))
  | Mod -> (
    match va, vb with
    | Value.Vint _, Value.Vint 0 -> runtime "modulo by zero"
    | Value.Vint x, Value.Vint y -> Value.Vint (x mod y)
    | _ -> runtime "'%%' expects ints")
  | Eq -> Vbool (Value.equal va vb)
  | Ne -> Vbool (not (Value.equal va vb))
  | Lt -> Vbool (compare_values () < 0)
  | Le -> Vbool (compare_values () <= 0)
  | Gt -> Vbool (compare_values () > 0)
  | Ge -> Vbool (compare_values () >= 0)
  | And -> Vbool (as_bool va && as_bool vb)
  | Or -> Vbool (as_bool va || as_bool vb)
  | Cat -> Vstr (as_str va ^ as_str vb)

and eval_builtin t frame name args =
  let arg i = List.nth args i in
  match name with
  | "mh_query" -> Vbool (t.io.io_query (as_str (eval t frame (arg 0))))
  | "mh_getstatus" -> Vstr t.status_attr
  | "len" -> (
    match eval t frame (arg 0) with
    | Varr id -> Vint (Array.length (block_cells t id))
    | v -> runtime "len of %s" (Value.type_name v))
  | "float" -> (
    match eval t frame (arg 0) with
    | Vint i -> Vfloat (float_of_int i)
    | v -> runtime "float() of %s" (Value.type_name v))
  | "int" -> (
    match eval t frame (arg 0) with
    | Vfloat f -> Vint (int_of_float f)
    | v -> runtime "int() of %s" (Value.type_name v))
  | "str" -> Vstr (display_value (eval t frame (arg 0)))
  | "alloc_int" -> alloc_block t Tint (as_int (eval t frame (arg 0)))
  | "alloc_float" -> alloc_block t Tfloat (as_int (eval t frame (arg 0)))
  | "alloc_bool" -> alloc_block t Tbool (as_int (eval t frame (arg 0)))
  | "alloc_str" -> alloc_block t Tstr (as_int (eval t frame (arg 0)))
  | "now" -> Vfloat (t.io.io_now ())
  | _ -> runtime "unknown builtin %s" name

(* ------------------------------------------------------------- frames *)

let find_code t name =
  match Hashtbl.find_opt t.code_table name with
  | Some code -> code
  | None -> runtime "call to unknown procedure %s" name

let make_frame t caller (code : Ir.proc_code) args ret_slot =
  let cells = Hashtbl.create 16 in
  if List.length args <> List.length code.pc_params then
    runtime "%s expects %d arguments, got %d" code.pc_name
      (List.length code.pc_params) (List.length args);
  List.iter2
    (fun (param : Ast.param) arg_expr ->
      if param.pref then begin
        match arg_expr, caller with
        | Ast.Var name, Some caller_frame ->
          (* share the caller's cell: writes propagate back *)
          Hashtbl.replace cells param.pname (lookup_cell t caller_frame name)
        | Ast.Var name, None ->
          Hashtbl.replace cells param.pname (lookup_cell t { code; cells; pc = 0; ret_slot = None } name)
        | _ -> runtime "%s: ref argument must be a variable" code.pc_name
      end
      else begin
        let v =
          match caller with
          | Some caller_frame -> eval t caller_frame arg_expr
          | None -> eval t { code; cells; pc = 0; ret_slot = None } arg_expr
        in
        Hashtbl.replace cells param.pname (ref v)
      end)
    code.pc_params args;
  List.iter
    (fun (name, ty) ->
      if not (Hashtbl.mem cells name) then
        Hashtbl.replace cells name (ref (Value.default_of_ty ty)))
    code.pc_locals;
  List.iter
    (fun name -> Hashtbl.replace cells name (ref (Value.Vint 0)))
    code.pc_temps;
  { code; cells; pc = 0; ret_slot }

let push_call t ~callee ~args ~ret_temp =
  (match t.stack with
  | [] -> runtime "call with no active frame"
  | frame :: _ ->
    if List.length t.stack >= max_stack_depth then
      runtime "stack overflow calling %s" callee;
    let code = find_code t callee in
    let ret_slot =
      match ret_temp with
      | None -> None
      | Some temp -> Some (lookup_cell t frame temp)
    in
    (* resume after the call instruction *)
    frame.pc <- frame.pc + 1;
    let new_frame = make_frame t (Some frame) code args ret_slot in
    t.stack <- new_frame :: t.stack)

let do_return t value =
  match t.stack with
  | [] -> runtime "return with no active frame"
  | frame :: rest -> (
    (match frame.ret_slot, value with
    | Some slot, Some v -> slot := v
    | Some _, None ->
      runtime "procedure %s fell through without returning a value"
        frame.code.pc_name
    | None, _ -> ());
    t.stack <- rest;
    match rest with [] -> t.mstatus <- Halted | _ -> ())

(* ----------------------------------------------------- state capture *)

let capture t frame args =
  match args with
  | Ast.Aexpr loc_expr :: rest ->
    let location = as_int (eval t frame loc_expr) in
    let values =
      List.map
        (function
          | Ast.Aexpr e -> eval t frame e
          | Ast.Alv _ -> runtime "mh_capture takes expressions")
        rest
    in
    t.capture_records <- { Image.location; values } :: t.capture_records
  | _ -> runtime "mh_capture: missing location"

let build_image t =
  let records = List.rev t.capture_records in
  let roots = List.concat_map (fun (r : Image.record) -> r.values) records in
  let heap =
    Image.gather_blocks ~lookup:(fun id -> Hashtbl.find_opt t.heap id) roots
  in
  Image.make ~source_module:t.prog.module_name ~records ~heap

(* Materialise an incoming image's heap into this machine, remapping
   symbolic block ids to fresh local ids (sharing preserved). *)
let feed_image t (image : Image.t) =
  let mapping = Hashtbl.create 16 in
  List.iter
    (fun (old_id, (block : Image.heap_block)) ->
      let id = t.next_block in
      t.next_block <- id + 1;
      Hashtbl.replace mapping old_id id;
      Hashtbl.replace t.heap id
        { Image.elem_ty = block.elem_ty; cells = Array.copy block.cells })
    image.heap;
  let remap_value v =
    match v with
    | Value.Varr id -> (
      match Hashtbl.find_opt mapping id with
      | Some id' -> Value.Varr id'
      | None -> Value.Vnull)
    | Value.Vptr (id, off) -> (
      match Hashtbl.find_opt mapping id with
      | Some id' -> Value.Vptr (id', off)
      | None -> Value.Vnull)
    | v -> v
  in
  List.iter
    (fun (_, new_id) ->
      match Hashtbl.find_opt t.heap new_id with
      | Some block ->
        Array.iteri (fun i v -> block.cells.(i) <- remap_value v) block.cells
      | None -> ())
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) mapping []);
  let records =
    List.map
      (fun (r : Image.record) ->
        { r with Image.values = List.map remap_value r.values })
      image.records
  in
  t.restore_records <- t.restore_records @ records;
  set_ready t

let restore t frame args =
  match args with
  | Ast.Alv loc_lv :: targets -> (
    match List.rev t.restore_records with
    | [] -> runtime "mh_restore: restore buffer is empty"
    | record :: rev_rest ->
      t.restore_records <- List.rev rev_rest;
      if List.length targets <> List.length record.values then
        runtime "mh_restore: record has %d values but %d targets given"
          (List.length record.values) (List.length targets);
      let assign lv v =
        match lv with
        | Ast.Alv (Ast.Lvar name) -> lookup_cell t frame name := v
        | Ast.Alv (Ast.Lindex (name, idx)) ->
          let base = !(lookup_cell t frame name) in
          heap_store t base (as_int (eval t frame idx)) v
        | Ast.Aexpr _ -> runtime "mh_restore takes lvalues"
      in
      assign (Ast.Alv loc_lv) (Value.Vint record.location);
      List.iter2 assign targets record.values)
  | _ -> runtime "mh_restore: missing location target"

(* --------------------------------------------------------- builtins *)

let exec_stmt_builtin t frame name args =
  let advance () = frame.pc <- frame.pc + 1 in
  match name with
  | "mh_init" -> advance ()
  | "mh_read" -> (
    match args with
    | [ Ast.Aexpr iface_e; Alv target ] -> (
      let iface = as_str (eval t frame iface_e) in
      match t.io.io_read iface with
      | Some v ->
        (match target with
        | Ast.Lvar name -> lookup_cell t frame name := v
        | Ast.Lindex (name, idx) ->
          let base = !(lookup_cell t frame name) in
          heap_store t base (as_int (eval t frame idx)) v);
        advance ()
      | None ->
        (* stay on this instruction; the bus re-runs it on wake-up *)
        t.mstatus <- Blocked_read iface)
    | _ -> runtime "mh_read: bad arguments")
  | "mh_write" -> (
    match args with
    | [ Ast.Aexpr iface_e; Aexpr value_e ] ->
      let iface = as_str (eval t frame iface_e) in
      let v = eval t frame value_e in
      t.io.io_write iface v;
      advance ()
    | _ -> runtime "mh_write: bad arguments")
  | "mh_capture" ->
    capture t frame args;
    advance ()
  | "mh_restore" ->
    restore t frame args;
    advance ()
  | "mh_encode" ->
    let image = build_image t in
    t.divulged_image <- Some image;
    t.capture_records <- [];
    t.io.io_encode image;
    advance ()
  | "mh_decode" -> (
    match t.io.io_decode () with
    | Some image ->
      feed_image t image;
      advance ()
    | None ->
      if t.restore_records <> [] then advance ()
      else t.mstatus <- Blocked_decode)
  | "signal" -> (
    match args with
    | [ Ast.Aexpr (Str handler) ] ->
      t.handler <- Some handler;
      advance ()
    | _ -> runtime "signal: expected a handler name literal")
  | _ -> runtime "unknown builtin statement %s" name

(* -------------------------------------------------------------- step *)

let exec_instr t frame (instr : Ir.instr) =
  let advance () = frame.pc <- frame.pc + 1 in
  match instr with
  | Iskip -> advance ()
  | Iassign (Lvar name, e) ->
    lookup_cell t frame name := eval t frame e;
    advance ()
  | Iassign (Lindex (name, idx), e) ->
    let base = !(lookup_cell t frame name) in
    let i = as_int (eval t frame idx) in
    heap_store t base i (eval t frame e);
    advance ()
  | Icall { callee; args; ret_temp } -> push_call t ~callee ~args ~ret_temp
  | Ireturn e ->
    let v = Option.map (eval t frame) e in
    do_return t v
  | Ijump target -> frame.pc <- target
  | Icjump { cond; if_false } ->
    if as_bool (eval t frame cond) then advance () else frame.pc <- if_false
  | Iprint es ->
    let rendered = List.map (fun e -> display_value (eval t frame e)) es in
    t.io.io_print (String.concat "" rendered);
    advance ()
  | Isleep e -> (
    let v = eval t frame e in
    let duration =
      match v with
      | Vint i -> float_of_int i
      | Vfloat f -> f
      | v -> runtime "sleep of %s" (Value.type_name v)
    in
    (* a NaN wake-up time would break the event queue's order *)
    if Float.is_nan duration then runtime "sleep of nan";
    (* advance first: on wake-up, execution resumes after the sleep *)
    advance ();
    t.mstatus <- Sleeping (Float.max 0.0 duration))
  | Ibuiltin (name, args) -> exec_stmt_builtin t frame name args

let run_pending_signal t =
  if t.pending_signal then begin
    t.pending_signal <- false;
    match t.handler with
    | None -> ()  (* no handler installed: signal ignored *)
    | Some handler_name ->
      let code = find_code t handler_name in
      (* The handler runs as an interrupt: its frame is pushed without
         advancing the interrupted frame's pc. *)
      let frame = make_frame t None code [] None in
      t.stack <- frame :: t.stack
  end

let step t =
  match t.mstatus with
  | Halted | Crashed _ | Sleeping _ | Blocked_read _ | Blocked_decode -> ()
  | Ready -> (
    run_pending_signal t;
    match t.stack with
    | [] -> t.mstatus <- Halted
    | frame -> (
      let frame = List.hd frame in
      if frame.pc < 0 || frame.pc >= Array.length frame.code.pc_instrs then
        t.mstatus <- Crashed (Printf.sprintf "pc out of range in %s" frame.code.pc_name)
      else begin
        t.instrs_executed <- t.instrs_executed + 1;
        (match t.tracer with
        | Some hook -> hook frame.code.pc_name frame.pc frame.code.pc_instrs.(frame.pc)
        | None -> ());
        try exec_instr t frame frame.code.pc_instrs.(frame.pc) with
        | Runtime_error message -> t.mstatus <- Crashed message
      end))

let run ?(max_steps = max_int) t =
  let steps = ref 0 in
  while t.mstatus = Ready && !steps < max_steps do
    step t;
    incr steps
  done

(* ---------------------------------------------------- baseline support *)

let stack_procs t = List.map (fun f -> f.code.pc_name) t.stack

let state_size t =
  let value_cost v = Image.value_size v in
  let cells_cost tbl =
    Hashtbl.fold (fun _ cell acc -> acc + value_cost !cell) tbl 0
  in
  let heap_cost =
    Hashtbl.fold
      (fun _ (block : Image.heap_block) acc ->
        acc + 16 + Array.fold_left (fun a v -> a + value_cost v) 0 block.cells)
      t.heap 0
  in
  cells_cost t.globals
  + List.fold_left (fun acc f -> acc + 8 + cells_cost f.cells) 0 t.stack
  + heap_cost

(* Deep copy preserving cell aliasing (by-reference parameters share
   cells across frames; the copy must too). *)
let clone t ~io =
  let cell_map : (Value.t ref * Value.t ref) list ref = ref [] in
  let copy_cell cell =
    match List.find_opt (fun (old_cell, _) -> old_cell == cell) !cell_map with
    | Some (_, fresh) -> fresh
    | None ->
      let fresh = ref !cell in
      cell_map := (cell, fresh) :: !cell_map;
      fresh
  in
  let copy_cells tbl =
    let fresh = Hashtbl.create (Hashtbl.length tbl) in
    Hashtbl.iter (fun name cell -> Hashtbl.replace fresh name (copy_cell cell)) tbl;
    fresh
  in
  let globals = copy_cells t.globals in
  let stack =
    List.map
      (fun f ->
        { code = f.code;
          cells = copy_cells f.cells;
          pc = f.pc;
          ret_slot = Option.map copy_cell f.ret_slot })
      t.stack
  in
  let heap = Hashtbl.create (Hashtbl.length t.heap) in
  Hashtbl.iter
    (fun id (block : Image.heap_block) ->
      Hashtbl.replace heap id
        { Image.elem_ty = block.elem_ty; cells = Array.copy block.cells })
    t.heap;
  { prog = t.prog;
    code_table = t.code_table;
    globals;
    stack;
    heap;
    next_block = t.next_block;
    mstatus = t.mstatus;
    pending_signal = t.pending_signal;
    handler = t.handler;
    capture_records = t.capture_records;
    restore_records = t.restore_records;
    divulged_image = t.divulged_image;
    status_attr = t.status_attr;
    io;
    instrs_executed = t.instrs_executed;
    tracer = None }

let replace_proc_code t (code : Ir.proc_code) =
  Hashtbl.replace t.code_table code.pc_name code

let create ?(status_attr = "normal") ~io ?code (prog : Ast.program) =
  (* Copy the (shallow) code table even when shared: replace_proc_code
     must stay local to one machine. The proc_code values are immutable
     and shared. *)
  let code_table =
    match code with
    | Some c -> Hashtbl.copy c
    | None -> Lower.lower_program prog
  in
  let globals = Hashtbl.create 16 in
  let t =
    { prog; code_table; globals; stack = []; heap = Hashtbl.create 16;
      next_block = 0; mstatus = Ready; pending_signal = false; handler = None;
      capture_records = []; restore_records = []; divulged_image = None;
      status_attr; io; instrs_executed = 0; tracer = None }
  in
  let scratch_code =
    { Ir.pc_name = "<globals>"; pc_params = []; pc_ret = None; pc_locals = [];
      pc_temps = []; pc_instrs = [||]; pc_labels = [] }
  in
  let scratch_frame =
    { code = scratch_code; cells = Hashtbl.create 1; pc = 0; ret_slot = None }
  in
  List.iter
    (fun (g : Ast.global) ->
      let v =
        match g.ginit with
        | Some init -> (
          try eval t scratch_frame init
          with Runtime_error _ -> Value.default_of_ty g.gty)
        | None -> Value.default_of_ty g.gty
      in
      Hashtbl.replace globals g.gname (ref v))
    prog.globals;
  (match Hashtbl.find_opt code_table "main" with
  | Some code when code.pc_params = [] ->
    t.stack <- [ make_frame t None code [] None ]
  | Some _ -> t.mstatus <- Crashed "main must take no parameters"
  | None -> t.mstatus <- Crashed "program has no main procedure");
  t
