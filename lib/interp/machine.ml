(* The MiniProc abstract machine, running resolved slot-indexed code.

   A frame holds its slots in two flat arrays, [vals : Value.t array]
   and [ints : int array], and so do the globals. A slot whose [vals]
   entry is the static sentinel [unboxed] holds an int in [ints], as a
   compiled module keeps an int local in a word of its activation
   record. A by-reference parameter ([Resolve.Sref k]) is the frame's
   [refs.(k)], set by the call to where the argument lives (a caller's
   slot or a global); a call's result target is the same kind of
   reference. Int arithmetic and comparisons over slots and int
   constants run without boxing ([int_of]). Every variable access is an
   array read through a pre-computed index (see {!Resolve}); the
   per-access string hashing of the original engine (kept as the
   test-only oracle, test/oracle/ast_machine.ml) is gone.
   Untraced execution dispatches superinstructions ({!Resolve.fused});
   a tracer sees every instruction dispatched alone. Observable
   behaviour — prints, statuses, instruction counts, tracer output,
   error messages — is identical either way: the differential tests in
   test_resolve.ml and test_fusion.ml and the golden traces pin this. *)

open Dr_lang
module Value = Dr_state.Value
module Image = Dr_state.Image
module R = Resolve

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
  | Crashed message -> Fmt.pf ppf "crashed(%s)" message
  | Halted -> Fmt.string ppf "halted"

(* Slot [at] of a frame's or the globals' two arrays: where a
   by-reference parameter's argument or a call's result lives. *)
type loc = { lvals : Value.t array; lints : int array; at : int }

(* The result target of a frame whose caller awaits no result. *)
let no_loc = { lvals = [||]; lints = [||]; at = 0 }

type frame = {
  rproc : R.rproc;
  vals : Value.t array;
  ints : int array;  (* read where [vals] holds [unboxed] *)
  refs : loc array;  (* by-reference parameters, [Sref k] *)
  mutable pc : int;
  ret : loc;  (* the caller's temp awaiting the result, or [no_loc] *)
}

type t = {
  prog : Ast.program;
  rprog : R.program;
  (* Machine-local view of the procedures: shared with [rprog] until the
     first [replace_proc_code], then copied (indices are stable — new
     procedures append). *)
  mutable procs : R.rproc array;
  mutable proc_index : (string, int) Hashtbl.t;
  mutable procs_local : bool;
  gvals : Value.t array;  (* the globals, laid out as a frame's slots *)
  gints : int array;
  global_index : (string, int) Hashtbl.t;  (* shared, read-only *)
  mutable stack : frame list;
  mutable depth : int;  (* = List.length stack, maintained on push/pop *)
  mutable heap : (int, Image.heap_block) Hashtbl.t;  (* [no_heap] until used *)
  mutable next_block : int;
  mutable mstatus : status;
  mutable last_blocked : status;  (* the last [Blocked_read], for reuse *)
  mutable pending_signal : bool;
  mutable handler : string option;
  mutable capture_records : Image.record list;  (* reverse capture order *)
  mutable restore_records : Image.record list;  (* restore order; pop the head *)
  status_attr : string;
  io : Io_intf.t;
  mutable instrs_executed : int;
  mutable tracer : (string -> int -> Ir.instr -> unit) option;
  (* Observability timestamps (virtual time, via [io_now]) and counters.
     Written on the existing state transitions only — reading the clock
     through [io] keeps the machine free of any engine dependency. *)
  mutable signal_handled_at : float option;
  mutable capture_started_at : float option;
  mutable restore_done_at : float option;
  mutable captures_taken : int;
  mutable restores_applied : int;
  mutable frames_rebuilt : int;
  (* One-shot hook parked at the next reconfiguration-point gate the
     machine executes: cleared before it runs. Used by the controller
     to arm a pre-copy freeze at point granularity. *)
  mutable point_hook : (unit -> unit) option;
}

let max_stack_depth = 4096

(* The heap of every machine that holds no block: one shared table that
   nothing writes. A machine gets its own table at its first block. *)
let no_heap : (int, Image.heap_block) Hashtbl.t = Hashtbl.create 1

let own_heap t =
  if t.heap == no_heap then t.heap <- Hashtbl.create 16;
  t.heap

let status t = t.mstatus

let set_tracer t tracer = t.tracer <- tracer
let program t = t.prog
let instr_count t = t.instrs_executed
let stack_depth t = t.depth

let signal_handled_at t = t.signal_handled_at
let capture_started_at t = t.capture_started_at
let restore_done_at t = t.restore_done_at
let captures_taken t = t.captures_taken
let restores_applied t = t.restores_applied
let frames_rebuilt t = t.frames_rebuilt

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

(* A removed instance's record outlives it (the bus's spawn history
   still reads its status and counters), but it never executes again:
   drop everything only execution needs. *)
let retire t =
  t.stack <- [];
  t.depth <- 0;
  t.heap <- no_heap;
  t.capture_records <- [];
  t.restore_records <- [];
  t.point_hook <- None

let heap_block t id = Hashtbl.find_opt t.heap id

let heap_size t = Hashtbl.length t.heap

(* ------------------------------------------------------------- values *)

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
  Hashtbl.replace (own_heap t) id
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

(* Results the machine makes and soon drops share values instead of
   allocating them: the two booleans, and the integers in
   [0, small_int_limit) from one table (counters and indexes mostly live
   there). *)
let[@inline] vbool b = if b then Value.Vbool true else Value.Vbool false

let small_int_limit = 1024

let small_ints = Array.init small_int_limit (fun i -> Value.Vint i)

let[@inline] vint n =
  if n >= 0 && n < small_int_limit then Array.unsafe_get small_ints n
  else Value.Vint n

(* ------------------------------------------------------------- slots *)

(* The [vals] entry of a slot that holds an int in [ints]. Only its
   address is compared, and no value a program makes is this block. *)
let unboxed = Value.Vstr "<unboxed int>"

let[@inline] get vals ints i =
  let v = vals.(i) in
  if v == unboxed then vint ints.(i) else v

let[@inline] set_int vals ints i n =
  if vals.(i) != unboxed then vals.(i) <- unboxed;
  ints.(i) <- n

let[@inline] set vals ints i v =
  match v with
  | Value.Vint n -> set_int vals ints i n
  | v -> vals.(i) <- v

let load t frame = function
  | R.Sframe i -> get frame.vals frame.ints i
  | R.Sref k ->
    let l = frame.refs.(k) in
    get l.lvals l.lints l.at
  | R.Sglobal i -> get t.gvals t.gints i
  | R.Sunbound name -> runtime "unbound variable %s" name

let store t frame slot v =
  match slot with
  | R.Sframe i -> set frame.vals frame.ints i v
  | R.Sref k ->
    let l = frame.refs.(k) in
    set l.lvals l.lints l.at v
  | R.Sglobal i -> set t.gvals t.gints i v
  | R.Sunbound name -> runtime "unbound variable %s" name

(* Where [slot] lives, for a by-reference argument or a result target:
   a reference passed on is the same reference. *)
let loc_of t frame = function
  | R.Sframe i -> { lvals = frame.vals; lints = frame.ints; at = i }
  | R.Sref k -> frame.refs.(k)
  | R.Sglobal i -> { lvals = t.gvals; lints = t.gints; at = i }
  | R.Sunbound name -> runtime "unbound variable %s" name

let read_global t name =
  Option.map
    (fun i -> get t.gvals t.gints i)
    (Hashtbl.find_opt t.global_index name)

let read_local t name =
  match t.stack with
  | [] -> None
  | frame :: _ ->
    Option.map (load t frame) (Hashtbl.find_opt frame.rproc.R.rp_slot_index name)

(* Top-level functions of their operands, so a binary operation
   allocates no closure. *)
let arith fi ff va vb =
  match va, vb with
  | Value.Vint x, Value.Vint y -> vint (fi x y)
  | Value.Vfloat x, Value.Vfloat y -> Value.Vfloat (ff x y)
  | _ ->
    runtime "arithmetic on %s and %s" (Value.type_name va) (Value.type_name vb)

let compare_values va vb =
  match va, vb with
  | Value.Vint x, Value.Vint y -> compare x y
  | Value.Vfloat x, Value.Vfloat y -> Float.compare x y
  | Value.Vstr x, Value.Vstr y -> String.compare x y
  | _ ->
    runtime "cannot order %s and %s" (Value.type_name va) (Value.type_name vb)

let rec eval t frame (e : R.rexpr) : Value.t =
  match e with
  | Rconst v -> v
  | Rframe i -> get frame.vals frame.ints i
  | Rref k ->
    let l = frame.refs.(k) in
    get l.lvals l.lints l.at
  | Rglobal i -> get t.gvals t.gints i
  | Runbound name -> runtime "unbound variable %s" name
  | Rindex (base, idx) ->
    let b = eval t frame base in
    let i = as_int (eval t frame idx) in
    heap_load t b i
  | Raddr (slot, idx) -> (
    let i = as_int (eval t frame idx) in
    match load t frame slot with
    | Varr id -> Vptr (id, i)
    | Vptr (id, off) -> Vptr (id, off + i)
    | Vnull -> runtime "cannot take the address into null"
    | v -> runtime "cannot take an address into a %s" (Value.type_name v))
  | Rneg e -> (
    match eval t frame e with
    | Vint i -> vint (-i)
    | Vfloat f -> Vfloat (-.f)
    | v -> runtime "cannot negate a %s" (Value.type_name v))
  | Rnot e -> vbool (not (as_bool (eval t frame e)))
  | Rbinop (op, a, b) -> eval_binop t frame op a b
  | Rresidual_call name ->
    runtime "internal error: residual call to %s in expression" name
  | Rbuiltin (name, args) -> eval_builtin t frame name args

and eval_binop t frame op a b =
  let va = eval t frame a in
  let vb = eval t frame b in
  match op with
  | Ast.Add -> (
    match va, vb with
    | Value.Vptr (id, off), Value.Vint n -> Value.Vptr (id, off + n)
    | _ -> arith ( + ) ( +. ) va vb)
  | Sub -> (
    match va, vb with
    | Value.Vptr (id, off), Value.Vint n -> Value.Vptr (id, off - n)
    | _ -> arith ( - ) ( -. ) va vb)
  | Mul -> arith ( * ) ( *. ) va vb
  | Div -> (
    match va, vb with
    | Value.Vint _, Value.Vint 0 -> runtime "division by zero"
    | _ -> arith ( / ) ( /. ) va vb)
  | Mod -> (
    match va, vb with
    | Value.Vint _, Value.Vint 0 -> runtime "modulo by zero"
    | Value.Vint x, Value.Vint y -> vint (x mod y)
    | _ -> runtime "'%%' expects ints")
  | Eq -> vbool (Value.equal va vb)
  | Ne -> vbool (not (Value.equal va vb))
  | Lt -> vbool (compare_values va vb < 0)
  | Le -> vbool (compare_values va vb <= 0)
  | Gt -> vbool (compare_values va vb > 0)
  | Ge -> vbool (compare_values va vb >= 0)
  | And -> vbool (as_bool va && as_bool vb)
  | Or -> vbool (as_bool va || as_bool vb)
  | Cat -> Vstr (as_str va ^ as_str vb)

and eval_builtin t frame name args =
  let arg i = List.nth args i in
  match name with
  | "mh_query" -> vbool (t.io.io_query (as_str (eval t frame (arg 0))))
  | "mh_getstatus" -> Vstr t.status_attr
  | "len" -> (
    match eval t frame (arg 0) with
    | Varr id -> vint (Array.length (block_cells t id))
    | v -> runtime "len of %s" (Value.type_name v))
  | "float" -> (
    match eval t frame (arg 0) with
    | Vint i -> Vfloat (float_of_int i)
    | v -> runtime "float() of %s" (Value.type_name v))
  | "int" -> (
    match eval t frame (arg 0) with
    | Vfloat f -> vint (int_of_float f)
    | v -> runtime "int() of %s" (Value.type_name v))
  | "str" -> Vstr (display_value (eval t frame (arg 0)))
  | "alloc_int" -> alloc_block t Tint (as_int (eval t frame (arg 0)))
  | "alloc_float" -> alloc_block t Tfloat (as_int (eval t frame (arg 0)))
  | "alloc_bool" -> alloc_block t Tbool (as_int (eval t frame (arg 0)))
  | "alloc_str" -> alloc_block t Tstr (as_int (eval t frame (arg 0)))
  | "now" -> Vfloat (t.io.io_now ())
  | _ -> runtime "unknown builtin %s" name

(* ------------------------------------------------- unboxed evaluation *)

(* [int_of] cannot evaluate the expression: [eval] does, from the
   start. *)
exception Boxed

let[@inline] int_slot vals ints i =
  let v = vals.(i) in
  if v == unboxed then ints.(i)
  else match v with Value.Vint n -> n | _ -> raise_notrace Boxed

let[@inline] nonzero n = if n = 0 then raise_notrace Boxed else n

(* The int that [eval] returns as a [Vint] for int arithmetic over
   slots and int constants, computed without boxing. It only reads
   slots, and raises [Boxed] on anything else, a builtin or a division
   or modulo by zero included, so [eval] makes every side effect and
   every error. *)
let rec int_of t frame (e : R.rexpr) =
  match e with
  | Rconst (Vint n) -> n
  | Rframe i -> int_slot frame.vals frame.ints i
  | Rref k ->
    let l = frame.refs.(k) in
    int_slot l.lvals l.lints l.at
  | Rglobal i -> int_slot t.gvals t.gints i
  | Rneg e -> -int_of t frame e
  | Rbinop (Add, a, b) -> int_of t frame a + int_of t frame b
  | Rbinop (Sub, a, b) -> int_of t frame a - int_of t frame b
  | Rbinop (Mul, a, b) -> int_of t frame a * int_of t frame b
  | Rbinop (Div, a, b) ->
    let x = int_of t frame a in
    x / nonzero (int_of t frame b)
  | Rbinop (Mod, a, b) ->
    let x = int_of t frame a in
    x mod nonzero (int_of t frame b)
  | _ -> raise_notrace Boxed

(* A branch condition: an int comparison runs unboxed. *)
let test t frame (e : R.rexpr) =
  match e with
  | Rbinop (((Eq | Ne | Lt | Le | Gt | Ge) as op), a, b) -> (
    match (int_of t frame a, int_of t frame b) with
    | x, y -> (
      match op with
      | Eq -> x = y
      | Ne -> x <> y
      | Lt -> x < y
      | Le -> x <= y
      | Gt -> x > y
      | _ -> x >= y)
    | exception Boxed -> as_bool (eval t frame e))
  | _ -> as_bool (eval t frame e)

(* Evaluate [e] into slot [i] of [vals]/[ints]; an int computed by
   [int_of] is stored without ever being boxed. *)
let assign t frame vals ints i (e : R.rexpr) =
  match e with
  | Rframe _ | Rref _ | Rglobal _ | Rneg _
  | Rbinop ((Add | Sub | Mul | Div | Mod), _, _) -> (
    match int_of t frame e with
    | n -> set_int vals ints i n
    | exception Boxed -> set vals ints i (eval t frame e))
  | _ -> set vals ints i (eval t frame e)

(* The value first, then the target, as [store t frame slot (eval …)]. *)
let assign_slot t frame slot e =
  match slot with
  | R.Sframe i -> assign t frame frame.vals frame.ints i e
  | R.Sref k ->
    let l = frame.refs.(k) in
    assign t frame l.lvals l.lints l.at e
  | R.Sglobal i -> assign t frame t.gvals t.gints i e
  | R.Sunbound _ -> store t frame slot (eval t frame e)

(* ------------------------------------------------------------- frames *)

let find_proc_code t name =
  match Hashtbl.find_opt t.proc_index name with
  | Some i -> t.procs.(i)
  | None -> runtime "call to unknown procedure %s" name

let new_frame (rproc : R.rproc) ret =
  let vals = Array.copy rproc.rp_defaults in
  { rproc; vals; ints = Array.make (Array.length vals) 0;
    refs = Array.make rproc.rp_nrefs no_loc; pc = 0; ret }

let make_frame t caller (rproc : R.rproc) (args : R.rcall_arg array) ret =
  let nparams = Array.length rproc.rp_params in
  if Array.length args <> nparams then
    runtime "%s expects %d arguments, got %d" rproc.rp_source.pc_name nparams
      (Array.length args);
  let frame = new_frame rproc ret in
  for k = 0 to nparams - 1 do
    let i, (param : Ast.param) = rproc.rp_params.(k) in
    let a = args.(k) in
    if param.pref then begin
      match a.R.ca_slot with
      | Some s ->
        (* refer to the caller's slot: writes land there *)
        frame.refs.(i) <- loc_of t caller s
      | None -> runtime "%s: ref argument must be a variable" rproc.rp_source.pc_name
    end
    else assign t caller frame.vals frame.ints i a.R.ca_expr
  done;
  frame

(* Frame for main or a signal handler: no caller, no arguments. *)
let entry_frame (rproc : R.rproc) =
  if Array.length rproc.rp_params <> 0 then
    runtime "%s expects %d arguments, got 0" rproc.rp_source.pc_name
      (Array.length rproc.rp_params);
  new_frame rproc no_loc

(* Pop the returning frame; its result, if any, is already stored. *)
let pop_frame t =
  match t.stack with
  | [] -> runtime "return with no active frame"
  | _ :: rest -> (
    t.stack <- rest;
    t.depth <- t.depth - 1;
    match rest with [] -> t.mstatus <- Halted | _ -> ())

(* ----------------------------------------------------- state capture *)

let capture t frame args =
  match args with
  | R.Raexpr loc_expr :: rest ->
    let location = as_int (eval t frame loc_expr) in
    let values =
      List.map
        (function
          | R.Raexpr e -> eval t frame e
          | R.Ralv _ -> runtime "mh_capture takes expressions")
        rest
    in
    if t.capture_records = [] then
      t.capture_started_at <- Some (t.io.io_now ());
    t.captures_taken <- t.captures_taken + 1;
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
      Hashtbl.replace (own_heap t) id
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
  (* an image lists its records in capture order and restore consumes
     them last-first: prepend them reversed, ahead of any still queued *)
  t.restore_records <- List.rev_append records t.restore_records;
  set_ready t

let restore t frame args =
  match args with
  | R.Ralv loc_lv :: targets -> (
    match t.restore_records with
    | [] -> runtime "mh_restore: restore buffer is empty"
    | record :: rest ->
      t.restore_records <- rest;
      if List.length targets <> List.length record.values then
        runtime "mh_restore: record has %d values but %d targets given"
          (List.length record.values) (List.length targets);
      let assign lv v =
        match lv with
        | R.Ralv (R.Rlvar slot) -> store t frame slot v
        | R.Ralv (R.Rlindex (slot, idx)) ->
          let base = load t frame slot in
          heap_store t base (as_int (eval t frame idx)) v
        | R.Raexpr _ -> runtime "mh_restore takes lvalues"
      in
      assign (R.Ralv loc_lv) (vint record.location);
      List.iter2 assign targets record.values;
      t.restores_applied <- t.restores_applied + 1;
      if t.restore_records = [] then
        t.restore_done_at <- Some (t.io.io_now ()))
  | _ -> runtime "mh_restore: missing location target"

(* --------------------------------------------------------- builtins *)

(* A machine blocks on the same interface again and again: reuse the
   status value while the name is the same. *)
let blocked_on t iface =
  match t.last_blocked with
  | Blocked_read last as status when String.equal last iface -> status
  | _ ->
    let status = Blocked_read iface in
    t.last_blocked <- status;
    status

(* Machines sleep for the same time again and again, one after the
   other: every machine reuses the last [Sleeping] value any of them
   built while the duration is equal. One shared value stays live once,
   where one per machine would stay live with every machine. Statuses
   are immutable, so sharing them is safe. Inlined, so the duration
   stays an unboxed float. *)
let last_sleep = ref Ready

let[@inline] sleeping duration =
  match !last_sleep with
  | Sleeping last as status when Float.equal last duration -> status
  | _ ->
    let status = Sleeping duration in
    last_sleep := status;
    status

(* Move past the current instruction; a top-level function, so a
   dispatch allocates no closure for it. *)
let[@inline] advance frame = frame.pc <- frame.pc + 1

let exec_stmt_builtin t frame name args =
  match name with
  | "mh_init" -> advance frame
  | "mh_read" -> (
    match args with
    | [ R.Raexpr iface_e; Ralv target ] -> (
      let iface = as_str (eval t frame iface_e) in
      match t.io.io_read iface with
      | Some v ->
        (match target with
        | R.Rlvar slot -> store t frame slot v
        | R.Rlindex (slot, idx) ->
          let base = load t frame slot in
          heap_store t base (as_int (eval t frame idx)) v);
        advance frame
      | None ->
        (* stay on this instruction; the bus re-runs it on wake-up *)
        t.mstatus <- blocked_on t iface)
    | _ -> runtime "mh_read: bad arguments")
  | "mh_write" -> (
    match args with
    | [ R.Raexpr iface_e; Raexpr value_e ] ->
      let iface = as_str (eval t frame iface_e) in
      let v = eval t frame value_e in
      t.io.io_write iface v;
      advance frame
    | _ -> runtime "mh_write: bad arguments")
  | "mh_capture" ->
    capture t frame args;
    advance frame
  | "mh_restore" ->
    restore t frame args;
    advance frame
  | "mh_encode" ->
    let image = build_image t in
    t.capture_records <- [];
    t.io.io_encode image;
    advance frame
  | "mh_decode" -> (
    match t.io.io_decode () with
    | Some image ->
      feed_image t image;
      advance frame
    | None ->
      if t.restore_records <> [] then advance frame
      else t.mstatus <- Blocked_decode)
  | "signal" -> (
    match args with
    | [ R.Raexpr (R.Rconst (Value.Vstr handler)) ] ->
      t.handler <- Some handler;
      advance frame
    | _ -> runtime "signal: expected a handler name literal")
  | _ -> runtime "unknown builtin statement %s" name

(* -------------------------------------------------------------- step *)

let rec exec_instr t frame (instr : R.rinstr) =
  match instr with
  | Rskip -> advance frame
  | Rassign (Rlvar slot, e) ->
    assign_slot t frame slot e;
    advance frame
  | Rassign (Rlindex (slot, idx), e) ->
    let base = load t frame slot in
    let i = as_int (eval t frame idx) in
    heap_store t base i (eval t frame e);
    advance frame
  | Rpoint_gate inner ->
    (* A reconfiguration-point gate: fire the controller's one-shot hook
       (pre-copy signals from it), then run the wrapped instruction. Counts
       as the one instruction it wraps — the tracer and golden traces
       see the original source instruction. *)
    (match t.point_hook with
    | Some hook ->
      t.point_hook <- None;
      hook ()
    | None -> ());
    exec_instr t frame inner
  | Rcall { target; callee; args; ret_slot } ->
    if t.depth >= max_stack_depth then
      runtime "stack overflow calling %s" callee;
    let rproc = if target >= 0 then t.procs.(target) else find_proc_code t callee in
    let ret =
      match ret_slot with
      | None -> no_loc
      | Some slot -> loc_of t frame slot
    in
    (* resume after the call instruction *)
    frame.pc <- frame.pc + 1;
    let new_frame = make_frame t frame rproc args ret in
    if t.restore_records <> [] then
      (* a call made while the restore buffer is non-empty is the restore
         dispatch rebuilding the activation-record stack *)
      t.frames_rebuilt <- t.frames_rebuilt + 1;
    t.stack <- new_frame :: t.stack;
    t.depth <- t.depth + 1
  | Rreturn e ->
    let r = frame.ret in
    (match e with
    | Some e when r != no_loc -> assign t frame r.lvals r.lints r.at e
    | Some e -> ignore (eval t frame e)
    | None when r != no_loc ->
      runtime "procedure %s fell through without returning a value"
        frame.rproc.rp_source.pc_name
    | None -> ());
    pop_frame t
  | Rjump target -> frame.pc <- target
  | Rcjump { cond; if_false } ->
    if test t frame cond then advance frame else frame.pc <- if_false
  | Rprint es ->
    let rendered = List.map (fun e -> display_value (eval t frame e)) es in
    t.io.io_print (String.concat "" rendered);
    advance frame
  | Rsleep e -> (
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
    advance frame;
    (* [Float.max 0.0 duration], written out so no float is boxed *)
    t.mstatus <- sleeping (if duration > 0.0 then duration else 0.0))
  | Rbuiltin_stmt (name, args) -> exec_stmt_builtin t frame name args

let run_pending_signal t =
  if t.pending_signal then begin
    t.pending_signal <- false;
    match t.handler with
    | None -> ()  (* no handler installed: signal ignored *)
    | Some handler_name ->
      let rproc = find_proc_code t handler_name in
      (* The handler runs as an interrupt: its frame is pushed without
         advancing the interrupted frame's pc. *)
      let frame = entry_frame rproc in
      t.signal_handled_at <- Some (t.io.io_now ());
      t.stack <- frame :: t.stack;
      t.depth <- t.depth + 1
  end

(* Superinstruction dispatch: execute a fused straight-line run in one
   dispatch. Instruction counting is per sub-instruction (incremented
   before each exec, exactly like single dispatch), so counts, costs
   and crash attribution are identical to unfused execution. A
   false-taken Fcjump_run executes one instruction, not the whole run.

   Run members are pre-destructured assigns/skips, executed here with a
   three-way match instead of the full [exec_instr] dispatch. pc is
   written before each member (not advanced after, as [exec_instr]
   would), which keeps crash attribution exact: a member that raises
   leaves pc at its own index, just like unfused execution. The tail
   transfer, if any, runs through [exec_instr] with pc already at its
   index, so its pc arithmetic (call resumption, branch targets) is
   untouched. *)
let exec_run t frame ~base (body : R.fmember array) (tail : R.rinstr option) =
  for k = 0 to Array.length body - 1 do
    frame.pc <- base + k;
    t.instrs_executed <- t.instrs_executed + 1;
    match Array.unsafe_get body k with
    | R.Mskip -> ()
    | R.Massign (slot, e) -> assign_slot t frame slot e
    | R.Massign_index (slot, idx, e) ->
      let b = load t frame slot in
      let i = as_int (eval t frame idx) in
      heap_store t b i (eval t frame e)
  done;
  frame.pc <- base + Array.length body;
  match tail with
  | Some (R.Rjump target) ->
    (* the overwhelmingly common loop-closing tail, inlined *)
    t.instrs_executed <- t.instrs_executed + 1;
    frame.pc <- target
  | Some i ->
    t.instrs_executed <- t.instrs_executed + 1;
    exec_instr t frame i
  | None -> ()

let exec_fused t frame (f : R.fused) =
  match f with
  | R.Frun { body; tail } -> exec_run t frame ~base:frame.pc body tail
  | R.Fcjump_run { cond; if_false; body; tail } ->
    t.instrs_executed <- t.instrs_executed + 1;
    if test t frame cond then
      exec_run t frame ~base:(frame.pc + 1) body tail
    else frame.pc <- if_false

(* Budgeted execution: run at most [budget] instructions while Ready,
   returning the number actually executed. This is the machine's one
   dispatch loop — the bus's quantum, [run] and [step] all come through
   here — paying one status check per instruction. Untraced, it
   dispatches a fused run whenever the whole run fits in the remaining
   budget, so a run never overruns the quantum; near the boundary, and
   always under a tracer, instructions dispatch one at a time. *)
let exec_budget t budget =
  let start = t.instrs_executed in
  (* absolute threshold, so the loop and the fusion headroom test are
     plain int compares on the counter — no per-iteration arithmetic *)
  let stop = if budget >= max_int - start then max_int else start + budget in
  while t.mstatus = Ready && t.instrs_executed < stop do
    run_pending_signal t;
    match t.stack with
    | [] -> t.mstatus <- Halted
    | frame :: _ ->
      if frame.pc < 0 || frame.pc >= Array.length frame.rproc.rp_instrs then
        t.mstatus <-
          Crashed
            (Printf.sprintf "pc out of range in %s" frame.rproc.rp_source.pc_name)
      else begin
        match t.tracer with
        | Some hook ->
          t.instrs_executed <- t.instrs_executed + 1;
          hook frame.rproc.rp_source.pc_name frame.pc
            frame.rproc.rp_source.pc_instrs.(frame.pc);
          (try exec_instr t frame frame.rproc.rp_instrs.(frame.pc) with
          | Runtime_error message -> t.mstatus <- Crashed message)
        | None -> (
          (* rp_fused is index-aligned with rp_instrs: pc is in range *)
          match Array.unsafe_get frame.rproc.rp_fused frame.pc with
          | Some f when t.instrs_executed + R.fused_length f <= stop -> (
            try exec_fused t frame f with
            | Runtime_error message -> t.mstatus <- Crashed message)
          | Some _ | None ->
            t.instrs_executed <- t.instrs_executed + 1;
            (try exec_instr t frame frame.rproc.rp_instrs.(frame.pc) with
            | Runtime_error message -> t.mstatus <- Crashed message))
      end
  done;
  t.instrs_executed - start

(* A fused run is at least two instructions, so it never fits a budget
   of one: [step] executes exactly one instruction. *)
let step t = ignore (exec_budget t 1)

let run ?(max_steps = max_int) t = ignore (exec_budget t max_steps)

(* ------------------------------------------------------ pre-copy hook *)

let set_point_hook t hook = t.point_hook <- hook

(* ---------------------------------------------------- baseline support *)

let stack_procs t = List.map (fun f -> f.rproc.R.rp_source.pc_name) t.stack

(* A by-reference parameter is counted in its callee's frame too, as
   the oracle counts its shared cell. *)
let state_size t =
  (* an unboxed slot holds an int, and every int costs the same *)
  let value_cost v = Image.value_size (if v == unboxed then Value.Vint 0 else v) in
  let slots_cost vals = Array.fold_left (fun acc v -> acc + value_cost v) 0 vals in
  let frame_cost f =
    8 + slots_cost f.vals
    + Array.fold_left (fun acc l -> acc + value_cost l.lvals.(l.at)) 0 f.refs
  in
  let heap_cost =
    Hashtbl.fold
      (fun _ (block : Image.heap_block) acc ->
        acc + 16 + Array.fold_left (fun a v -> a + value_cost v) 0 block.cells)
      t.heap 0
  in
  slots_cost t.gvals
  + List.fold_left (fun acc f -> acc + frame_cost f) 0 t.stack
  + heap_cost

(* Deep copy preserving aliasing: a by-reference parameter or a result
   target of the clone refers to the clone's copy of the slot. Such a
   reference points into the globals or into a frame below its own, so
   copying the stack bottom-up finds its target already copied. *)
let clone t ~io =
  let gvals = Array.copy t.gvals and gints = Array.copy t.gints in
  let copies = ref [ (t.gvals, (gvals, gints)) ] in
  let relocate l =
    if l == no_loc then no_loc
    else
      let lvals, lints = List.assq l.lvals !copies in
      { l with lvals; lints }
  in
  let copy f =
    let vals = Array.copy f.vals and ints = Array.copy f.ints in
    let f' =
      { f with vals; ints; refs = Array.map relocate f.refs; ret = relocate f.ret }
    in
    copies := (f.vals, (vals, ints)) :: !copies;
    f'
  in
  let stack = List.fold_left (fun acc f -> copy f :: acc) [] (List.rev t.stack) in
  let heap =
    if Hashtbl.length t.heap = 0 then no_heap
    else begin
      let heap = Hashtbl.create (Hashtbl.length t.heap) in
      Hashtbl.iter
        (fun id (block : Image.heap_block) ->
          Hashtbl.replace heap id
            { Image.elem_ty = block.elem_ty; cells = Array.copy block.cells })
        t.heap;
      heap
    end
  in
  { prog = t.prog;
    rprog = t.rprog;
    procs = t.procs;
    proc_index = t.proc_index;
    procs_local = t.procs_local;
    gvals;
    gints;
    global_index = t.global_index;
    stack;
    depth = t.depth;
    heap;
    next_block = t.next_block;
    mstatus = t.mstatus;
    last_blocked = Ready;
    pending_signal = t.pending_signal;
    handler = t.handler;
    capture_records = t.capture_records;
    restore_records = t.restore_records;
    status_attr = t.status_attr;
    io;
    instrs_executed = t.instrs_executed;
    tracer = None;
    signal_handled_at = t.signal_handled_at;
    capture_started_at = t.capture_started_at;
    restore_done_at = t.restore_done_at;
    captures_taken = t.captures_taken;
    restores_applied = t.restores_applied;
    frames_rebuilt = t.frames_rebuilt;
    point_hook = None  (* hooks are controller-side, never cloned *) }

let replace_proc_code t (code : Ir.proc_code) =
  if not t.procs_local then begin
    t.procs <- Array.copy t.procs;
    t.proc_index <- Hashtbl.copy t.proc_index;
    t.procs_local <- true
  end;
  let rproc =
    R.resolve_proc ~global_index:t.global_index ~proc_index:t.proc_index code
  in
  match Hashtbl.find_opt t.proc_index code.pc_name with
  | Some i -> t.procs.(i) <- rproc
  | None ->
    t.procs <- Array.append t.procs [| rproc |];
    Hashtbl.replace t.proc_index code.pc_name (Array.length t.procs - 1)

let create ?(status_attr = "normal") ~io ?resolved (prog : Ast.program) =
  let rprog =
    match resolved with
    | Some r -> r
    | None -> Resolve.resolve_program prog (Lower.lower_program prog)
  in
  let gvals =
    Array.map (fun (_, ty) -> Value.default_of_ty ty) rprog.R.rg_globals
  in
  let t =
    { prog; rprog; procs = rprog.rg_procs; proc_index = rprog.rg_proc_index;
      procs_local = false; gvals; gints = Array.make (Array.length gvals) 0;
      global_index = rprog.rg_global_index;
      stack = []; depth = 0; heap = no_heap;
      next_block = 0; mstatus = Ready; last_blocked = Ready;
      pending_signal = false; handler = None;
      capture_records = []; restore_records = [];
      status_attr; io; instrs_executed = 0; tracer = None;
      signal_handled_at = None; capture_started_at = None;
      restore_done_at = None; captures_taken = 0; restores_applied = 0;
      frames_rebuilt = 0; point_hook = None }
  in
  let scratch_frame = new_frame R.scratch_proc no_loc in
  Array.iteri
    (fun i init ->
      match init with
      | Some re -> (
        (* an initialiser that fails (e.g. forward reference) leaves the
           type default in place, like the unresolved engine *)
        try set t.gvals t.gints i (eval t scratch_frame re)
        with Runtime_error _ -> ())
      | None -> ())
    rprog.rg_global_inits;
  (match Hashtbl.find_opt t.proc_index "main" with
  | Some i ->
    let rproc = t.procs.(i) in
    if rproc.rp_source.pc_params = [] then begin
      t.stack <- [ entry_frame rproc ];
      t.depth <- 1
    end
    else t.mstatus <- Crashed "main must take no parameters"
  | None -> t.mstatus <- Crashed "program has no main procedure");
  t
