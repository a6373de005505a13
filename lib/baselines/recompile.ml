module Ast = Dr_lang.Ast
module I = Dr_transform.Instrument
module Rg = Dr_analysis.Reconfig_graph
module Image = Dr_state.Image
module Value = Dr_state.Value

let ( let* ) = Result.bind

let block_var id = Printf.sprintf "mig_block_%d" id

let step_var proc_name = Printf.sprintf "mig_step_%s" proc_name

(* A captured value as a literal expression of the specialized program.
   Heap references point at the generated block globals. *)
let literal_of_value ~heap_ids (v : Value.t) : (Ast.expr, string) result =
  match v with
  | Vint i -> Ok (Ast.Int i)
  | Vfloat f -> Ok (Ast.Float f)
  | Vbool b -> Ok (Ast.Bool b)
  | Vstr s -> Ok (Ast.Str s)
  | Vnull -> Ok Ast.Null
  | Varr id ->
    if List.mem id heap_ids then Ok (Ast.Var (block_var id)) else Ok Ast.Null
  | Vptr (id, off) ->
    if List.mem id heap_ids then Ok (Ast.Addr (block_var id, Int off))
    else Ok Ast.Null

let alloc_builtin (ty : Ast.ty) =
  match ty with
  | Tint -> Ok "alloc_int"
  | Tfloat -> Ok "alloc_float"
  | Tbool -> Ok "alloc_bool"
  | Tstr -> Ok "alloc_str"
  | Tarr _ | Tptr _ ->
    Error "migration program: heap blocks of non-scalar elements unsupported"

(* mig_setup: allocate every captured heap block, then fill the cells
   (in a second pass, so inter-block references resolve). *)
let setup_proc ~heap_ids (heap : (int * Image.heap_block) list) =
  let* allocs =
    List.fold_left
      (fun acc (id, (block : Image.heap_block)) ->
        let* acc = acc in
        let* alloc = alloc_builtin block.elem_ty in
        Ok
          (Ast.stmt
             (Ast.Assign
                ( Lvar (block_var id),
                  Builtin (alloc, [ Int (Array.length block.cells) ]) ))
          :: acc))
      (Ok []) heap
  in
  let* fills =
    List.fold_left
      (fun acc (id, (block : Image.heap_block)) ->
        let* acc = acc in
        let cells = Array.to_list block.cells in
        let* stmts =
          List.fold_left
            (fun acc (j, cell) ->
              let* acc = acc in
              (* skip cells still holding the zero value: the allocator
                 already initialised them *)
              if Value.equal cell (Value.default_of_ty block.elem_ty) then Ok acc
              else
                let* lit = literal_of_value ~heap_ids cell in
                Ok (Ast.stmt (Ast.Assign (Lindex (block_var id, Int j), lit)) :: acc))
            (Ok [])
            (List.mapi (fun j cell -> (j, cell)) cells)
        in
        Ok (List.rev stmts @ acc))
      (Ok []) heap
  in
  Ok
    { Ast.proc_name = "mig_setup";
      params = [];
      ret = None;
      body = List.rev allocs @ fills;
      proc_line = 0 }

(* Per procedure, the records its successive restore invocations
   consume: restoration replays the image from the last record
   backwards. *)
let records_for graph (image : Image.t) proc_name =
  let src_of location =
    List.find_map
      (fun edge ->
        if Rg.edge_index edge = location then Some (Rg.edge_src edge) else None)
      graph.Rg.edges
  in
  (* restoration pops the image from its last record backwards; tag each
     with the procedure whose restore block will consume it *)
  let rec owners acc = function
    | [] -> Ok (List.rev acc)
    | (r : Image.record) :: rest -> (
      match src_of r.location with
      | Some src -> owners ((src, r) :: acc) rest
      | None ->
        Error
          (Printf.sprintf "migration program: unknown resume location %d"
             r.location))
  in
  let* tagged = owners [] (List.rev image.records) in
  Ok (List.filter_map (fun (src, r) -> if String.equal src proc_name then Some r else None) tagged)

(* Replace one mh_restore statement with counter-dispatched literal
   assignments. [targets] are the lvalues of the original statement
   (location first). *)
let specialise_restore ~heap_ids ~proc_name ~records targets =
  let* location_target, var_targets =
    match targets with
    | Ast.Alv loc :: rest ->
      let* vars =
        List.fold_left
          (fun acc arg ->
            let* acc = acc in
            match arg with
            | Ast.Alv lv -> Ok (lv :: acc)
            | Ast.Aexpr _ -> Error "migration program: malformed mh_restore")
          (Ok []) rest
      in
      Ok (loc, List.rev vars)
    | _ -> Error "migration program: malformed mh_restore"
  in
  let step = step_var proc_name in
  let* branches =
    List.fold_left
      (fun acc (i, (record : Image.record)) ->
        let* acc = acc in
        if Array.length record.values <> List.length var_targets then
          Error
            (Printf.sprintf
               "migration program: record for %s has %d values, %d variables"
               proc_name
               (Array.length record.values)
               (List.length var_targets))
        else
          let* assigns =
            List.fold_left
              (fun acc (lv, v) ->
                let* acc = acc in
                let* lit = literal_of_value ~heap_ids v in
                Ok (Ast.stmt (Ast.Assign (lv, lit)) :: acc))
              (Ok [])
              (List.combine var_targets (Array.to_list record.values))
          in
          let body =
            Ast.stmt (Ast.Assign (location_target, Int record.location))
            :: List.rev assigns
          in
          Ok
            (Ast.stmt
               (Ast.If (Binop (Eq, Var step, Int (i + 1)), body, []))
            :: acc))
      (Ok [])
      (List.mapi (fun i r -> (i, r)) records)
  in
  Ok
    (Ast.stmt (Ast.Assign (Lvar step, Binop (Add, Var step, Int 1)))
    :: List.rev branches)

(* Rewrite one instrumented procedure: inside its restore block, drop
   mh_decode and replace mh_restore; in main, force mh_restoring and
   call mig_setup first. *)
let specialise_proc ~heap_ids ~graph ~image (proc : Ast.proc) =
  let is_main = String.equal proc.proc_name "main" in
  let* records = records_for graph image proc.proc_name in
  let rewrite_restore_body body =
    List.fold_left
      (fun acc (s : Ast.stmt) ->
        let* acc = acc in
        match s.kind with
        | Ast.BuiltinS ("mh_decode", _) -> Ok acc  (* no buffer needed *)
        | Ast.BuiltinS ("mh_restore", targets) ->
          let* replacement =
            specialise_restore ~heap_ids ~proc_name:proc.proc_name ~records
              targets
          in
          let replacement =
            if is_main then
              Ast.stmt (Ast.CallS ("mig_setup", [])) :: replacement
            else replacement
          in
          Ok (List.rev_append replacement acc)
        | _ -> Ok (s :: acc))
      (Ok []) body
    |> Result.map List.rev
  in
  let* body =
    List.fold_left
      (fun acc (s : Ast.stmt) ->
        let* acc = acc in
        match s.kind with
        (* main's clone-status check becomes an unconditional restore *)
        | Ast.If (Binop (Eq, Builtin ("mh_getstatus", []), Str "clone"), _, _)
          when is_main ->
          Ok ({ s with kind = Ast.Assign (Lvar "mh_restoring", Bool true) } :: acc)
        | Ast.If ((Var "mh_restoring" as cond), restore_body, []) ->
          let* restore_body = rewrite_restore_body restore_body in
          Ok ({ s with kind = Ast.If (cond, restore_body, []) } :: acc)
        | _ -> Ok (s :: acc))
      (Ok []) proc.body
    |> Result.map List.rev
  in
  Ok { proc with body }

let check_mig_names (program : Ast.program) =
  let clash = ref None in
  let note name =
    if
      !clash = None
      && String.length name >= 4
      && String.equal (String.sub name 0 4) "mig_"
    then clash := Some name
  in
  List.iter (fun (g : Ast.global) -> note g.gname) program.globals;
  List.iter (fun (p : Ast.proc) -> note p.proc_name) program.procs;
  match !clash with
  | None -> Ok ()
  | Some name ->
    Error
      (Printf.sprintf
         "migration program: name %s collides with the mig_ namespace" name)

let synthesize ~(prepared : I.prepared) ~(image : Image.t) =
  let program = prepared.prepared_program in
  let* () = check_mig_names program in
  let graph = prepared.graph in
  let heap_ids = List.map fst image.heap in
  let* setup = setup_proc ~heap_ids image.heap in
  let* procs =
    List.fold_left
      (fun acc (p : Ast.proc) ->
        let* acc = acc in
        if Rg.is_relevant graph p.proc_name then
          let* specialised = specialise_proc ~heap_ids ~graph ~image p in
          Ok (specialised :: acc)
        else Ok (p :: acc))
      (Ok []) program.procs
    |> Result.map List.rev
  in
  let block_globals =
    List.map
      (fun (id, (block : Image.heap_block)) ->
        { Ast.gname = block_var id;
          gty = Ast.Tarr block.elem_ty;
          ginit = None;
          gline = 0 })
      image.heap
  in
  let step_globals =
    List.map
      (fun proc_name ->
        { Ast.gname = step_var proc_name;
          gty = Ast.Tint;
          ginit = Some (Ast.Int 0);
          gline = 0 })
      graph.relevant
  in
  let specialised =
    { program with
      globals = program.globals @ block_globals @ step_globals;
      procs = procs @ [ setup ] }
  in
  (* the migration program must itself be an ordinary, well-typed module *)
  match Dr_lang.Typecheck.check specialised with
  | Ok () -> Ok specialised
  | Error errors ->
    Error
      (Fmt.str "migration program does not typecheck: %a"
         (Fmt.list ~sep:(Fmt.any "; ") Dr_lang.Typecheck.pp_error)
         errors)
