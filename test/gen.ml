(* QCheck2 generators for property-based tests: syntactically valid
   MiniProc ASTs (for parser/printer round-trips), MIL configurations,
   and state images (for codec round-trips). *)

module Ast = Dr_lang.Ast
module G = QCheck2.Gen

let ident =
  G.oneofl [ "a"; "b"; "c"; "x"; "y"; "count"; "total"; "foo_bar"; "v1"; "tmp2" ]

let label_name = G.oneofl [ "L1"; "L2"; "R"; "again"; "top" ]

let proc_name = G.oneofl [ "helper"; "work"; "step_once"; "refresh" ]

(* Strings over characters the lexer can escape and re-read. *)
let safe_string =
  G.map
    (fun chars -> String.concat "" chars)
    (G.small_list
       (G.oneofl [ "a"; "Z"; "0"; " "; "_"; "\\"; "\""; "\n"; "\t"; "!"; "%" ]))

let ty =
  G.sized_size (G.int_bound 1) @@ fun depth ->
  let base = G.oneofl [ Ast.Tint; Ast.Tfloat; Ast.Tbool; Ast.Tstr ] in
  if depth = 0 then base
  else
    G.oneof
      [ base;
        G.map (fun t -> Ast.Tarr t) base;
        G.map (fun t -> Ast.Tptr t) base ]

let literal =
  G.oneof
    [ G.map (fun i -> Ast.Int i) G.small_nat;
      G.map (fun f -> Ast.Float (Float.abs f)) G.float;
      G.map (fun b -> Ast.Bool b) G.bool;
      G.map (fun s -> Ast.Str s) safe_string;
      G.return Ast.Null ]

let literal =
  (* exclude NaN/infinite floats: they have no literal syntax *)
  G.map
    (function
      | Ast.Float f when not (Float.is_finite f) -> Ast.Float 0.5
      | e -> e)
    literal

let binop =
  G.oneofl
    [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div; Ast.Mod; Ast.Eq; Ast.Ne; Ast.Lt;
      Ast.Le; Ast.Gt; Ast.Ge; Ast.And; Ast.Or; Ast.Cat ]

(* Builtin names valid in expression position (parser maps them back to
   Builtin nodes). *)
let expr_builtin_name =
  G.oneofl [ "mh_query"; "len"; "float"; "int"; "str"; "now"; "mh_getstatus" ]

let expr_over literal =
  G.sized @@ G.fix (fun self depth ->
      if depth <= 0 then G.oneof [ literal; G.map (fun v -> Ast.Var v) ident ]
      else
        let sub = self (depth / 2) in
        G.oneof
          [ literal;
            G.map (fun v -> Ast.Var v) ident;
            G.map2 (fun a i -> Ast.Index (a, i)) sub sub;
            G.map2 (fun n i -> Ast.Addr (n, i)) ident sub;
            G.map (fun e -> Ast.Unop (Ast.Neg, e)) sub;
            G.map (fun e -> Ast.Unop (Ast.Not, e)) sub;
            G.map3 (fun op a b -> Ast.Binop (op, a, b)) binop sub sub;
            G.map2 (fun name args -> Ast.Call (name, args)) proc_name
              (G.list_size (G.int_bound 2) sub);
            G.map2 (fun name args -> Ast.Builtin (name, args)) expr_builtin_name
              (G.list_size (G.int_bound 2) sub) ])

let expr = expr_over literal

(* Ints beyond the interpreter's shared small-int table ([0, 1024)):
   zero, negatives, the table's bound, large values and both extremes.
   [min_int] has no literal, so it is built by subtraction; a negative
   [Int] prints as a subtraction from zero. *)
let wide_int =
  G.frequency
    [ (3, G.return (Ast.Int 0));
      ( 3,
        G.map
          (fun i -> Ast.Int i)
          (G.oneofl [ 1; 3; 1023; 1024; 1_000_000; 5_000_001; max_int ]) );
      (2, G.map (fun i -> Ast.Int (-i)) (G.oneofl [ 1; 2; 7; 1024; 1_000_000 ]));
      (2, G.map (fun i -> Ast.Int i) G.small_nat);
      ( 1,
        G.return
          (Ast.Binop (Sub, Ast.Binop (Sub, Ast.Int 0, Ast.Int max_int), Ast.Int 1))
      ) ]

(* Int arithmetic over [wide_int] and the int variables [idents], or a
   comparison of two such (or of one with itself, so that the equal
   case is common). *)
let int_expr idents =
  let arith =
    G.sized @@ G.fix (fun self depth ->
        let leaf =
          G.frequency
            [ (3, wide_int); (2, G.map (fun v -> Ast.Var v) (G.oneofl idents)) ]
        in
        if depth <= 0 then leaf
        else
          let sub = self (depth / 2) in
          G.frequency
            [ (2, leaf);
              (1, G.map (fun e -> Ast.Unop (Ast.Neg, e)) sub);
              ( 4,
                G.map3
                  (fun op a b -> Ast.Binop (op, a, b))
                  (G.oneofl [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div; Ast.Mod ])
                  sub sub ) ])
  in
  let compare = G.oneofl [ Ast.Eq; Ast.Ne; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge ] in
  G.frequency
    [ (4, arith);
      (1, G.map3 (fun op a b -> Ast.Binop (op, a, b)) compare arith arith);
      (1, G.map2 (fun op a -> Ast.Binop (op, a, a)) compare arith) ]

let lvalue =
  G.oneof
    [ G.map (fun v -> Ast.Lvar v) ident;
      G.map2 (fun v i -> Ast.Lindex (v, i)) ident expr ]

(* Statement-builtin applications that match the parser's signatures. *)
let builtin_stmt =
  G.oneof
    [ G.return (Ast.BuiltinS ("mh_init", []));
      G.map2
        (fun iface lv -> Ast.BuiltinS ("mh_read", [ Ast.Aexpr iface; Ast.Alv lv ]))
        expr lvalue;
      G.map2
        (fun iface v ->
          Ast.BuiltinS ("mh_write", [ Ast.Aexpr iface; Ast.Aexpr v ]))
        expr expr;
      G.map2
        (fun loc vs ->
          Ast.BuiltinS
            ("mh_capture", Ast.Aexpr loc :: List.map (fun e -> Ast.Aexpr e) vs))
        expr
        (G.list_size (G.int_bound 3) expr);
      G.map2
        (fun loc lvs ->
          Ast.BuiltinS
            ("mh_restore", Ast.Alv loc :: List.map (fun lv -> Ast.Alv lv) lvs))
        lvalue
        (G.list_size (G.int_bound 3) lvalue);
      G.return (Ast.BuiltinS ("mh_encode", []));
      G.return (Ast.BuiltinS ("mh_decode", [])) ]

let stmt =
  G.sized @@ G.fix (fun self depth ->
      let block = G.list_size (G.int_bound 2) (self (depth / 2)) in
      let leaf_kinds =
        [ G.map3 (fun n t e -> Ast.Decl (n, t, e)) ident ty (G.option expr);
          G.map2 (fun lv e -> Ast.Assign (lv, e)) lvalue expr;
          G.map2 (fun name args -> Ast.CallS (name, args)) proc_name
            (G.list_size (G.int_bound 2) expr);
          G.map (fun e -> Ast.Return e) (G.option expr);
          G.map (fun l -> Ast.Goto l) label_name;
          G.map (fun es -> Ast.Print es) (G.list_size (G.int_bound 2) expr);
          G.map (fun e -> Ast.Sleep e) expr;
          builtin_stmt |> G.map (function Ast.BuiltinS (n, a) -> Ast.BuiltinS (n, a) | k -> k);
          G.return Ast.Skip ]
      in
      let kind =
        if depth <= 0 then G.oneof leaf_kinds
        else
          G.oneof
            (leaf_kinds
            @ [ G.map3 (fun c t e -> Ast.If (c, t, e)) expr block block;
                G.map2 (fun c b -> Ast.While (c, b)) expr block ])
      in
      G.map2 (fun label kind -> Ast.stmt ?label kind) (G.option label_name) kind)

let param =
  G.map3 (fun pname pty pref -> { Ast.pname; pty; pref }) ident ty G.bool

let proc =
  G.map3
    (fun proc_name params (ret, body) ->
      { Ast.proc_name; params; ret; body; proc_line = 0 })
    proc_name
    (G.list_size (G.int_bound 3) param)
    (G.pair (G.option ty) (G.list_size (G.int_bound 4) stmt))

let global =
  G.map3
    (fun gname gty ginit -> { Ast.gname; gty; ginit; gline = 0 })
    ident ty (G.option expr)

let program =
  G.map2
    (fun globals procs ->
      (* procedure names must be unique for find_proc determinism *)
      let seen = Hashtbl.create 8 in
      let procs =
        List.filteri
          (fun i (p : Ast.proc) ->
            ignore i;
            if Hashtbl.mem seen p.proc_name then false
            else begin
              Hashtbl.replace seen p.proc_name ();
              true
            end)
          procs
      in
      { Ast.module_name = "generated"; globals; procs })
    (G.list_size (G.int_bound 3) global)
    (G.list_size (G.int_bound 4) proc)

(* ---------------------------------------------------------------- MIL *)

let mil_ident =
  G.oneofl [ "alpha"; "beta"; "gamma"; "relay"; "hub"; "probe"; "sink2" ]

let mil_msg_ty =
  G.oneofl [ Dr_mil.Spec.Mint; Dr_mil.Spec.Mfloat; Dr_mil.Spec.Mbool; Dr_mil.Spec.Mstr ]

let mil_iface =
  G.map3
    (fun (if_name, role) pattern (accepts, returns) ->
      { Dr_mil.Spec.if_name; role; pattern; accepts; returns })
    (G.pair mil_ident
       (G.oneofl
          [ Dr_mil.Spec.Client; Dr_mil.Spec.Server; Dr_mil.Spec.Use;
            Dr_mil.Spec.Define ]))
    (G.list_size (G.int_bound 2) mil_msg_ty)
    (G.pair
       (G.list_size (G.int_bound 1) mil_msg_ty)
       (G.list_size (G.int_bound 1) mil_msg_ty))

let mil_point =
  G.map2
    (fun rp_label rp_state -> { Dr_mil.Spec.rp_label; rp_state })
    (G.oneofl [ "R"; "R1"; "Rmid" ])
    (G.option (G.list_size (G.int_bound 3) ident))

let mil_module =
  G.map3
    (fun ms_name (source, machine) (ifaces, points) ->
      { Dr_mil.Spec.ms_name; source; machine; ifaces; points; attrs = [] })
    mil_ident
    (G.pair (G.option (G.oneofl [ "./a.exe"; "./b.out" ]))
       (G.option (G.oneofl [ "hostA"; "hostB" ])))
    (G.pair
       (G.list_size (G.int_bound 3) mil_iface)
       (G.list_size (G.int_bound 2) mil_point))

let mil_endpoint = G.pair mil_ident mil_ident

let mil_application =
  G.map3
    (fun app_name instances binds ->
      { Dr_mil.Spec.app_name; instances; binds })
    mil_ident
    (G.list_size (G.int_bound 3)
       (G.map3
          (fun inst_name inst_module inst_host ->
            { Dr_mil.Spec.inst_name; inst_module; inst_host })
          mil_ident mil_ident
          (G.option (G.oneofl [ "h1"; "h2" ]))))
    (G.list_size (G.int_bound 3)
       (G.map2
          (fun b_from b_to -> { Dr_mil.Spec.b_from; b_to })
          mil_endpoint mil_endpoint))

let mil_config =
  G.map2
    (fun modules apps -> { Dr_mil.Spec.modules; apps })
    (G.list_size (G.int_bound 3) mil_module)
    (G.list_size (G.int_bound 2) mil_application)

(* ------------------------------------------------------------- images *)

let value_scalar =
  G.oneof
    [ G.map (fun i -> Dr_state.Value.Vint i) G.int;
      G.map
        (fun f ->
          Dr_state.Value.Vfloat (if Float.is_nan f then 0.25 else f))
        G.float;
      G.map (fun b -> Dr_state.Value.Vbool b) G.bool;
      G.map (fun s -> Dr_state.Value.Vstr s) G.string_printable;
      G.return Dr_state.Value.Vnull ]

let value =
  G.oneof
    [ value_scalar;
      G.map (fun b -> Dr_state.Value.Varr (abs b)) G.small_nat;
      G.map2
        (fun b o -> Dr_state.Value.Vptr (abs b, abs o))
        G.small_nat G.small_nat ]

let value_32bit =
  (* values representable on a 32-bit architecture *)
  let int32ish = G.map (fun i -> i mod 0x40000000) G.int in
  G.oneof
    [ G.map (fun i -> Dr_state.Value.Vint i) int32ish;
      G.map
        (fun f -> Dr_state.Value.Vfloat (if Float.is_nan f then 0.25 else f))
        G.float;
      G.map (fun b -> Dr_state.Value.Vbool b) G.bool;
      G.map (fun s -> Dr_state.Value.Vstr s) G.string_printable;
      G.return Dr_state.Value.Vnull;
      G.map (fun b -> Dr_state.Value.Varr (abs b)) G.small_nat ]

let record value_gen =
  G.map2
    (fun location values -> { Dr_state.Image.location; values })
    G.small_nat
    (G.list_size (G.int_bound 5) value_gen)

let heap_block value_gen =
  G.map2
    (fun elem_ty cells ->
      { Dr_state.Image.elem_ty; cells = Array.of_list cells })
    ty
    (G.list_size (G.int_bound 5) value_gen)

let image_with value_gen =
  G.map2
    (fun records blocks ->
      let heap = List.mapi (fun i b -> (i, b)) blocks in
      Dr_state.Image.make ~source_module:"generated" ~records ~heap)
    (G.list_size (G.int_bound 5) (record value_gen))
    (G.list_size (G.int_bound 3) (heap_block value_gen))

let image = image_with value

let image_32bit = image_with value_32bit
