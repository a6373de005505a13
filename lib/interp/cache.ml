(* Content-keyed program cache. Parsing and transformation happen
   upstream; typechecking, lowering and resolution happen here, once per
   distinct program, so clone spawns, [Script.replace] retries,
   supervisor restarts, repeated deployments of the same module text and
   explored model-checking executions share one compilation. The entry
   stores the lowered table together with the resolved artifact.

   The key is a digest of the marshalled AST. The AST is plain data (no
   closures, no lazies, no mutable fields), so marshalling it is total
   and deterministic, and several times cheaper than pretty-printing it
   through [Format]. Re-parsing the same source gives the same AST and
   so the same key. Two ASTs that differ only in their [line] fields get
   different keys: the second one compiles again, which costs time but
   never correctness. *)

type artifact = {
  a_program : Dr_lang.Ast.program;
  a_code : (string, Ir.proc_code) Hashtbl.t;
  a_resolved : Resolve.program;
}

let table : (string, artifact) Hashtbl.t = Hashtbl.create 64

let hit_count = ref 0
let miss_count = ref 0

(* Bound the cache so long-running sessions that compile thousands of
   distinct programs (property tests, benches) cannot grow it without
   limit; on overflow the whole table is dropped — correctness never
   depends on a hit. *)
let max_entries = 512

let key (program : Dr_lang.Ast.program) =
  Digest.string (Marshal.to_string program [ Marshal.No_sharing ])

(* Only programs that typecheck enter the table, so a hit — the same
   AST, checked on its miss — skips the check. *)
let prepare (program : Dr_lang.Ast.program) =
  let k = key program in
  match Hashtbl.find_opt table k with
  | Some artifact ->
    incr hit_count;
    Ok artifact
  | None -> (
    match Dr_lang.Typecheck.check program with
    | Error _ as e -> e
    | Ok () ->
      incr miss_count;
      let code = Lower.lower_program program in
      let resolved = Resolve.resolve_program program code in
      let artifact =
        { a_program = program; a_code = code; a_resolved = resolved }
      in
      if Hashtbl.length table >= max_entries then Hashtbl.reset table;
      Hashtbl.replace table k artifact;
      Ok artifact)

let hits () = !hit_count
let misses () = !miss_count
let entries () = Hashtbl.length table

let reset () =
  Hashtbl.reset table;
  hit_count := 0;
  miss_count := 0
