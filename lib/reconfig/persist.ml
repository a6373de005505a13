module Bus = Dr_bus.Bus
module Value = Dr_state.Value
module Image = Dr_state.Image
module Codec = Dr_state.Codec
module Wire = Codec.Wire
module Bin_util = Dr_state.Bin_util

type entry =
  | Added_route of Bus.endpoint * Bus.endpoint
  | Deleted_route of Bus.endpoint * Bus.endpoint
  | Moved_queue of { mq_src : Bus.endpoint; mq_dst : Bus.endpoint }
  | Dropped_queue of Bus.endpoint * Value.t list
  | Spawned of string
  | Killed of {
      k_instance : string;
      k_module : string;
      k_host : string;
      k_spec : Dr_mil.Spec.module_spec option;
      k_queues : (string * Value.t list) list;
    }
  | Armed_divulge of string
  | Divulged of {
      d_cap : Primitives.module_cap;
      d_image : Image.t;
      d_container : bytes;
    }
  | Renamed_transport of { rt_old : string; rt_new : string; rt_fence : bool }

type record =
  | Begin of { sid : int; label : string }
  | Entry of { sid : int; entry : entry }
  | Commit of { sid : int }
  | Abort of { sid : int; reason : string }
  | Undo_done of { sid : int; index : int }
  | Abort_done of { sid : int }
  | Wave_begin of { wid : int; w_group : (string * string) list; w_target : string }
  | Wave_replica_done of { wid : int; wr_slot : string; wr_instance : string }
  | Wave_commit of { wid : int }
  | Wave_abort of { wid : int; w_reason : string }

let malformed fmt = Format.kasprintf (fun s -> raise (Codec.Malformed s)) fmt

(* ------------------------------------------------------------- helpers *)

let w_ep buf (a, b) =
  Wire.write_string buf a;
  Wire.write_string buf b

let r_ep r =
  let a = Wire.read_string r in
  let b = Wire.read_string r in
  (a, b)

let w_list w buf l =
  Wire.write_int buf (List.length l);
  List.iter (w buf) l

let r_list rd r =
  let n = Wire.read_int r in
  if n < 0 || n > 1_000_000 then malformed "bad list length %d" n;
  List.init n (fun _ -> rd r)

let w_opt w buf = function
  | None -> Bin_util.write_u8 buf 0
  | Some v ->
    Bin_util.write_u8 buf 1;
    w buf v

let r_opt rd r =
  match Bin_util.read_u8 r with
  | 0 -> None
  | 1 -> Some (rd r)
  | tag -> malformed "bad option tag %d" tag

let w_bool buf b = Bin_util.write_u8 buf (if b then 1 else 0)
let r_bool r = Bin_util.read_u8 r <> 0

(* images travel as complete DRIMG2 containers: double integrity (the
   container CRC inside the log record's CRC), and one codec for every
   durable artefact. The container is the one the move ships, written
   verbatim. *)
let w_container buf container =
  Wire.write_string buf (Bytes.unsafe_to_string container)

(* The embedded container is copied once out of the record, and the
   entry keeps it beside its image. The string is fresh and never
   escapes as a string, so viewing it as bytes is safe. *)
let r_container r =
  let container = Bytes.unsafe_of_string (Wire.read_string r) in
  match Codec.decode_abstract container with
  | Ok image -> (image, container)
  | Error e -> malformed "embedded image: %s" e

(* Module specifications round-trip through the MIL surface syntax. A
   move journals its module's spec twice (the divulged capture and the
   kill), and every move of a configuration journals the same few spec
   values, so each is printed once: the memo maps a spec, by physical
   equality, to its text (a spec is immutable, so its text cannot
   change). It is dropped whole when full; correctness never depends on
   a hit. *)
let spec_texts : (Dr_mil.Spec.module_spec * string) list ref = ref []
let spec_texts_max = 8

let spec_text spec =
  match List.assq_opt spec !spec_texts with
  | Some text -> text
  | None ->
    let text = Format.asprintf "%a" Dr_mil.Mil_pretty.pp_module spec in
    if List.length !spec_texts >= spec_texts_max then spec_texts := [];
    spec_texts := (spec, text) :: !spec_texts;
    text

let w_spec buf spec = Wire.write_string buf (spec_text spec)

let r_spec r =
  let text = Wire.read_string r in
  match (Dr_mil.Mil_parser.parse_config text).Dr_mil.Spec.modules with
  | [ m ] -> m
  | l -> malformed "embedded spec: expected 1 module, found %d" (List.length l)
  | exception Dr_mil.Mil_parser.Error (e, line) ->
    malformed "embedded spec: parse error at line %d: %s" line e
  | exception Dr_lang.Lexer.Error (e, line) ->
    malformed "embedded spec: lexical error at line %d: %s" line e

let w_queues buf qs =
  w_list
    (fun buf (iface, values) ->
      Wire.write_string buf iface;
      w_list Wire.write_value buf values)
    buf qs

let r_queues r =
  r_list
    (fun r ->
      let iface = Wire.read_string r in
      let values = r_list Wire.read_value r in
      (iface, values))
    r

let w_cap buf (c : Primitives.module_cap) =
  Wire.write_string buf c.cap_instance;
  Wire.write_string buf c.cap_module;
  Wire.write_string buf c.cap_host;
  w_opt w_spec buf c.cap_spec;
  w_list (fun buf s -> Wire.write_string buf s) buf c.cap_ifaces;
  w_list (fun buf (s, d) -> w_ep buf s; w_ep buf d) buf c.cap_out_routes;
  w_list (fun buf (s, d) -> w_ep buf s; w_ep buf d) buf c.cap_in_routes

let r_cap r : Primitives.module_cap =
  let cap_instance = Wire.read_string r in
  let cap_module = Wire.read_string r in
  let cap_host = Wire.read_string r in
  let cap_spec = r_opt r_spec r in
  let cap_ifaces = r_list Wire.read_string r in
  let r_route r =
    let s = r_ep r in
    let d = r_ep r in
    (s, d)
  in
  let cap_out_routes = r_list r_route r in
  let cap_in_routes = r_list r_route r in
  { cap_instance; cap_module; cap_host; cap_spec; cap_ifaces; cap_out_routes;
    cap_in_routes }

(* -------------------------------------------------------------- entries *)

let w_entry buf = function
  | Added_route (src, dst) ->
    Bin_util.write_u8 buf 1;
    w_ep buf src;
    w_ep buf dst
  | Deleted_route (src, dst) ->
    Bin_util.write_u8 buf 2;
    w_ep buf src;
    w_ep buf dst
  | Moved_queue { mq_src; mq_dst } ->
    Bin_util.write_u8 buf 3;
    w_ep buf mq_src;
    w_ep buf mq_dst
  | Dropped_queue (ep, values) ->
    Bin_util.write_u8 buf 4;
    w_ep buf ep;
    w_list Wire.write_value buf values
  | Spawned instance ->
    Bin_util.write_u8 buf 5;
    Wire.write_string buf instance
  | Killed { k_instance; k_module; k_host; k_spec; k_queues } ->
    (* tag 6 was the layout that also carried an image, and tags 10 and
       11 the pre-copy base and delta divulge: all retired, so an old
       log fails to decode instead of being mis-read *)
    Bin_util.write_u8 buf 12;
    Wire.write_string buf k_instance;
    Wire.write_string buf k_module;
    Wire.write_string buf k_host;
    w_opt w_spec buf k_spec;
    w_queues buf k_queues
  | Armed_divulge instance ->
    Bin_util.write_u8 buf 7;
    Wire.write_string buf instance
  | Divulged { d_cap; d_container; _ } ->
    Bin_util.write_u8 buf 8;
    w_cap buf d_cap;
    w_container buf d_container
  | Renamed_transport { rt_old; rt_new; rt_fence } ->
    Bin_util.write_u8 buf 9;
    Wire.write_string buf rt_old;
    Wire.write_string buf rt_new;
    w_bool buf rt_fence

let r_entry r =
  match Bin_util.read_u8 r with
  | 1 ->
    let src = r_ep r in
    let dst = r_ep r in
    Added_route (src, dst)
  | 2 ->
    let src = r_ep r in
    let dst = r_ep r in
    Deleted_route (src, dst)
  | 3 ->
    let mq_src = r_ep r in
    let mq_dst = r_ep r in
    Moved_queue { mq_src; mq_dst }
  | 4 ->
    let ep = r_ep r in
    let values = r_list Wire.read_value r in
    Dropped_queue (ep, values)
  | 5 -> Spawned (Wire.read_string r)
  | 7 -> Armed_divulge (Wire.read_string r)
  | 8 ->
    let d_cap = r_cap r in
    let d_image, d_container = r_container r in
    Divulged { d_cap; d_image; d_container }
  | 9 ->
    let rt_old = Wire.read_string r in
    let rt_new = Wire.read_string r in
    let rt_fence = r_bool r in
    Renamed_transport { rt_old; rt_new; rt_fence }
  | 12 ->
    let k_instance = Wire.read_string r in
    let k_module = Wire.read_string r in
    let k_host = Wire.read_string r in
    let k_spec = r_opt r_spec r in
    let k_queues = r_queues r in
    Killed { k_instance; k_module; k_host; k_spec; k_queues }
  | tag -> malformed "unknown journal entry tag %d" tag

(* -------------------------------------------------------------- records *)

let kind_begin = 1
let kind_entry = 2
let kind_commit = 3
let kind_abort = 4
let kind_undo_done = 5
let kind_abort_done = 6
let kind_wave_begin = 7
let kind_wave_replica_done = 8
let kind_wave_commit = 9
let kind_wave_abort = 10

let kind_of = function
  | Begin _ -> kind_begin
  | Entry _ -> kind_entry
  | Commit _ -> kind_commit
  | Abort _ -> kind_abort
  | Undo_done _ -> kind_undo_done
  | Abort_done _ -> kind_abort_done
  | Wave_begin _ -> kind_wave_begin
  | Wave_replica_done _ -> kind_wave_replica_done
  | Wave_commit _ -> kind_wave_commit
  | Wave_abort _ -> kind_wave_abort

let is_wave_kind kind = kind >= kind_wave_begin && kind <= kind_wave_abort

let sid_of = function
  | Begin { sid; _ }
  | Entry { sid; _ }
  | Commit { sid }
  | Abort { sid; _ }
  | Undo_done { sid; _ }
  | Abort_done { sid } ->
    sid
  | Wave_begin { wid; _ }
  | Wave_replica_done { wid; _ }
  | Wave_commit { wid }
  | Wave_abort { wid; _ } ->
    wid

let encode_into buf record =
  Wire.write_int buf (sid_of record);
  match record with
  | Begin { label; _ } -> Wire.write_string buf label
  | Entry { entry; _ } -> w_entry buf entry
  | Commit _ | Abort_done _ | Wave_commit _ -> ()
  | Abort { reason; _ } -> Wire.write_string buf reason
  | Undo_done { index; _ } -> Wire.write_int buf index
  | Wave_begin { w_group; w_target; _ } ->
    w_list
      (fun buf (slot, instance) ->
        Wire.write_string buf slot;
        Wire.write_string buf instance)
      buf w_group;
    Wire.write_string buf w_target
  | Wave_replica_done { wr_slot; wr_instance; _ } ->
    Wire.write_string buf wr_slot;
    Wire.write_string buf wr_instance
  | Wave_abort { w_reason; _ } -> Wire.write_string buf w_reason

let encode record =
  Bin_util.with_buffer @@ fun buf ->
  encode_into buf record;
  Buffer.to_bytes buf

(* Frame the record straight out of the pooled buffer: one copy. *)
let append wal record =
  Bin_util.with_buffer @@ fun buf ->
  encode_into buf record;
  Dr_wal.Wal.append_buffer wal ~kind:(kind_of record) buf

let decode ~kind body =
  Wire.guarded @@ fun () ->
  let r = Bin_util.reader body in
  let sid = Wire.read_int r in
  if sid < 1 then malformed "bad script id %d" sid;
  let record =
    if kind = kind_begin then Begin { sid; label = Wire.read_string r }
    else if kind = kind_entry then Entry { sid; entry = r_entry r }
    else if kind = kind_commit then Commit { sid }
    else if kind = kind_abort then Abort { sid; reason = Wire.read_string r }
    else if kind = kind_undo_done then
      Undo_done { sid; index = Wire.read_int r }
    else if kind = kind_abort_done then Abort_done { sid }
    else if kind = kind_wave_begin then begin
      let w_group =
        r_list
          (fun r ->
            let slot = Wire.read_string r in
            let instance = Wire.read_string r in
            (slot, instance))
          r
      in
      let w_target = Wire.read_string r in
      Wave_begin { wid = sid; w_group; w_target }
    end
    else if kind = kind_wave_replica_done then begin
      let wr_slot = Wire.read_string r in
      let wr_instance = Wire.read_string r in
      Wave_replica_done { wid = sid; wr_slot; wr_instance }
    end
    else if kind = kind_wave_commit then Wave_commit { wid = sid }
    else if kind = kind_wave_abort then
      Wave_abort { wid = sid; w_reason = Wire.read_string r }
    else malformed "unknown control-log record kind %d" kind
  in
  if Bin_util.remaining r <> 0 then
    malformed "%d trailing byte(s) in control-log record" (Bin_util.remaining r);
  record

let describe_entry = function
  | Added_route (s, d) ->
    Printf.sprintf "add %s.%s -> %s.%s" (fst s) (snd s) (fst d) (snd d)
  | Deleted_route (s, d) ->
    Printf.sprintf "del %s.%s -> %s.%s" (fst s) (snd s) (fst d) (snd d)
  | Moved_queue { mq_src = s; mq_dst = d } ->
    Printf.sprintf "cq %s.%s -> %s.%s" (fst s) (snd s) (fst d) (snd d)
  | Dropped_queue (ep, vs) ->
    Printf.sprintf "rmq %s.%s (%d message(s))" (fst ep) (snd ep)
      (List.length vs)
  | Spawned i -> Printf.sprintf "spawned %s" i
  | Killed { k_instance; _ } -> Printf.sprintf "killed %s" k_instance
  | Armed_divulge i -> Printf.sprintf "armed divulge for %s" i
  | Divulged { d_cap; d_image; _ } ->
    Printf.sprintf "%s divulged %d byte(s), digest %016Lx"
      d_cap.Primitives.cap_instance
      (Image.byte_size d_image) (Image.digest d_image)
  | Renamed_transport { rt_old; rt_new; rt_fence } ->
    Printf.sprintf "renamed transport %s -> %s%s" rt_old rt_new
      (if rt_fence then " (fenced)" else "")

let describe = function
  | Begin { sid; label } -> Printf.sprintf "begin   #%d %s" sid label
  | Entry { sid; entry } -> Printf.sprintf "entry   #%d %s" sid (describe_entry entry)
  | Commit { sid } -> Printf.sprintf "commit  #%d" sid
  | Abort { sid; reason } -> Printf.sprintf "abort   #%d %s" sid reason
  | Undo_done { sid; index } -> Printf.sprintf "undone  #%d step %d" sid index
  | Abort_done { sid } -> Printf.sprintf "aborted #%d" sid
  | Wave_begin { wid; w_group; w_target } ->
    Printf.sprintf "wave    #%d begin: %d replica(s) -> %s" wid
      (List.length w_group) w_target
  | Wave_replica_done { wid; wr_slot; wr_instance } ->
    Printf.sprintf "wave    #%d slot %s now %s" wid wr_slot wr_instance
  | Wave_commit { wid } -> Printf.sprintf "wave    #%d committed" wid
  | Wave_abort { wid; w_reason } ->
    Printf.sprintf "wave    #%d aborted: %s" wid w_reason
