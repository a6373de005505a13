module Bin_util = Dr_state.Bin_util

type config = { segment_bytes : int; sync_every : int }

let default_config = { segment_bytes = 64 * 1024; sync_every = 1 }

type open_report = {
  or_segments : int;
  or_records : int;
  or_truncated_bytes : int;
  or_last_lsn : int;
}

type t = {
  storage : Storage.t;
  config : config;
  mutable next : int;  (* next LSN to assign *)
  mutable durable : int;  (* highest synced LSN *)
  mutable cp : int;  (* checkpoint LSN *)
  mutable cp_state : bytes option;
  mutable active : string;  (* active segment blob name *)
  mutable active_bytes : int;
  mutable segs : (string * int) list;  (* (name, first LSN), ascending *)
  mutable unsynced : int;
  mutable since_cp : int;
  mutable n_appends : int;
  mutable n_syncs : int;
  report : open_report;
}

let manifest_blob = "MANIFEST"
let manifest_magic = "DRWALMF1"
let seg_name lsn = Printf.sprintf "seg-%012d.wal" lsn
let ckpt_name lsn = Printf.sprintf "ckpt-%012d" lsn

let seg_lsn name = Scanf.sscanf_opt name "seg-%12d.wal%!" (fun n -> n)
let ckpt_lsn name = Scanf.sscanf_opt name "ckpt-%12d%!" (fun n -> n)

(* ------------------------------------------------------------ framing *)

(* [u32 length][u32 crc of payload][payload]: the frame is allocated
   whole, [fill] writes the [len]-byte payload at offset 8, and the CRC is
   computed there — the payload's bytes are copied once, into the frame. *)
let framed len fill =
  let out = Bytes.create (8 + len) in
  Bytes.set_int32_be out 0 (Int32.of_int len);
  fill out;
  Bytes.set_int32_be out 4 (Bin_util.crc32_sub out ~off:8 ~len);
  out

(* a CRC-framed payload at [off] of [data] is intact *)
let frame_ok data ~off ~len =
  Int32.equal (Bytes.get_int32_be data (off + 4))
    (Bin_util.crc32_sub data ~off:(off + 8) ~len)

(* log record payload = i64 lsn, u8 kind, body; [blit out off] writes
   the [len]-byte body at [off] *)
let frame ~lsn ~kind ~len blit =
  framed (9 + len) (fun out ->
      Bytes.set_int64_be out 8 (Int64.of_int lsn);
      Bytes.set_uint8 out 16 kind;
      blit out 17)

(* ----------------------------------------------------------- scanning *)

type scan = {
  sc_records : (int * int * bytes) list;  (* ascending LSN *)
  sc_segments : (string * int) list;
  sc_ckpts : int list;
  sc_manifest_cp : int option;  (* None: no manifest blob *)
  sc_torn : (string * int) option;  (* last segment name, clean length *)
  sc_truncated_bytes : int;
  sc_last_lsn : int;  (* 0 when empty *)
}

let read_manifest storage =
  match storage.Storage.st_read manifest_blob with
  | Error _ -> Ok None
  | Ok data ->
    let n = Bytes.length data in
    let ml = String.length manifest_magic in
    if n < ml + 8 + 4 then Error "manifest truncated"
    else if not (String.equal (Bytes.sub_string data 0 ml) manifest_magic) then
      Error "manifest has a bad magic"
    else if
      not
        (Int32.equal
           (Bytes.get_int32_be data (n - 4))
           (Bin_util.crc32_sub data ~off:0 ~len:(n - 4)))
    then Error "manifest checksum mismatch"
    else Ok (Some (Int64.to_int (Bytes.get_int64_be data ml)))

let write_manifest storage ~cp =
  let data =
    Bin_util.with_buffer @@ fun buf ->
    Bin_util.write_bytes buf manifest_magic;
    Bin_util.write_i64 buf ~big:true cp;
    Bin_util.sealed buf
  in
  storage.Storage.st_write manifest_blob data

let read_ckpt storage lsn =
  match storage.Storage.st_read (ckpt_name lsn) with
  | Error _ -> None
  | Ok data ->
    let n = Bytes.length data in
    if n < 8 then None
    else
      let len = Int32.to_int (Bytes.get_int32_be data 0) in
      if len < 0 || len <> n - 8 || not (frame_ok data ~off:0 ~len) then None
      else Some (Bytes.sub data 8 len)

let write_ckpt storage lsn state =
  let n = Bytes.length state in
  storage.Storage.st_write (ckpt_name lsn)
    (framed n (fun out -> Bytes.blit state 0 out 8 n))

(* Decode one segment blob. [last] controls torn-tail handling: a
   record that is short, oversized or checksum-damaged in the last
   segment is a torn tail (return the clean prefix length); anywhere
   else it is damage and the scan fails loudly. *)
let scan_segment ~name ~first_lsn ~expected_lsn ~last data =
  let total = Bytes.length data in
  let records = ref [] in
  let expected = ref expected_lsn in
  let off = ref 0 in
  let torn = ref None in
  let err = ref None in
  let fail fmt =
    Printf.ksprintf (fun m -> err := Some (Printf.sprintf "segment %s: %s" name m)) fmt
  in
  let tear () = if last then torn := Some !off else fail "corrupt record at offset %d (not the log tail — refusing to recover)" !off
  in
  (match seg_lsn name with
  | Some n when n <> first_lsn -> assert false
  | Some n when n <> expected_lsn ->
    if n < expected_lsn then
      fail "overlaps the previous segment (starts at LSN %d, expected %d)" n
        expected_lsn
    else fail "LSN gap (starts at %d, expected %d)" n expected_lsn
  | _ -> ());
  while !err = None && !torn = None && !off < total do
    let remaining = total - !off in
    if remaining < 8 then tear ()
    else begin
      let len = Int32.to_int (Bytes.get_int32_be data !off) in
      if len < 9 || len > remaining - 8 || not (frame_ok data ~off:!off ~len)
      then tear ()
      else begin
        (* verified in place; the body is the one copy taken *)
        let lsn = Int64.to_int (Bytes.get_int64_be data (!off + 8)) in
        if lsn <> !expected then
          fail "record at offset %d has LSN %d, expected %d" !off lsn !expected
        else begin
          let kind = Bytes.get_uint8 data (!off + 16) in
          let body = Bytes.sub data (!off + 17) (len - 9) in
          records := (lsn, kind, body) :: !records;
          incr expected;
          off := !off + 8 + len
        end
      end
    end
  done;
  match !err with
  | Some e -> Error e
  | None -> Ok (List.rev !records, !expected, !torn)

let scan_storage storage =
  let ( let* ) = Result.bind in
  let blobs = storage.Storage.st_list () in
  let* () =
    List.fold_left
      (fun acc name ->
        let* () = acc in
        if
          String.equal name manifest_blob
          || Option.is_some (seg_lsn name)
          || Option.is_some (ckpt_lsn name)
          || Filename.check_suffix name ".tmp"
        then Ok ()
        else Error (Printf.sprintf "unexpected blob %s in the log" name))
      (Ok ()) blobs
  in
  let* manifest_cp = read_manifest storage in
  let segments =
    List.filter_map (fun n -> Option.map (fun l -> (n, l)) (seg_lsn n)) blobs
  in
  let ckpts = List.filter_map ckpt_lsn blobs in
  let* () =
    match manifest_cp with
    | None when segments <> [] || ckpts <> [] ->
      Error "log has segments but no readable manifest"
    | _ -> Ok ()
  in
  let segments = List.sort (fun (_, a) (_, b) -> compare a b) segments in
  let n_segments = List.length segments in
  let* records, last_lsn, torn, truncated =
    List.fold_left
      (fun acc (i, (name, first_lsn)) ->
        let* records, expected, _, _ = acc in
        let expected =
          if expected = 0 then first_lsn (* first retained segment *)
          else expected
        in
        let* data =
          Result.map_error
            (fun e -> Printf.sprintf "segment %s unreadable: %s" name e)
            (storage.Storage.st_read name)
        in
        let last = i = n_segments - 1 in
        let* segment_records, expected, torn =
          scan_segment ~name ~first_lsn ~expected_lsn:expected ~last data
        in
        let torn, truncated =
          match torn with
          | Some clean -> (Some (name, clean), Bytes.length data - clean)
          | None -> (None, 0)
        in
        Ok (List.rev_append segment_records records, expected, torn, truncated))
      (Ok ([], 0, None, 0))
      (List.mapi (fun i s -> (i, s)) segments)
  in
  let last_lsn = if last_lsn = 0 then 0 else last_lsn - 1 in
  let* () =
    match manifest_cp with
    | Some cp when cp > last_lsn + 1 && not (last_lsn = 0 && segments = []) ->
      Error
        (Printf.sprintf "manifest checkpoint %d is beyond the log head %d" cp
           (last_lsn + 1))
    | Some cp -> (
      match List.filter (fun l -> l > cp) ckpts with
      | [] -> Ok ()
      | l :: _ ->
        Error
          (Printf.sprintf
             "manifest checkpoint %d is behind checkpoint blob %d (checkpoints \
              must be monotonic)"
             cp l))
    | None -> Ok ()
  in
  Ok
    { sc_records = List.rev records;
      sc_segments = segments;
      sc_ckpts = ckpts;
      sc_manifest_cp = manifest_cp;
      sc_torn = torn;
      sc_truncated_bytes = truncated;
      sc_last_lsn = last_lsn }

(* ------------------------------------------------------------- opening *)

let create ?(config = default_config) storage =
  let ( let* ) = Result.bind in
  (* sweep temp files left by an interrupted atomic write *)
  List.iter
    (fun name ->
      if Filename.check_suffix name ".tmp" then storage.Storage.st_delete name)
    (storage.Storage.st_list ());
  let* scan = scan_storage storage in
  (* heal the torn tail: rewrite the last segment as its clean prefix *)
  (match scan.sc_torn with
  | None -> ()
  | Some (name, clean) -> (
    match storage.Storage.st_read name with
    | Error _ -> ()
    | Ok data -> storage.Storage.st_write name (Bytes.sub data 0 clean)));
  let cp = match scan.sc_manifest_cp with Some cp -> cp | None -> 1 in
  if scan.sc_manifest_cp = None then write_manifest storage ~cp;
  (* finish any garbage collection a crash interrupted *)
  let segs =
    List.filter
      (fun (name, first) ->
        let last_of_seg =
          (* a segment ends where the next one starts *)
          match
            List.find_opt (fun (_, f) -> f > first) scan.sc_segments
          with
          | Some (_, next_first) -> next_first - 1
          | None -> scan.sc_last_lsn
        in
        if last_of_seg < cp && first < cp then begin
          storage.Storage.st_delete name;
          false
        end
        else true)
      scan.sc_segments
  in
  List.iter
    (fun l -> if l < cp then storage.Storage.st_delete (ckpt_name l))
    scan.sc_ckpts;
  let next = max (scan.sc_last_lsn + 1) cp in
  let active, active_bytes =
    match List.rev segs with
    | (name, _) :: _ ->
      let size =
        match storage.Storage.st_read name with
        | Ok d -> Bytes.length d
        | Error _ -> 0
      in
      (name, size)
    | [] -> (seg_name next, 0)
  in
  let live = List.filter (fun (lsn, _, _) -> lsn >= cp) scan.sc_records in
  Ok
    { storage;
      config;
      next;
      durable = next - 1;
      cp;
      cp_state = read_ckpt storage cp;
      active;
      active_bytes;
      segs = (if segs = [] then [ (active, next) ] else segs);
      unsynced = 0;
      since_cp = List.fold_left (fun a (_, _, b) -> a + Bytes.length b) 0 live;
      n_appends = 0;
      n_syncs = 0;
      report =
        { or_segments = List.length scan.sc_segments;
          or_records = List.length live;
          or_truncated_bytes = scan.sc_truncated_bytes;
          or_last_lsn = scan.sc_last_lsn } }

let open_report t = t.report

(* ------------------------------------------------------------ appending *)

let sync t =
  if t.unsynced > 0 then begin
    t.storage.Storage.st_sync ();
    t.n_syncs <- t.n_syncs + 1;
    t.unsynced <- 0
  end;
  t.durable <- t.next - 1

let append_framed t ~kind ~len blit =
  let lsn = t.next in
  let data = frame ~lsn ~kind ~len blit in
  if t.active_bytes > 0 && t.active_bytes + Bytes.length data > t.config.segment_bytes
  then begin
    sync t;
    t.active <- seg_name lsn;
    t.active_bytes <- 0;
    t.segs <- t.segs @ [ (t.active, lsn) ]
  end;
  t.storage.Storage.st_append t.active data;
  t.active_bytes <- t.active_bytes + Bytes.length data;
  t.since_cp <- t.since_cp + len;
  t.n_appends <- t.n_appends + 1;
  t.next <- t.next + 1;
  t.unsynced <- t.unsynced + 1;
  if t.unsynced >= t.config.sync_every then sync t;
  lsn

let append t ~kind body =
  let len = Bytes.length body in
  append_framed t ~kind ~len (fun out off -> Bytes.blit body 0 out off len)

let append_buffer t ~kind buf =
  let len = Buffer.length buf in
  append_framed t ~kind ~len (fun out off -> Buffer.blit buf 0 out off len)

let next_lsn t = t.next
let durable_lsn t = t.durable
let checkpoint_lsn t = t.cp
let checkpoint_state t = t.cp_state
let bytes_since_checkpoint t = t.since_cp
let appends t = t.n_appends
let syncs t = t.n_syncs
let segment_names t = List.map fst t.segs

(* --------------------------------------------------------- checkpointing *)

let checkpoint ?(state = Bytes.create 0) t =
  sync t;
  let cp = t.next in
  (* blob first, manifest second, deletes last: a crash at any point
     leaves either the old checkpoint fully valid or the new one, and
     [create] finishes the interrupted GC *)
  write_ckpt t.storage cp state;
  write_manifest t.storage ~cp;
  let fresh = seg_name cp in
  if not (String.equal t.active fresh) || t.active_bytes > 0 then begin
    List.iter (fun (name, _) -> t.storage.Storage.st_delete name) t.segs;
    t.active <- fresh;
    t.active_bytes <- 0;
    t.segs <- [ (fresh, cp) ]
  end;
  List.iter
    (fun name ->
      match ckpt_lsn name with
      | Some l when l < cp -> t.storage.Storage.st_delete name
      | _ -> ())
    (t.storage.Storage.st_list ());
  t.cp <- cp;
  t.cp_state <- Some state;
  t.since_cp <- 0

(* ------------------------------------------------------------- reading *)

let records t =
  match scan_storage t.storage with
  | Error e -> invalid_arg ("wal: live scan failed: " ^ e)
  | Ok scan -> List.filter (fun (lsn, _, _) -> lsn >= t.cp) scan.sc_records

let check_invariants t =
  match scan_storage t.storage with
  | Error e -> Error e
  | Ok scan -> (
    match scan.sc_manifest_cp with
    | None -> Error "no manifest"
    | Some cp ->
      if cp <> t.cp then
        Error
          (Printf.sprintf "stored checkpoint %d disagrees with memory %d" cp
             t.cp)
      else if scan.sc_torn <> None then Error "live log has a torn tail"
      else Ok ())
