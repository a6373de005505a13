type t = {
  st_kind : string;
  st_list : unit -> string list;
  st_read : string -> (bytes, string) result;
  st_write : string -> bytes -> unit;
  st_append : string -> bytes -> unit;
  st_delete : string -> unit;
  st_sync : unit -> unit;
}

(* ------------------------------------------------------------- memory *)

(* Each blob is a durable prefix plus an unsynced tail, each a list of
   the chunks appended to it, newest first: an append keeps the caller's
   bytes, with no buffer to copy them into and regrow. [sync] moves the
   tail onto the prefix, [crash] discards it. A whole-blob [write] is
   modelled as immediately durable (the file backend renames a fully
   written temp file into place, which is as atomic as this layer
   gets). *)
type blob = { mutable durable : bytes list; mutable tail : bytes list }

type mem = { blobs : (string, blob) Hashtbl.t }

let memory () = { blobs = Hashtbl.create 8 }

let mem_blob m name =
  match Hashtbl.find_opt m.blobs name with
  | Some b -> b
  | None ->
    let b = { durable = []; tail = [] } in
    Hashtbl.replace m.blobs name b;
    b

let mem_contents b =
  Bytes.concat Bytes.empty (List.rev_append b.durable (List.rev b.tail))

let storage_of_mem m =
  { st_kind = "memory";
    st_list =
      (fun () ->
        List.sort String.compare
          (Hashtbl.fold (fun name _ acc -> name :: acc) m.blobs []));
    st_read =
      (fun name ->
        match Hashtbl.find_opt m.blobs name with
        | None -> Error (Printf.sprintf "no such blob %s" name)
        | Some b -> Ok (mem_contents b));
    st_write =
      (fun name data ->
        Hashtbl.replace m.blobs name
          { durable = [ Bytes.copy data ]; tail = [] });
    st_append =
      (fun name data ->
        let b = mem_blob m name in
        b.tail <- data :: b.tail);
    st_delete = (fun name -> Hashtbl.remove m.blobs name);
    st_sync =
      (fun () ->
        Hashtbl.iter
          (fun _ b ->
            match b.tail with
            | [] -> ()
            | tail ->
              b.durable <- tail @ b.durable;
              b.tail <- [])
          m.blobs) }

let crash m = Hashtbl.iter (fun _ b -> b.tail <- []) m.blobs

let corrupt_byte m ~blob ~at =
  match Hashtbl.find_opt m.blobs blob with
  | None -> invalid_arg ("corrupt_byte: no blob " ^ blob)
  | Some b ->
    let data = mem_contents b in
    if at < 0 || at >= Bytes.length data then
      invalid_arg "corrupt_byte: offset out of range";
    Bytes.set data at (Char.chr (Char.code (Bytes.get data at) lxor 0x40));
    b.durable <- [ data ];
    b.tail <- []

let truncate_blob m ~blob ~len =
  match Hashtbl.find_opt m.blobs blob with
  | None -> invalid_arg ("truncate_blob: no blob " ^ blob)
  | Some b ->
    let data = mem_contents b in
    b.durable <- [ Bytes.sub data 0 (min len (Bytes.length data)) ];
    b.tail <- []

(* --------------------------------------------------------------- file *)

let file ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
  else if not (Sys.is_directory dir) then
    invalid_arg (Printf.sprintf "wal storage: %s is not a directory" dir);
  let path name = Filename.concat dir name in
  (* buffered append channels, flushed by [sync] (group commit) *)
  let open_outs : (string, out_channel) Hashtbl.t = Hashtbl.create 4 in
  let out_for name =
    match Hashtbl.find_opt open_outs name with
    | Some oc -> oc
    | None ->
      let oc =
        open_out_gen [ Open_wronly; Open_append; Open_creat; Open_binary ]
          0o644 (path name)
      in
      Hashtbl.replace open_outs name oc;
      oc
  in
  let close_open name =
    match Hashtbl.find_opt open_outs name with
    | Some oc ->
      close_out_noerr oc;
      Hashtbl.remove open_outs name
    | None -> ()
  in
  { st_kind = "file";
    st_list =
      (fun () ->
        Hashtbl.iter (fun _ oc -> flush oc) open_outs;
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun n -> not (Sys.is_directory (path n)))
        |> List.sort String.compare);
    st_read =
      (fun name ->
        close_open name;
        try
          Ok
            (In_channel.with_open_bin (path name) (fun ic ->
                 Bytes.of_string (In_channel.input_all ic)))
        with Sys_error e -> Error e);
    st_write =
      (fun name data ->
        close_open name;
        let tmp = path (name ^ ".tmp") in
        Out_channel.with_open_bin tmp (fun oc ->
            output_bytes oc data;
            flush oc);
        Sys.rename tmp (path name));
    st_append = (fun name data -> output_bytes (out_for name) data);
    st_delete =
      (fun name ->
        close_open name;
        if Sys.file_exists (path name) then Sys.remove (path name));
    st_sync = (fun () -> Hashtbl.iter (fun _ oc -> flush oc) open_outs) }
