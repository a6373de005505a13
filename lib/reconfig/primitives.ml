module Image = Dr_state.Image
module Codec = Dr_state.Codec

type module_cap = {
  cap_instance : string;
  cap_module : string;
  cap_host : string;
  cap_spec : Dr_mil.Spec.module_spec option;
  cap_ifaces : string list;
  cap_out_routes : (Dr_bus.Bus.endpoint * Dr_bus.Bus.endpoint) list;
  cap_in_routes : (Dr_bus.Bus.endpoint * Dr_bus.Bus.endpoint) list;
}

let obj_cap bus ~instance =
  match Dr_bus.Bus.instance_module bus ~instance with
  | None -> Error (Printf.sprintf "no such instance %s" instance)
  | Some module_name ->
    let host = Option.get (Dr_bus.Bus.instance_host bus ~instance) in
    let spec = Dr_bus.Bus.instance_spec bus ~instance in
    let out_routes, in_routes =
      List.partition
        (fun ((src, _dst) : Dr_bus.Bus.endpoint * Dr_bus.Bus.endpoint) ->
          String.equal (fst src) instance)
        (List.filter
           (fun ((src, dst) : Dr_bus.Bus.endpoint * Dr_bus.Bus.endpoint) ->
             String.equal (fst src) instance || String.equal (fst dst) instance)
           (Dr_bus.Bus.all_routes bus))
    in
    let ifaces =
      match spec with
      | Some s -> List.map (fun i -> i.Dr_mil.Spec.if_name) s.ifaces
      | None ->
        List.sort_uniq String.compare
          (List.map (fun ((src : Dr_bus.Bus.endpoint), _) -> snd src) out_routes
          @ List.map (fun (_, (dst : Dr_bus.Bus.endpoint)) -> snd dst) in_routes)
    in
    Ok
      { cap_instance = instance;
        cap_module = module_name;
        cap_host = host;
        cap_spec = spec;
        cap_ifaces = ifaces;
        cap_out_routes = out_routes;
        cap_in_routes = in_routes }

type bind_command =
  | Add of Dr_bus.Bus.endpoint * Dr_bus.Bus.endpoint
  | Del of Dr_bus.Bus.endpoint * Dr_bus.Bus.endpoint
  | Copy_queue of Dr_bus.Bus.endpoint * Dr_bus.Bus.endpoint
  | Remove_queue of Dr_bus.Bus.endpoint

type bind_batch = { mutable commands : bind_command list }

let bind_cap () = { commands = [] }

let edit_bind batch command = batch.commands <- batch.commands @ [ command ]

let batch_commands batch = batch.commands

let rebind bus batch =
  List.iter
    (fun command ->
      match command with
      | Add (src, dst) -> Dr_bus.Bus.add_route bus ~src ~dst
      | Del (src, dst) -> Dr_bus.Bus.del_route bus ~src ~dst
      | Copy_queue (src, dst) -> Dr_bus.Bus.copy_queue bus ~src ~dst
      | Remove_queue ep -> Dr_bus.Bus.drop_queue bus ep)
    batch.commands

let objstate_move bus ~old_instance ~deliver () =
  Dr_bus.Bus.on_divulge bus ~instance:old_instance deliver;
  Dr_bus.Bus.signal_reconfig bus ~instance:old_instance

let translate_image bus ?for_instance ~src_host ~dst_host image =
  match Dr_bus.Bus.find_host bus src_host, Dr_bus.Bus.find_host bus dst_host with
  | Some src, Some dst -> (
    match Codec.Native.encode src.arch image with
    | Error e -> Error e
    | Ok native_src ->
      (* an armed [Image_corrupt] fault flips a byte of the native
         wire image here — between capture and translation, where real
         corruption would strike; the codec's checksum must catch it *)
      let native_src =
        match for_instance with
        | Some instance
          when Dr_bus.Bus.consume_image_corruption bus ~instance ->
          let corrupted = Bytes.copy native_src in
          let pos = Bytes.length corrupted / 2 in
          Bytes.set corrupted pos
            (Char.chr (Char.code (Bytes.get corrupted pos) lxor 0x5A));
          corrupted
        | _ -> native_src
      in
      (* the destination reads the source's layout itself: one decode,
         CRC included, whether or not the architectures differ *)
      let result =
        Codec.Native.receive ~src:src.arch ~dst:dst.arch native_src
      in
      (match result, for_instance with
      | Error reason, Some instance ->
        Dr_bus.Bus.quarantine_image bus ~instance ~reason
          ~byte_size:(Bytes.length native_src)
      | _ -> ());
      result)
  | None, _ -> Error (Printf.sprintf "unknown host %s" src_host)
  | _, None -> Error (Printf.sprintf "unknown host %s" dst_host)

let chg_obj_add bus ~instance ~module_name ~host ?spec ?(status = "normal") () =
  Dr_bus.Bus.spawn bus ~instance ~module_name ~host ?spec ~status ()

let chg_obj_del bus ~instance = Dr_bus.Bus.kill bus ~instance
