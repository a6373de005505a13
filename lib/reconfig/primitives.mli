(** Reconfiguration primitives (the mh_ script operations of Fig. 5 and
    of [Purtilo & Hofmeister 1991]).

    These are the building blocks scripts are written with: capture the
    current specification of a module ([obj_cap]), prepare and atomically
    apply batches of binding edits ([bind_cap]/[edit_bind]/[rebind]),
    move divulged state between modules ([objstate_move]), and add or
    remove module instances ([chg_obj]). *)

type module_cap = {
  cap_instance : string;
  cap_module : string;
  cap_host : string;
  cap_spec : Dr_mil.Spec.module_spec option;
  cap_ifaces : string list;
      (** interface names, from the spec when present, otherwise from the
          live routing table *)
  cap_out_routes : (Dr_bus.Bus.endpoint * Dr_bus.Bus.endpoint) list;
  cap_in_routes : (Dr_bus.Bus.endpoint * Dr_bus.Bus.endpoint) list;
}

val obj_cap : Dr_bus.Bus.t -> instance:string -> (module_cap, string) result
(** Snapshot of the {e current} configuration of a module — which may
    have changed dynamically since the original specification. *)

type bind_command =
  | Add of Dr_bus.Bus.endpoint * Dr_bus.Bus.endpoint
  | Del of Dr_bus.Bus.endpoint * Dr_bus.Bus.endpoint
  | Copy_queue of Dr_bus.Bus.endpoint * Dr_bus.Bus.endpoint
  | Remove_queue of Dr_bus.Bus.endpoint

type bind_batch

val bind_cap : unit -> bind_batch

val edit_bind : bind_batch -> bind_command -> unit

val batch_commands : bind_batch -> bind_command list

val rebind : Dr_bus.Bus.t -> bind_batch -> unit
(** Apply every command in the batch, in order, at one instant of
    virtual time ("the rebinding commands are applied all at once"). *)

val objstate_move :
  Dr_bus.Bus.t ->
  old_instance:string ->
  deliver:(Dr_state.Image.t -> unit) ->
  unit ->
  unit
(** Signal [old_instance] to divulge its state at its next
    reconfiguration point, and pass the resulting image to [deliver]
    when it arrives (asynchronously, in virtual time). *)

val translate_image :
  Dr_bus.Bus.t ->
  ?for_instance:string ->
  dst_host:string ->
  bytes ->
  (Dr_state.Image.t, string) result
(** Ship an image as a real heterogeneous migration would: the abstract
    container its source encoded ({!Dr_state.Codec.encode_abstract}) is
    decoded once by the destination, for its own word
    ({!Dr_state.Codec.decode_for}). Fails when a value cannot be
    represented on the destination architecture. With
    [?for_instance]: an armed {!Dr_bus.Bus.arm_image_corruption} fault
    corrupts a copy of the bytes in flight (the codec's checksum catches
    it; the caller's container stays intact), and any translation
    failure quarantines the image against that instance, with the
    container's length as its size. *)

val chg_obj_add :
  Dr_bus.Bus.t ->
  instance:string ->
  module_name:string ->
  host:string ->
  ?spec:Dr_mil.Spec.module_spec ->
  ?status:string ->
  unit ->
  (unit, string) result
(** Start a module instance (the script's [mh_chg_obj (new, "add")]). *)

val chg_obj_del : Dr_bus.Bus.t -> instance:string -> unit
