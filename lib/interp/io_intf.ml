(* The machine's window onto the outside world. The software bus builds
   one for all its machines, acting on the machine whose quantum is
   running; tests use in-memory stubs. *)

type t = {
  io_query : string -> bool;
      (* are messages pending on this incoming interface? *)
  io_read : string -> Dr_state.Value.t option;
      (* dequeue a message; [None] means the machine must block *)
  io_write : string -> Dr_state.Value.t -> unit;
      (* asynchronous send on an outgoing interface *)
  io_print : string -> unit;
      (* deliver program output *)
  io_now : unit -> float;
      (* current virtual time *)
  io_encode : Dr_state.Image.t -> unit;
      (* divulge a captured state image *)
  io_decode : unit -> Dr_state.Image.t option;
      (* take a delivered state image; [None] means block *)
}

let null ?(print = fun _ -> ()) () =
  { io_query = (fun _ -> false);
    io_read = (fun _ -> None);
    io_write = (fun _ _ -> ());
    io_print = print;
    io_now = (fun () -> 0.0);
    io_encode = (fun _ -> ());
    io_decode = (fun () -> None) }
