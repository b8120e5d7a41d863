(** The wiring type of the event-driven components.

    The gateway, the tap, the fault injectors and the fleet mux hand
    packets on through a port.  The link transmitter itself is the
    fused {!Linkstage}. *)

type port = Packet.t -> unit
(** A packet consumer, invoked at the packet's arrival instant. *)
