type port = Packet.t -> unit
