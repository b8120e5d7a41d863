(** Point-to-point link with serialization and propagation delay, on the
    discrete-event simulator: the reference {!Netsim.Linkstage} is tested
    against.

    A link is a single transmitter: a packet occupies the wire for
    [size * 8 / bandwidth] seconds; packets arriving while the wire is busy
    wait in FIFO order.  This serialization queue behind cross traffic is
    precisely the source of the paper's δ_net disturbance.

    Tie rule (shared with {!Netsim.Linkstage}): departures first.  A
    transmission that finishes at instant [t] has left the queue before
    any packet arriving at [t] is counted, so the depth a send checks
    against [queue_limit] and records as the high-water mark never
    depends on the order the simulator dispatches same-instant events. *)

type t

type port = Netsim.Link.port

val create :
  Desim.Sim.t ->
  bandwidth_bps:float ->
  ?propagation:float ->
  ?queue_limit:int ->
  dest:port ->
  unit ->
  t
(** [queue_limit] bounds the number of packets waiting or in transmission
    (default unbounded); beyond it packets are dropped and counted.
    [bandwidth_bps > 0], [propagation >= 0]. *)

val send : t -> Netsim.Packet.t -> unit
(** Enqueue a packet for transmission at the current simulation time. *)

val port : t -> port
(** [send] as a port, for wiring into upstream components. *)

val sent : t -> int
(** Packets fully transmitted so far. *)

val dropped : t -> int
val queue_depth : t -> int
(** Packets currently waiting or in transmission, departures first: a
    packet whose transmission finishes at the current instant no longer
    counts. *)

val utilization : t -> float
(** Fraction of elapsed time (since creation) the wire was transmitting. *)
