(** Passive observation point on the discrete-event simulator — the
    simulated equivalent of the paper's Agilent J6841A line analyzer, and
    the reference for the staged pipeline's inline tap.

    A tap is spliced between two components; it timestamps packets matching
    a predicate and forwards everything untouched.  The default predicate
    records only the padded stream (payload + dummy): the adversary cannot
    tell those two apart (contents are encrypted) but can distinguish them
    from unrelated cross traffic by address, as the paper's adversary
    does when tapping the gateway-to-gateway flow. *)

type t

val create :
  Desim.Sim.t ->
  ?accept:(Netsim.Packet.t -> bool) ->
  ?buffers:Netsim.Fvec.t * Netsim.Fvec.t ->
  dest:Netsim.Link.port ->
  unit ->
  t
(** [accept] defaults to {!Netsim.Packet.is_padded}.  [buffers] optionally
    supplies recycled [(times, sizes)] recording vectors (they are
    cleared on create); sweep harnesses pass arena-owned Fvecs so
    repeated runs reuse already-grown storage instead of re-allocating
    and re-growing from scratch. *)

val port : t -> Netsim.Link.port
val count : t -> int
(** Number of recorded packets. *)

val timestamps : t -> float array
(** Arrival times of recorded packets, in order. *)

val sizes : t -> int array
(** Sizes (bytes) of recorded packets, in order — the other observable the
    paper's §3.2 remark (3) assumes away by making packets constant-size;
    exposed so the size-padding extension can mount size-based attacks. *)

val piats : t -> float array
(** Packet inter-arrival times: consecutive differences of {!timestamps}
    (length = count - 1, empty when fewer than 2 packets). *)

val clear : t -> unit
(** Forget recorded timestamps (the tap keeps forwarding). *)

val run_until_count :
  scenario:string ->
  ?slack:float ->
  ?min_chunk:float ->
  Desim.Sim.t ->
  tap:t ->
  target:int ->
  expected_rate:float ->
  unit
(** Advance [sim] with [Scenarios.Starvation.drive] until the tap holds
    [target] timestamps, publishing the simulator's metrics on
    starvation. *)
