(** Gateway crash–restart on the discrete-event simulator: a
    {!Padding.Gateway} that dies and comes back.  The reference for the
    fused kernel's crashes ({!Padding.Kernel.faults}).

    A crash kills the running gateway instance: its timer stops (the cover
    stream goes silent — a hole every tap can see), its payload queue is
    lost, and payload arriving during the downtime is lost too.  After
    [restart_delay] a fresh gateway instance starts with an empty queue.
    Counters aggregate across incarnations, so the wrapper reads exactly
    like a single long-lived gateway plus fault accounting.

    Crash instants are exponential with mean [mtbf] (drawn from the
    dedicated [failure_rng], so the fault schedule never perturbs the
    traffic randomness); [mtbf = infinity] never crashes. *)

type t

val create :
  Desim.Sim.t ->
  rng:Prng.Rng.t ->
  failure_rng:Prng.Rng.t ->
  timer:Padding.Timer.law ->
  jitter:Padding.Jitter.t ->
  ?packet_size:int ->
  ?queue_limit:int ->
  ?interval:(unit -> float) ->
  mtbf:float ->
  restart_delay:float ->
  dest:Netsim.Link.port ->
  unit ->
  t
(** [rng], [timer], [jitter], [packet_size], [queue_limit], [interval] and
    [dest] are passed to each {!Padding.Gateway} incarnation.  [mtbf > 0]
    ([infinity] allowed); [restart_delay > 0]. *)

val input : t -> Netsim.Link.port
(** Payload port.  While down, payload packets are counted lost.  Raises
    [Invalid_argument] on non-payload packets, like the gateway itself. *)

val stop : t -> unit
(** Stop the current incarnation and cancel all pending crash/restart
    events. *)

val is_up : t -> bool
val crashes : t -> int

val downtime : t -> float
(** Accumulated seconds with no gateway running, up to now. *)

val payload_lost : t -> int
(** Queue contents discarded at crash instants plus arrivals while down. *)

(** Aggregates across all incarnations (current one included): *)

val payload_sent : t -> int
val dummy_sent : t -> int
val payload_dropped : t -> int
(** Queue-overflow drops, as in {!Padding.Gateway.payload_dropped} —
    distinct from {!payload_lost}. *)

val fires : t -> int
val queue_length : t -> int
(** Of the current incarnation; 0 while down. *)

val overhead : t -> float
(** Dummy fraction of all packets emitted across incarnations. *)
