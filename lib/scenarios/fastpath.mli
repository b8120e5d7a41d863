(** Fused-kernel fast path for {!System.run}.

    Batch-executes the dominant no-fault configuration — Poisson payload,
    chain topology, cross traffic absent or Poisson — through
    {!Padding.Kernel} and {!Netsim.Linkstage} instead of the discrete
    event loop.  The contract is exact equivalence with
    {!System.run_event_loop}: same RNG draws in the same order,
    bit-identical tap observations, QoS fields and metric totals at any
    [--jobs].

    Same-instant events follow a fixed tie rule.  On every link,
    departures first, which the event loop's {!Netsim.Link} keeps too; a
    hop's upstream input goes before its cross tick and a payload
    arrival before a timer fire ({!Padding.Kernel}), pairs that coincide
    with probability zero under the Poisson inputs the pipeline takes.
    Trace records with equal insertion keys come out in pipeline order —
    gateway, the hops before the tap, the tap, the hops after it
    ({!Netsim.Tracebuf}).  The event loop emits same-instant records of
    different stages in scheduling order instead, so its trace can list
    those equal-timestamp lines in another order.  Such records need
    event times on a shared lattice, e.g. jitterless CIT whose timer
    period equals a hop's transmit time. *)

val note_fallback : reason:string -> unit
(** Bump [desim.kernel.fallbacks{reason=...}] for a run the pipeline
    does not model.  Reasons: ["cbr_payload"], ["onoff_cross"]. *)

val eligible_hops : Netsim.Topology.hop_spec array -> bool
(** Every hop's cross traffic is absent or [`Poisson] (the pipeline has
    no on/off burst model). *)

type outcome = {
  timestamps : float array;  (** tap observation times, in order *)
  overhead : float;  (** {!Padding.Gateway.overhead} *)
  payload_offered : int;  (** payload packets generated at the source *)
  payload_delivered : int;  (** payload packets absorbed by the receiver *)
  mean_payload_latency : float;  (** creation-to-delivery mean, 0 if none *)
  sim_time : float;  (** simulated clock at run end *)
}

val run :
  arena:Arena.t ->
  scenario:string ->
  seed:int ->
  timer:Padding.Timer.law ->
  jitter:Padding.Jitter.t ->
  payload_rate_pps:float ->
  packet_size:int ->
  hops:Netsim.Topology.hop_spec array ->
  tap_position:int ->
  target:int ->
  expected_rate:float ->
  outcome
(** Run the pipeline on [arena] until the tap has recorded [target]
    observations, chunked by the same {!Starvation.drive} arithmetic the
    event loop uses (slack 1.1, min chunk 0.1), and count the run in
    [desim.kernel.runs].  The caller arms any event budget on
    [arena.sim].  Raises the same exceptions as the event-loop path:
    {!Netsim.Topology.validate}'s [Invalid_argument]s, event-budget
    trips (after flushing incrementally-published state) and
    [Starvation.Tap_starved]. *)
