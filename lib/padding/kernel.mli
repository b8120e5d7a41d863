(** Fused padding-gateway kernel.

    Executes the {!Gateway} CIT/VIT state machine as a batch loop over
    merged time-ordered trains (the Poisson or CBR payload arrival
    {!Netsim.Train}, timer fires, pending emissions) instead of per-event dispatch.  The
    contract is exact equivalence with the event-loop gateway: same RNG
    draws in the same order, bit-identical emission times, occupancy
    observations and counters.  Scratch state is reusable across runs
    (arena-backed via [Scenarios.Arena]); the steady-state batch loop
    performs no allocation.

    Stream encoding shared with [Netsim.Linkstage]: an emission is a
    (time, tag) float pair where a payload's tag is its creation time
    and a dummy's tag is NaN.

    Tie rule: at one instant, a pending emission goes first.  A payload
    arrival and a timer fire then go in arming order, as the event
    loop's queue sequence orders them: the train that re-armed earlier
    goes first, and at creation the fire is armed before the arrival.
    Such ties need CBR payload on the CIT timer's lattice; under Poisson
    payload they have probability zero.  The gateway faults ({!faults})
    are tested against the event-loop injectors in test/evloop/. *)

type t

type adaptive = {
  min_period : float;
  max_period : float;
  window : float;  (** rate-estimation horizon, seconds *)
  target_queue : float;  (** backlog the controller aims to keep, packets *)
}
(** Timmerman-style adaptive traffic masking (paper §2, ref [23]), the
    bandwidth-saving alternative the paper argues against.  The first
    fire is at [max_period].  After each fire the period becomes
    min(max_period, max(min_period, 1/r)) with
    r = max(1, rate·max(0.1, 1 + (backlog − target_queue)/2)), where
    rate is the payload arrivals in the last [window] over [window] and
    backlog the queue left after the fire.  The padded stream's mean
    PIAT then tracks the payload rate: the leak this variant exists to
    measure.  The caller validates the band; {!configure} rejects a
    window that is not positive. *)

type clock = {
  drift : float;
  miss_prob : float;
  coalesce : bool;
  max_consecutive_misses : int;
}
(** A faulty gateway clock, a timer-law variant drawn on its own stream.
    The next fire comes one timer draw × (1 + [drift]) after a fire;
    then, while fewer than [max_consecutive_misses] fires are masked, a
    draw below [miss_prob] masks the fire and adds one more drifted
    interval.  With [coalesce] the k masked fires are absorbed into that
    hole; without it the next k intervals are {!catchup_spacing} each
    and draw nothing (the fires replayed; the count survives a crash).
    A clock with no drift and no misses is the plain timer law on the
    gateway stream.  The caller validates the spec. *)

val catchup_spacing : float
(** 1 µs: back to back against a millisecond period, but positive. *)

type faults = {
  clock : clock;
  rng_clock : Prng.Rng.t;
  mtbf : float;  (** mean time between crashes; [infinity]: never *)
  restart_delay : float;
  rng_failure : Prng.Rng.t;  (** the crash instants' draws *)
}
(** Gateway faults.  Crash instants are exponential with mean [mtbf],
    drawn at creation (time 0) and then at each restart.  A crash
    silences the gateway for [restart_delay]: the queued payload and the
    IRQ window are lost and fires stop, but emissions already pending
    leave; payload arriving while down is counted and lost.  The
    restarted gateway's last emission is the restart instant, and its
    first fire one interval later.  Events at a crash or restart instant
    go before it.  With [mtbf = infinity] and an ideal clock the kernel
    draws and computes what the fault-free kernel does.  The caller
    validates: [mtbf > 0], [restart_delay > 0]. *)

val create : unit -> t
(** Allocate reusable scratch storage (rings, stream buffers, trace
    buffer).  One per arena; reconfigured per run. *)

val configure :
  ?payload:[ `Poisson | `Cbr ] ->
  ?adaptive:adaptive ->
  t ->
  rng_payload:Prng.Rng.t ->
  rng_gateway:Prng.Rng.t ->
  timer:Timer.law ->
  jitter:Jitter.t ->
  packet_size:int ->
  payload_rate:float ->
  unit
(** Reset the scratch for a new run starting at simulated time 0.
    [payload] (default [`Poisson]) is the payload source's law at
    [payload_rate]: Poisson pre-fills the first block of inter-arrival
    draws from [rng_payload] (a dedicated split-off stream, so
    over-drawing is unobservable), CBR draws nothing.  Draws the first
    timer interval from [rng_gateway] — exactly the draws the event-loop
    path makes at source/gateway creation.  With [adaptive] the timer law
    is ignored: fires follow the adaptive controller, and each jitter
    draw sees no arrivals in the IRQ blocking window
    ([arrivals_in_window = 0]). *)

val configure_faulty :
  t ->
  faults:faults ->
  rng_payload:Prng.Rng.t ->
  rng_gateway:Prng.Rng.t ->
  timer:Timer.law ->
  jitter:Jitter.t ->
  packet_size:int ->
  payload_rate:float ->
  unit
(** {!configure} for a gateway with [faults], under Poisson payload: the
    first interval is drawn on the clock's stream unless the clock is
    ideal, and the first crash instant is drawn after it. *)

val advance : t -> until:float -> unit
(** Process every arrival, fire and emission event with timestamp <=
    [until] — and, with {!faults}, every crash and restart — in time
    order, replaying [Gateway.on_fire]'s arithmetic exactly,
    same-instant events in the tie order above.  Emissions of the chunk
    are appended to {!out_times} / {!out_tags} (cleared on entry). *)

val out_times : t -> Netsim.Fvec.t
val out_tags : t -> Netsim.Fvec.t
(** This chunk's emissions, time-ordered.  Valid until the next
    {!advance}. *)

val trace : t -> Netsim.Tracebuf.t
(** Whole-run deferred [timer.fire] / [packet.sent] trace records, and
    with {!faults} [timer.miss] / [timer.catchup] / [gateway.crash] /
    [gateway.restart] / [packet.dropped] (cause [gw_down]). *)

val occupancy : t -> Netsim.Fvec.t
(** This chunk's queue-occupancy observations (one per fire, pre-pop),
    for the [padding.gateway.queue_occupancy] histogram.  Valid until
    the next {!advance}. *)

val chunk_events : t -> int
(** Events the event loop would have dispatched for the last {!advance}
    chunk (arrivals + fires + emissions; with {!faults}, also crashes,
    restarts, and each crashed timer's fire, which stays queued until
    its time — counted early, and so possibly once too often at the end
    of a run, when the gateway crashes again within a timer period of
    its restart). *)

val fires : t -> int
val payload_sent : t -> int
val dummy_sent : t -> int

val generated : t -> int
(** Payload arrival events processed — [Traffic_gen.generated], lost
    arrivals included. *)

val missed_fires : t -> int
(** Fires the clock masked. *)

val crashes : t -> int

val payload_lost : t -> int
(** Payload queued at crash instants plus payload arriving while down. *)

val downtime : t -> now:float -> float
(** Seconds spent down, up to [now] (the run's current instant). *)

val max_pending : t -> int
(** High-water mark of the pending-emission ring (run scope), an input
    to the orchestrator's event-queue-depth surrogate. *)

val overhead : t -> float
(** [Gateway.overhead]: dummy fraction of all sent packets. *)
