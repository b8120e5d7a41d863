(** Fused chain-hop kernel: one hop's link, router and Poisson or
    on/off cross source executed as a batch loop instead of discrete
    events.  The event-loop link and router it replays live in
    [test/evloop/] as the reference it is tested against.

    Per chunk the stage merges the padded sends handed down by the
    upstream stage with the hop's own cross arrival {!Train} and its
    pending transmit finishes and far-end deliveries, replaying
    the event-loop [Link.send]'s float arithmetic exactly — same busy-interval
    accumulation, same drop decisions, same counters.  Packets are
    (time, tag) float pairs: payload tag = creation time, dummy = NaN,
    cross = -inf; cross packets are diverted at the link exit exactly as
    the router does.  Storage is one ring of finish times by enqueue
    sequence number, walked by a finished and a delivered cursor, plus a
    (seq, tag) side queue for padded packets.  Scratch is reusable across
    runs and the steady-state loop allocates nothing, also where calls
    are not inlined across modules.

    Same-instant events follow the link's departures-first rule: transmit
    finishes and far-end deliveries at [t] go before an upstream send at
    [t], and an upstream send at [t] goes before a cross tick at [t].
    {!advance} runs the cross ticks between two input sends in one inner
    loop; one loop serves every hop kind. *)

type t

val create : unit -> t
(** Allocate reusable scratch storage.  One per hop slot in the arena;
    reconfigured per run. *)

val configure :
  ?burst:[ `Poisson | `On_off of float * float * float option ] ->
  t ->
  bandwidth_bps:float ->
  propagation:float ->
  queue_limit:int option ->
  packet_size:int ->
  cross:(Prng.Rng.t * float * int) option ->
  in_t:Fvec.t ->
  in_tag:Fvec.t ->
  unit
(** Reset for a new run at simulated time 0.  [cross] is
    [(rng, rate_pps, size_bytes)] for a cross source whose [rng] must be
    the same split-off child the event-loop topology would hand it
    (chain order: hops with cross traffic, back to front); [burst] is
    its {!Topology.cross_spec} law (default [`Poisson]), which
    {!Topology.validate} has checked.  The source's first event is drawn
    here.  [in_t] /
    [in_tag] are the upstream stage's chunk-output buffers, consumed in
    full on every {!advance}. *)

val advance : t -> until:float -> unit
(** Process every input send, cross arrival, transmit finish and far-end
    delivery with timestamp <= [until], in time order, same-instant
    events in the departures-first order above.  Padded deliveries of
    the chunk are appended to {!out_times} / {!out_tags} (cleared on
    entry). *)

val out_times : t -> Fvec.t
val out_tags : t -> Fvec.t
(** This chunk's padded deliveries to the next stage, time-ordered. *)

val trace : t -> Tracebuf.t
(** Whole-run deferred [packet.dropped] records. *)

val chunk_events : t -> int
(** Events the event loop would have dispatched for the last {!advance}
    chunk (cross source events, on/off phase events included, +
    finishes + deliveries; input sends happen inside the upstream
    stage's events and are counted there). *)

val dropped : t -> int
val enqueued : t -> int

val queue_hwm : t -> int
(** Exact link-queue depth high-water mark (the
    [netsim.link.queue_hwm] gauge observation). *)

val max_pending : t -> int
(** High-water mark of pending finish + delivery trains (run scope),
    an input to the orchestrator's event-queue-depth surrogate. *)

val utilization : t -> now:float -> float
(** The event-loop [Link.utilization] evaluated with identical float
    expressions at simulated time [now]. *)
