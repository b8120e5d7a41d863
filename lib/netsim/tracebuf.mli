(** Deferred ta-trace/1 events for the fused scenario kernels.

    Pipeline stages run one after another over a chunk, so a stage
    cannot write to the live trace buffer in the order the event loop
    would: the gateway has finished the chunk before the first hop
    starts it.  Stages instead record would-be events here — float-encoded,
    allocation-free — and the orchestrator merges the buffers and replays
    them through {!Obs.Trace.event} once, at flush time.

    Every entry carries a [key]: the simulated time of the event-loop
    event during which the record would have been inserted (insertion
    order, not display order — a gateway fire inserts its [packet.sent]
    record, stamped with the later emit time, at fire time).  Within one
    buffer, entries are pushed in processing order and keys are
    monotone.  The orchestrator merges buffers by key, then by [nth]
    (below), and breaks what is still equal by pipeline position:
    gateway, the wire-fault stages, the hops before the tap, the tap,
    the hops after it.

    [nth] orders records of one instant that concern different packets
    of that instant: a duplicate leaves a lossy wire at its original's
    instant, and the event loop finishes the original's journey
    downstream before it records the duplication and sends the copy.  A
    stage gives each record the ordinal of its packet among the packets
    of that instant ([0] for the first), so the original's records come
    first everywhere and the copy's next. *)

type t

val create : unit -> t
val clear : t -> unit
val length : t -> int

val push : t -> key:float -> code:float -> x:float -> y:float -> unit
(** Append one deferred event with [nth = 0].  [code] is one of the
    constants below; [x]/[y] are per-code payload fields (see {!emit}). *)

val push_nth :
  t -> key:float -> nth:int -> code:float -> x:float -> y:float -> unit
(** {!push} for the [nth] packet of the instant [key]. *)

val key : t -> int -> float
(** Insertion-time key of entry [i] (unchecked; [i < length t]). *)

val nth : t -> int -> int
(** Packet ordinal of entry [i] within its instant (unchecked). *)

val emit : t -> int -> unit
(** Replay entry [i] through {!Obs.Trace.event}. *)

(** Entry codes (floats so buffers stay unboxed). *)

val timer_fire : float
(** [x] = gateway queue length after the pop; displayed at [key]. *)

val sent_payload : float
val sent_dummy : float
(** [x] = size in bytes, [y] = emit time (the displayed timestamp). *)

val observe_payload : float
val observe_dummy : float
(** [x] = size in bytes; displayed at [key]. *)

val drop_payload : float
val drop_dummy : float
val drop_cross : float
(** Link-queue drop of the given kind; displayed at [key]. *)

(** Fault records, displayed at [key]: the gateway's [timer_miss],
    [timer_catchup], [gateway_crash] ([x] = payload queued, lost with
    it), [gateway_restart] and [drop_gw_down] (a payload arrival lost
    while down); the wire's [drop_loss], [reordered], [dup] and
    [drop_outage] ([x] = the packet's tag, NaN for a dummy, which gives
    the record's [kind]); and [outage_start] / [outage_end]. *)

val timer_miss : float
val timer_catchup : float
val gateway_crash : float
val gateway_restart : float
val drop_gw_down : float
val drop_loss : float
val reordered : float
val dup : float
val drop_outage : float
val outage_start : float
val outage_end : float
