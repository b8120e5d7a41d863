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
    monotone.  The orchestrator merges buffers by key and breaks equal
    keys by pipeline position: gateway, the hops before the tap, the
    tap, the hops after it. *)

type t

val create : unit -> t
val clear : t -> unit
val length : t -> int

val push : t -> key:float -> code:float -> x:float -> y:float -> unit
(** Append one deferred event.  [code] is one of the constants below;
    [x]/[y] are per-code payload fields (see {!emit}). *)

val key : t -> int -> float
(** Insertion-time key of entry [i] (unchecked; [i < length t]). *)

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
