(** Threshold mix as a pipeline stage — the Chaum (1981) baseline the
    paper's related work starts from (§2).

    The stage collects the payload packets handed down by its upstream
    stage and flushes a batch when [threshold] packets are queued, or
    when [timeout] has elapsed since the first packet of the batch
    arrived.  A flush emits exactly [threshold] packets in shuffled
    order, a timed-out batch completed with dummies (the "users send
    dummy messages" convention), slot [i] at the flush time plus
    [i * spacing].  Batching hides {e which} message is which, but the
    flush epochs still track the payload rate — the reason rate-hiding
    needs link padding on top of mixing, which is the paper's subject.

    Packets are (time, tag) pairs as in {!Netsim.Linkstage}: a payload's
    tag is its creation time, a dummy's NaN.  Output is in time order;
    emissions scheduled for the same instant keep the order in which
    they were scheduled.  A timeout and an arrival at the same instant:
    the timeout goes first. *)

type t

val create : unit -> t
(** Reusable scratch storage; one per arena, reconfigured per run. *)

val configure :
  t ->
  rng:Prng.Rng.t ->
  threshold:int ->
  timeout:float ->
  spacing:float ->
  in_t:Netsim.Fvec.t ->
  in_tag:Netsim.Fvec.t ->
  unit
(** Reset for a run starting at simulated time 0.  Each flush shuffles
    its [threshold] slots with {!Prng.Sampler.shuffle} on [rng].
    [in_t] / [in_tag] are the upstream stage's chunk-output buffers,
    consumed in full on every {!advance}.  The caller validates
    [threshold >= 1], [timeout > 0] and [spacing >= 0]. *)

val advance : t -> until:float -> unit
(** Take in the upstream chunk, fire the timeouts due by [until], and
    append the emissions with timestamp <= [until] to {!out_times} /
    {!out_tags} (cleared on entry). *)

val out_times : t -> Netsim.Fvec.t
val out_tags : t -> Netsim.Fvec.t
(** This chunk's emissions, time-ordered.  Valid until the next
    {!advance}. *)

val chunk_events : t -> int
(** Timeouts fired and packets emitted in the last {!advance} chunk. *)

val max_pending : t -> int
(** High-water mark of the scheduled-emission buffer (run scope). *)

val flushes : t -> int
val payload_sent : t -> int
val dummy_sent : t -> int

val overhead : t -> float
(** Dummy fraction of the packets flushed. *)
