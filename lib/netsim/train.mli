(** Arrival train of one source on the fused pipeline: the time of its
    next event, stepped as [next = prev +. dt] like the event loop, so
    every event time is bit-identical to the event-loop source with the
    same law and stream — {!Traffic_gen.poisson} (intervals
    block-filled from the stream), and the CBR (no draws) and on/off
    (one scalar step per event, in its draw order) sources kept as the
    reference in [test/evloop/].  {!next} performs
    no allocation. *)

type law = [ `Poisson | `Cbr | `On_off of float * float * float option ]
(** [`On_off (mean_on, mean_off, pareto_shape)] as in
    {!Topology.cross_spec}: phases exponential, or Pareto with the same
    means when [pareto_shape] is set. *)

type t

val create : unit -> t

val start : t -> rng:Prng.Rng.t -> rate:float -> law -> unit
(** Reset for a source created at simulated time 0 with nominal rate
    [rate] (packets per second) drawing from its own stream [rng] (CBR
    draws nothing), and step to its first event.  The caller validates
    the parameters. *)

val stop : t -> unit
(** A train without events: {!head} is [infinity]. *)

val head : t -> float
(** Time of the next event. *)

val head_cell : t -> floatarray
(** Read-only registers whose slot 0 is {!head}: a loop elsewhere reads
    the head without a call, whose float result would be boxed. *)

val emits : t -> bool
(** Whether the head event sends a packet.  Always [true] for Poisson
    and CBR; an on/off phase start is an event that sends nothing. *)

val next : t -> unit
(** Step to the following event. *)
