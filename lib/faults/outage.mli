(** Link flapping, as a stream stage between the gateway and the tap.

    While the link is up, packets flow through untouched; while it is
    down, they are dropped and counted.  Downtime comes from a random
    flapping process with exponential up and down holding times, drawn
    lazily from the stage's own stream: the link starts up, goes down
    one up-time draw later, comes back one down-time draw after that,
    and so on; the tap sees every hole.  The event-loop injector of the
    same name in test/evloop/ is its reference. *)

type t

val create :
  rng:Prng.Rng.t ->
  flap:(float * float) option ->
  in_t:Netsim.Fvec.t ->
  in_tag:Netsim.Fvec.t ->
  t
(** A link for one run, reading the upstream chunk output
    [in_t]/[in_tag].  [flap = Some (mean_up, mean_down)] flaps it (both
    means > 0, else [Invalid_argument]) and draws the first up time;
    [None] leaves it up. *)

val advance : t -> until:float -> unit
(** Pass the upstream chunk through, with the link transitions due by
    [until] in time order; a transition goes before a packet at its
    instant. *)

val out_times : t -> Netsim.Fvec.t
val out_tags : t -> Netsim.Fvec.t
(** This chunk's forwarded packets.  Valid until the next {!advance}. *)

val trace : t -> Netsim.Tracebuf.t
(** Whole-run deferred [outage.start] / [outage.end] / [packet.dropped]
    (cause [outage]) records. *)

val chunk_events : t -> int
(** Link transitions in the last chunk, and in the first chunk the
    event loop's no-op record that gates its flapping. *)

val dropped : t -> int
(** Packets discarded while down. *)

val flush : t -> unit
(** Fold the run's counters into the [faults.outage.*] registry
    counters. *)
