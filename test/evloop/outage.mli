(** Link outages and flapping, driven by {!Desim.Sim} events: the
    reference for the {!Faults.Outage} stream stage.

    An outage injector wraps a {!Netsim.Link.port}: while the link is up,
    packets flow through untouched; while it is down, they are dropped and
    counted.  Downtime windows come either from an explicit schedule
    ({!schedule}) or from a random flapping process ({!flap}) with
    exponential up/down holding times.

    Overlapping windows nest: the link is down while {e any} window is
    open.  Every hole the injector punches in the cover stream is visible
    to the tap downstream — that visibility is the point. *)

type t

val create : Desim.Sim.t -> dest:Netsim.Link.port -> unit -> t

val port : t -> Netsim.Link.port
val is_up : t -> bool

val schedule : t -> at:float -> duration:float -> unit
(** Open a downtime window \[[at], [at + duration]) at an absolute
    simulation time.  Raises [Invalid_argument] if [at] is in the past or
    [duration <= 0]. *)

val flap :
  t -> rng:Prng.Rng.t -> mean_up:float -> mean_down:float -> unit
(** Start a random up/down process: exponential up times with mean
    [mean_up], then exponential down times with mean [mean_down]
    (both > 0).  The link starts (and stays) up for the first draw.
    At most one flapping process per injector; calling twice raises. *)

val stop_flapping : t -> unit
(** Cancel the flapping process (scheduled windows still apply). *)

val forwarded : t -> int
val dropped : t -> int
(** Packets discarded while down. *)

val outages : t -> int
(** Number of down transitions so far. *)

val downtime : t -> float
(** Accumulated seconds down, up to the current simulation instant. *)
