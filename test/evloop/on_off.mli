(** Bursty on/off source on the discrete-event simulator: the reference
    {!Netsim.Train}'s [`On_off] law is tested against.

    During ON periods, Poisson at [rate_on_pps]; OFF periods silent.
    Period lengths are exponential with the given means, or Pareto with
    [pareto_shape] (> 1) and matching means for the self-similar cross
    traffic of campus/WAN scenarios. *)

type t

val create :
  Desim.Sim.t ->
  rng:Prng.Rng.t ->
  rate_on_pps:float ->
  mean_on:float ->
  mean_off:float ->
  ?pareto_shape:float ->
  size_bytes:int ->
  kind:Netsim.Packet.kind ->
  dest:Netsim.Link.port ->
  unit ->
  t

val stop : t -> unit
val generated : t -> int
(** Packets emitted so far. *)
