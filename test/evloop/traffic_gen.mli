(** Event-loop sources with no product caller left: the CBR source (the
    reference for {!Netsim.Train}'s [`Cbr] law), the variable-size
    Poisson source the size-padding ablation once ran on, and the
    modulated Poisson source the diurnal cross traffic once ran on. *)

type t

val stop : t -> unit
val generated : t -> int
(** Packets emitted so far. *)

val cbr :
  Desim.Sim.t ->
  rate_pps:float ->
  size_bytes:int ->
  kind:Netsim.Packet.kind ->
  dest:Netsim.Link.port ->
  unit ->
  t
(** Constant bit rate: one packet every [1/rate_pps] seconds, first at one
    full period.  [rate_pps > 0]. *)

val poisson_sized :
  Desim.Sim.t ->
  rng:Prng.Rng.t ->
  rate_pps:float ->
  size_of:(Prng.Rng.t -> int) ->
  kind:Netsim.Packet.kind ->
  dest:Netsim.Link.port ->
  unit ->
  t
(** Poisson arrivals with a per-packet size drawn from [size_of] after
    each gap (must return positive sizes). *)

val modulated_poisson :
  Desim.Sim.t ->
  rng:Prng.Rng.t ->
  rate_fn:(float -> float) ->
  rate_max:float ->
  size_bytes:int ->
  kind:Netsim.Packet.kind ->
  dest:Netsim.Link.port ->
  unit ->
  Netsim.Traffic_gen.t
(** {!Netsim.Traffic_gen.modulated_arrivals} with one packet per
    arrival. *)
