(** Traffic sources.

    All sources push freshly-created packets into a destination port and
    run until stopped.  Interarrival randomness comes from a caller-supplied
    {!Prng.Rng.t} so every workload is reproducible. *)

type t
(** A running source; {!stop} halts it permanently. *)

val stop : t -> unit
val generated : t -> int
(** Packets emitted so far. *)

val poisson :
  Desim.Sim.t ->
  rng:Prng.Rng.t ->
  rate_pps:float ->
  size_bytes:int ->
  kind:Packet.kind ->
  dest:Link.port ->
  unit ->
  t
(** Poisson arrivals (exponential interarrivals) at [rate_pps > 0]. *)

val modulated_arrivals :
  Desim.Sim.t ->
  rng:Prng.Rng.t ->
  rate_fn:(float -> float) ->
  rate_max:float ->
  f:(float -> unit) ->
  unit ->
  t
(** Non-homogeneous Poisson arrival instants by Lewis–Shedler
    thinning: instantaneous rate [rate_fn now] (must lie in
    [0, rate_max], [rate_max > 0]).  [f now] runs at each accepted
    arrival and decides what it means.
    The fleet mux uses this to demultiplex one superposed arrival
    process onto many flows — picking the flow, counting it, and
    building the packet itself — at O(1) per arrival instead of one
    event source per flow.  [generated] counts accepted arrivals. *)
