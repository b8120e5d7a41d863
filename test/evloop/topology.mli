(** Event-loop assembly of a {!Netsim.Topology} hop layout: one {!Router}
    per hop, each with its optional cross-traffic source, and the tap
    spliced in at the layout's tap position.  The reference the fused
    pipeline's {!Netsim.Linkstage} chain is tested against. *)

type cross_source = { generated : unit -> int; stop : unit -> unit }

type t = {
  entry : Netsim.Link.port;  (** where the sender gateway pushes packets *)
  tap : Tap.t;  (** the adversary's observation point *)
  routers : Router.t array;
  cross_sources : cross_source list;
  sink_count : unit -> int;  (** padded packets that reached the far end *)
}

val chain :
  Desim.Sim.t ->
  rng:Prng.Rng.t ->
  hops:Netsim.Topology.hop_spec array ->
  tap_position:int ->
  ?tap_buffers:Netsim.Fvec.t * Netsim.Fvec.t ->
  ?dest:Netsim.Link.port ->
  unit ->
  t
(** [chain sim ~rng ~hops ~tap_position ()] builds the path.  The tap sits
    in front of hop [tap_position] (so 0 observes the traffic exactly as it
    leaves the sender gateway); [tap_position = Array.length hops] places it
    after the final hop.  Raises [Invalid_argument] when
    {!Netsim.Topology.validate} rejects the layout.  Cross sources draw
    from {!Netsim.Topology.cross_streams}.  Packets surviving the last hop
    go to [dest] (default: a counting-only sink); [sink_count] counts
    padded packets reaching the far end either way.  [tap_buffers] is
    handed to {!Tap.create} for recording-storage reuse. *)

val stop_cross : t -> unit
(** Observe every hop's utilization and stop all cross-traffic sources
    (the end-of-run hook). *)
