(** Assembly of multi-hop paths: sender gateway → router chain → receiver.

    Each hop is a {!Router} with an optional cross-traffic source feeding
    the same output link; the adversary's tap can be spliced in front of
    any hop (position 0 = right at the sender gateway output, the paper's
    "best case for the adversary") or after the last hop (in front of the
    receiver gateway, the campus/WAN placement). *)

type cross_spec = {
  rate_pps : float;        (** average cross packet rate into this hop *)
  size_bytes : int;
  burst : [ `Poisson | `On_off of float * float * float option ]
      (** [`On_off (mean_on, mean_off, pareto_shape)] *)
}

type hop_spec = {
  bandwidth_bps : float;
  propagation : float;
  queue_limit : int option;
  cross : cross_spec option;
}

type t = {
  entry : Link.port;        (** where the sender gateway pushes packets *)
  tap : Tap.t;              (** the adversary's observation point *)
  routers : Router.t array;
  cross_sources : Traffic_gen.t list;
  sink_count : unit -> int; (** padded packets that reached the far end *)
}

val validate : hops:hop_spec array -> tap_position:int -> unit
(** The one check of a hop layout, shared by {!chain} and the fused
    pipeline: the tap position is in [0, Array.length hops], and every
    hop has [bandwidth_bps > 0], [propagation >= 0], [queue_limit >= 1]
    when set, and a positive cross rate when it has cross traffic.
    Raises [Invalid_argument] naming the failed check. *)

val cross_streams : rng:Prng.Rng.t -> hop_spec array -> Prng.Rng.t option array
(** The per-hop cross-traffic streams {!chain} hands its sources: one
    child split from [rng] for each hop with cross traffic, split back to
    front; [None] for a hop without.  The fused pipeline calls it with the
    same parent to draw the same cross arrivals. *)

val chain :
  Desim.Sim.t ->
  rng:Prng.Rng.t ->
  hops:hop_spec array ->
  tap_position:int ->
  ?tap_buffers:Fvec.t * Fvec.t ->
  ?dest:Link.port ->
  unit ->
  t
(** [chain sim ~rng ~hops ~tap_position ()] builds the path.  The tap sits
    in front of hop [tap_position] (so 0 observes the traffic exactly as it
    leaves the sender gateway); [tap_position = Array.length hops] places it
    after the final hop.  Raises [Invalid_argument] when {!validate}
    rejects the layout.  Cross sources are driven by {!cross_streams}.
    Packets surviving the last hop go to [dest] (default: a counting-only
    sink); [sink_count] counts padded packets reaching the far end either
    way.  [tap_buffers] is handed to {!Tap.create} for recording-storage
    reuse across runs. *)

val stop_cross : t -> unit
(** Stop all cross-traffic sources (used between experiment phases). *)
