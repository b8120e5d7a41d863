(** Multi-hop path layouts: sender gateway → hop chain → receiver.

    Each hop is an output link with an optional cross-traffic source
    feeding it, run as one {!Linkstage}; the adversary's tap can sit in
    front of any hop (position 0 = right at the sender gateway output,
    the paper's "best case for the adversary") or after the last hop (in
    front of the receiver gateway, the campus/WAN placement). *)

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

val validate : hops:hop_spec array -> tap_position:int -> unit
(** The one check of a hop layout: the tap position is in
    [0, Array.length hops], and every hop has [bandwidth_bps > 0], [propagation >= 0], [queue_limit >= 1]
    when set, and a positive cross rate when it has cross traffic; an
    on/off source also needs positive period means and, when set,
    [pareto_shape > 1].
    Raises [Invalid_argument] naming the failed check (the messages keep
    their [Topology.chain:] prefix). *)

val cross_streams : rng:Prng.Rng.t -> hop_spec array -> Prng.Rng.t option array
(** The per-hop cross-traffic streams: one child split from [rng] for
    each hop with cross traffic, split back to front; [None] for a hop
    without.  The split order is part of every seed's stream layout. *)
