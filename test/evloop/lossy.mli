(** Lossy-wire combinator on the discrete-event simulator: wraps any
    {!Netsim.Link.port} with packet loss, duplication, and bounded
    reordering.  The reference for the {!Faults.Lossy} stream stage.

    The paper's channel is fault-free; a real wire is not.  Every fault
    here punctures or perturbs the constant-rate cover stream and therefore
    hands the adversary side information the closed-form theorems never see
    — the degradation scenario quantifies exactly how much.

    The combinator is transparent to both endpoints: upstream keeps pushing
    into {!port}, downstream receives surviving packets at their original
    (or boundedly delayed) instants.  All randomness comes from the
    caller-supplied {!Prng.Rng.t}, so faulty runs stay reproducible. *)

type t

val create :
  Desim.Sim.t ->
  rng:Prng.Rng.t ->
  ?loss:Faults.Lossy.loss_model ->
  ?dup_prob:float ->
  ?reorder_prob:float ->
  ?reorder_delay:float ->
  dest:Netsim.Link.port ->
  unit ->
  t
(** [loss] defaults to [No_loss]; [dup_prob] (default 0) duplicates a
    surviving packet immediately; [reorder_prob] (default 0) holds a
    surviving packet back by a uniform delay in (0, [reorder_delay]]
    (default 5 ms), letting later packets overtake it — bounded
    reordering.  Probabilities must lie in \[0, 1); [reorder_delay > 0]. *)

val port : t -> Netsim.Link.port

val offered : t -> int
(** Packets pushed into the combinator. *)

val passed : t -> int
(** Packets delivered downstream (duplicates included). *)

val lost : t -> int
val duplicated : t -> int
val reordered : t -> int

val loss_rate : t -> float
(** [lost / offered] so far; 0 before any traffic. *)
