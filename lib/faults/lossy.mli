(** Lossy wire: packet loss, duplication and bounded reordering, as a
    stream stage between the gateway and the tap.  Every fault punctures
    or perturbs the constant-rate cover stream, side information the
    paper's fault-free theorems never see.

    The stage reads the (time, tag) stream of the stage before it (tag =
    payload creation time, NaN for a dummy) and writes the surviving
    packets at their original, or boundedly delayed, instants, drawing
    on its own stream.  The event-loop wire of the same name in
    test/evloop/ is its reference. *)

type loss_model =
  | No_loss
  | Bernoulli of float
      (** i.i.d. loss with the given probability in \[0, 1). *)
  | Gilbert_elliott of {
      p_good_to_bad : float;  (** per-packet transition probability *)
      p_bad_to_good : float;
      loss_good : float;      (** loss probability in the good state *)
      loss_bad : float;       (** ... in the bad (bursty) state *)
    }
      (** Two-state Markov (bursty) loss; starts in the good state. *)

val validate_loss : loss_model -> unit
(** Raises [Invalid_argument] on probabilities outside \[0, 1) (loss) or
    \[0, 1\] (transitions). *)

val expected_loss_rate : loss_model -> float
(** Stationary loss probability of the model (exact for Bernoulli, the
    Markov-chain stationary mix for Gilbert–Elliott). *)

type t

val create :
  rng:Prng.Rng.t ->
  loss:loss_model ->
  dup_prob:float ->
  reorder_prob:float ->
  reorder_delay:float ->
  in_t:Netsim.Fvec.t ->
  in_tag:Netsim.Fvec.t ->
  t
(** A wire for one run, reading the upstream chunk output
    [in_t]/[in_tag].  [dup_prob] duplicates a surviving packet at once;
    [reorder_prob] holds a surviving packet back by uniform(0,
    [reorder_delay]) + [reorder_delay]·1e-9, letting later packets
    overtake it.  Probabilities must lie in \[0, 1) and [reorder_delay]
    must be positive, else [Invalid_argument]. *)

val advance : t -> until:float -> unit
(** Pass the upstream chunk (every packet up to [until]) through the
    wire, in time order with the held packets due by [until].  For each
    packet: the loss draw(s); if it survives, the reorder draw (and the
    hold), then the duplication draw.  A held packet leaves before an
    upstream packet at its instant and may cross a chunk boundary. *)

val out_times : t -> Netsim.Fvec.t
val out_tags : t -> Netsim.Fvec.t
(** This chunk's surviving packets, time-ordered; a duplicate right
    after its original.  Valid until the next {!advance}. *)

val trace : t -> Netsim.Tracebuf.t
(** Whole-run deferred [packet.dropped] (cause [loss]) /
    [packet.reordered] / [packet.dup] records. *)

val chunk_events : t -> int
(** Held-packet deliveries in the last chunk: the event loop's delayed
    sends. *)

val max_pending : t -> int
(** High-water mark of held packets. *)

val lost : t -> int

val flush : t -> unit
(** Fold the run's counters into the [faults.lossy.*] registry
    counters. *)
