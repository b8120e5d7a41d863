(** A source as a pipeline stage: the packets of one arrival {!Train},
    each emitted at its arrival instant with its creation time (the same
    instant) as its tag — the stream encoding {!Linkstage} reads.  The
    payload stream of an unpadded run, and the input of a batching
    stage.  Storage is reusable across runs; {!advance} allocates
    nothing once its buffers have grown. *)

type t

val create : unit -> t

val configure : t -> rng:Prng.Rng.t -> rate:float -> [ `Poisson | `Cbr ] -> unit
(** Reset for a run starting at simulated time 0: a Poisson or CBR
    source at [rate] packets per second drawing from [rng], as
    {!Train.start}. *)

val advance : t -> until:float -> unit
(** Emit every arrival with timestamp <= [until] to {!out_times} /
    {!out_tags} (cleared on entry). *)

val out_times : t -> Fvec.t
val out_tags : t -> Fvec.t
(** This chunk's packets, time-ordered.  Valid until the next
    {!advance}. *)

val chunk_events : t -> int
(** Arrival events of the last {!advance} chunk. *)

val generated : t -> int
(** Packets emitted since {!configure}. *)
