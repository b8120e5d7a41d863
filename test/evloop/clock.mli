(** The faulty gateway clock as an interval generator on the
    discrete-event simulator: the reference for the fused kernel's
    drifting-clock timer law ({!Padding.Kernel.clock}).  Plug it into
    [Padding.Gateway.create ~interval]; one generator serves one timer
    train and survives gateway restarts. *)

val intervals :
  ?sim:Desim.Sim.t ->
  Faults.Clock.spec -> law:Padding.Timer.law -> rng:Prng.Rng.t -> unit -> float
(** [intervals spec ~law ~rng] is a generator of successive faulty
    intervals; with [spec = Faults.Clock.ideal] it is distributionally
    identical to drawing from [law] directly.  Pass [?sim] to timestamp
    the [timer.miss] / [timer.catchup] events in the [Obs.Trace]
    stream; the generator itself never reads the clock. *)
