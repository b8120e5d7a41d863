(** [Scenarios.Degradation.run_faulty] on the discrete-event simulator:
    Poisson source → {!Crash}-wrapped {!Padding.Gateway} (with a
    {!Clock} interval generator unless the clock is ideal) → {!Lossy} →
    {!Outage} → {!Tap} → {!Padding.Receiver}, dispatched one event at a
    time.  The independent reference the staged faulty run is tested
    against. *)

val run_faulty :
  Scenarios.Degradation.config ->
  piats:int ->
  Scenarios.Degradation.run_result
(** Same arguments, streams, trace run name and result as
    [Degradation.run_faulty] on a valid configuration; raises
    [Starvation.Tap_starved] / [Desim.Sim.Event_budget_exceeded] as it
    does. *)
