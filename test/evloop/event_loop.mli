(** [Scenarios.System.run] on the discrete-event simulator: source →
    {!Padding.Gateway} → {!Topology.chain} → {!Padding.Receiver} as
    simulator records, dispatched one event at a time.  The independent
    reference the staged pipeline is tested against. *)

val run_event_loop :
  ?fresh_arena:bool ->
  Scenarios.System.config ->
  piats:int ->
  Scenarios.System.result
(** Same arguments, trace run name and result as [System.run]; raises
    [Starvation.Tap_starved] / [Desim.Sim.Event_budget_exceeded] as it
    does. *)
