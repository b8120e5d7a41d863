let m_missed = Obs.Metrics.counter "faults.clock.missed_fires"

let trace ?sim name =
  match sim with
  | Some s when Obs.Trace.enabled () ->
      Obs.Trace.event ~name ~t:(Desim.Sim.now s) []
  | Some _ | None -> ()

let intervals ?sim (spec : Faults.Clock.spec) ~law ~rng =
  Faults.Clock.validate spec;
  Padding.Timer.validate law;
  let pending_catchup = ref 0 in
  let draw () = Padding.Timer.draw law rng *. (1.0 +. spec.drift) in
  fun () ->
    if !pending_catchup > 0 then begin
      decr pending_catchup;
      trace ?sim "timer.catchup";
      Padding.Kernel.catchup_spacing
    end
    else begin
      let span = ref (draw ()) in
      let missed = ref 0 in
      while
        !missed < spec.max_consecutive_misses
        && spec.miss_prob > 0.0
        && Prng.Rng.float rng < spec.miss_prob
      do
        (* This period's fire is masked; the train only reaches the wire
           one (drifted) period later. *)
        incr missed;
        Obs.Metrics.incr m_missed;
        trace ?sim "timer.miss";
        span := !span +. draw ()
      done;
      if (not spec.coalesce) && !missed > 0 then pending_catchup := !missed;
      !span
    end
