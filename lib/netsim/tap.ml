let m_observed = Obs.Metrics.counter "netsim.tap.observed"
let m_payload = Obs.Metrics.counter "netsim.tap.payload"
let m_dummy = Obs.Metrics.counter "netsim.tap.dummy"

(* The tap's counters, flushed once per run by the pipeline's inline tap,
   which records its timestamps straight into arena buffers. *)
let note_batch ~observed ~payload ~dummy =
  if observed < 0 || payload < 0 || dummy < 0 then
    invalid_arg "Tap.note_batch: negative count";
  Obs.Metrics.add m_observed observed;
  Obs.Metrics.add m_payload payload;
  Obs.Metrics.add m_dummy dummy
