module D = Scenarios.Degradation

let run_faulty (cfg : D.config) ~piats =
  if piats < 1 then invalid_arg "Degradation.run_faulty: piats < 1";
  Obs.Trace.with_run
    (Printf.sprintf "degradation.run seed=%d pps=%g" cfg.seed
       cfg.payload_rate_pps)
  @@ fun () ->
  let p = cfg.profile in
  let sim = Desim.Sim.create () in
  Scenarios.System.arm_event_budget sim;
  let root = Prng.Rng.create ~seed:cfg.seed in
  let rng_payload = Prng.Rng.split root in
  let rng_gateway = Prng.Rng.split root in
  let rng_wire = Prng.Rng.split root in
  let rng_clock = Prng.Rng.split root in
  let rng_failure = Prng.Rng.split root in
  let rng_flap = Prng.Rng.split root in
  let receiver = Padding.Receiver.create sim () in
  let tap = Tap.create sim ~dest:(Padding.Receiver.port receiver) () in
  let outage = Outage.create sim ~dest:(Tap.port tap) () in
  let lossy =
    Lossy.create sim ~rng:rng_wire ~loss:p.loss ~dup_prob:p.dup_prob
      ~reorder_prob:p.reorder_prob ~reorder_delay:p.reorder_delay
      ~dest:(Outage.port outage) ()
  in
  let interval =
    if p.clock = Faults.Clock.ideal then None
    else Some (Clock.intervals ~sim p.clock ~law:cfg.timer ~rng:rng_clock)
  in
  let crash =
    Crash.create sim ~rng:rng_gateway ~failure_rng:rng_failure
      ~timer:cfg.timer ~jitter:cfg.jitter ~packet_size:cfg.packet_size
      ?interval ~mtbf:p.mtbf ~restart_delay:p.restart_delay
      ~dest:(Lossy.port lossy) ()
  in
  (match p.flap with
  | Some (mean_up, mean_down) ->
      Outage.flap outage ~rng:rng_flap ~mean_up ~mean_down
  | None -> ());
  let source =
    Netsim.Traffic_gen.poisson sim ~rng:rng_payload
      ~rate_pps:cfg.payload_rate_pps ~size_bytes:cfg.packet_size
      ~kind:Netsim.Packet.Payload ~dest:(Crash.input crash) ()
  in
  let target =
    Scenarios.System.tap_target ~warmup:cfg.warmup_piats ~count:piats
  in
  let fire_rate = 1.0 /. Padding.Timer.mean cfg.timer in
  let survive =
    (1.0 -. Faults.Lossy.expected_loss_rate p.loss)
    *. (1.0 -. p.clock.Faults.Clock.miss_prob)
  in
  let expected_rate = Float.max (fire_rate *. survive *. 0.5) 1.0 in
  Tap.run_until_count ~scenario:"degradation.run" ~slack:1.2 ~min_chunk:0.2 sim
    ~tap ~target ~expected_rate;
  Netsim.Traffic_gen.stop source;
  Crash.stop crash;
  Outage.stop_flapping outage;
  Desim.Sim.publish_metrics sim;
  let piats_arr, _ =
    Scenarios.System.observed ~warmup:cfg.warmup_piats ~count:piats
      (Tap.timestamps tap)
  in
  {
    D.piats = piats_arr;
    overhead = Crash.overhead crash;
    payload_offered = Netsim.Traffic_gen.generated source;
    payload_delivered = Padding.Receiver.payload_received receiver;
    payload_dropped_gw = Crash.payload_dropped crash;
    lost_wire = Lossy.lost lossy;
    lost_outage = Outage.dropped outage;
    lost_crash = Crash.payload_lost crash;
    crashes = Crash.crashes crash;
    gw_downtime = Crash.downtime crash;
    mean_payload_latency = Padding.Receiver.mean_payload_latency receiver;
    sim_time = Desim.Sim.now sim;
  }
