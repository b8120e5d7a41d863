module System = Scenarios.System
module Arena = Scenarios.Arena

let validate (cfg : System.config) =
  Padding.Timer.validate cfg.timer;
  if cfg.payload_rate_pps <= 0.0 then invalid_arg "System: payload_rate <= 0";
  if cfg.packet_size <= 0 then invalid_arg "System: packet_size <= 0";
  if cfg.warmup_piats < 0 then invalid_arg "System: warmup_piats < 0"

let start_payload_source sim ~model ~rng ~rate_pps ~size_bytes ~dest =
  match model with
  | System.Poisson_payload ->
      let g =
        Netsim.Traffic_gen.poisson sim ~rng ~rate_pps ~size_bytes
          ~kind:Netsim.Packet.Payload ~dest ()
      in
      {
        Topology.generated = (fun () -> Netsim.Traffic_gen.generated g);
        stop = (fun () -> Netsim.Traffic_gen.stop g);
      }
  | System.Cbr_payload ->
      let g =
        Traffic_gen.cbr sim ~rate_pps ~size_bytes ~kind:Netsim.Packet.Payload
          ~dest ()
      in
      {
        Topology.generated = (fun () -> Traffic_gen.generated g);
        stop = (fun () -> Traffic_gen.stop g);
      }

(* What sits between the payload source and the chain entry. *)
type front = {
  input : Netsim.Link.port;
  stop : unit -> unit;
  overhead : unit -> float;
}

(* Source -> [front] -> chain -> receiver as simulator records, dispatched
   one event at a time until the tap holds [count] post-warm-up gaps, or
   raising [Starvation.Tap_starved] when padded traffic stops reaching
   the tap.  The creation order (receiver, chain and its cross sources,
   front, source) fixes the event queue's seq order.  The payload,
   gateway and cross streams are three splits off the root, in that
   order, as on the pipeline. *)
let assemble arena (cfg : System.config) ~scenario ~count ~expected_rate
    make_front =
  let sim = arena.Arena.sim in
  let root = Prng.Rng.create ~seed:cfg.seed in
  let rng_payload = Prng.Rng.split root in
  let rng_gateway = Prng.Rng.split root in
  let rng_cross = Prng.Rng.split root in
  let receiver = Padding.Receiver.create sim () in
  let topo =
    Topology.chain sim ~rng:rng_cross ~hops:cfg.hops
      ~tap_position:cfg.tap_position
      ~tap_buffers:(arena.Arena.tap_times, Netsim.Fvec.create ())
      ~dest:(Padding.Receiver.port receiver)
      ()
  in
  let front = make_front sim ~rng:rng_gateway ~dest:topo.Topology.entry in
  let source =
    start_payload_source sim ~model:cfg.payload_model ~rng:rng_payload
      ~rate_pps:cfg.payload_rate_pps ~size_bytes:cfg.packet_size
      ~dest:front.input
  in
  let warmup = cfg.warmup_piats in
  Tap.run_until_count ~scenario ~slack:1.1 ~min_chunk:0.1 sim
    ~tap:topo.Topology.tap
    ~target:(System.tap_target ~warmup ~count)
    ~expected_rate;
  source.stop ();
  front.stop ();
  Topology.stop_cross topo;
  Desim.Sim.publish_metrics sim;
  let piats, timestamps =
    System.observed ~warmup ~count (Tap.timestamps topo.Topology.tap)
  in
  {
    System.piats;
    timestamps;
    overhead = front.overhead ();
    payload_offered = source.generated ();
    payload_delivered = Padding.Receiver.payload_received receiver;
    payload_dropped_gw = 0;
    mean_payload_latency = Padding.Receiver.mean_payload_latency receiver;
    sim_time = Desim.Sim.now sim;
  }

let run_event_loop ?(fresh_arena = false) (cfg : System.config) ~piats =
  validate cfg;
  if piats < 1 then invalid_arg "System.run_event_loop: piats < 1";
  Obs.Trace.with_run
    (Printf.sprintf "system.run seed=%d pps=%g" cfg.seed cfg.payload_rate_pps)
  @@ fun () ->
  let arena = Arena.get ~fresh:fresh_arena in
  System.arm_event_budget arena.Arena.sim;
  assemble arena cfg ~scenario:"system.run" ~count:piats
    ~expected_rate:(1.0 /. Padding.Timer.mean cfg.timer)
    (fun sim ~rng ~dest ->
      let gw =
        Padding.Gateway.create sim ~rng ~timer:cfg.timer ~jitter:cfg.jitter
          ~packet_size:cfg.packet_size ~buffers:arena.Arena.gw ~dest ()
      in
      {
        input = Padding.Gateway.input gw;
        stop = (fun () -> Padding.Gateway.stop gw);
        overhead = (fun () -> Padding.Gateway.overhead gw);
      })
