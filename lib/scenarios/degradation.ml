type profile = {
  loss : Faults.Lossy.loss_model;
  dup_prob : float;
  reorder_prob : float;
  reorder_delay : float;
  clock : Faults.Clock.spec;
  flap : (float * float) option;
  mtbf : float;
  restart_delay : float;
}

let fault_free =
  {
    loss = Faults.Lossy.No_loss;
    dup_prob = 0.0;
    reorder_prob = 0.0;
    reorder_delay = 0.005;
    clock = Faults.Clock.ideal;
    flap = None;
    mtbf = infinity;
    restart_delay = 1.0;
  }

let profile_of_intensity x =
  if x < 0.0 || x > 1.0 || Float.is_nan x then
    invalid_arg "Degradation.profile_of_intensity: intensity outside [0, 1]";
  if x = 0.0 then fault_free
  else
    {
      loss = Faults.Lossy.Bernoulli (Float.min 0.9 x);
      dup_prob = x /. 10.0;
      reorder_prob = x /. 10.0;
      reorder_delay = 0.005;
      clock =
        {
          Faults.Clock.drift = 0.002 *. x;
          miss_prob = x /. 2.0;
          coalesce = true;
          max_consecutive_misses = 4;
        };
      (* Flap/crash rates chosen so a 0.1-intensity run of a few simulated
         minutes sees a handful of each.  Full intensity is a permanent
         blackout: the wire goes down within the first second and never
         comes back, so the run must end in [Starvation.Tap_starved]. *)
      flap = (if x >= 1.0 then Some (0.5, 1e18) else Some (10.0 /. x, 0.3));
      mtbf = 60.0 /. x;
      restart_delay = 1.0;
    }

type config = {
  seed : int;
  timer : Padding.Timer.law;
  jitter : Padding.Jitter.t;
  payload_rate_pps : float;
  packet_size : int;
  warmup_piats : int;
  profile : profile;
}

let default_config =
  {
    seed = 42;
    timer = Padding.Timer.Constant Calibration.timer_mean;
    jitter = Calibration.default_jitter;
    payload_rate_pps = Calibration.rate_low_pps;
    packet_size = Calibration.packet_size;
    warmup_piats = 200;
    profile = fault_free;
  }

type run_result = {
  piats : float array;
  overhead : float;
  payload_offered : int;
  payload_delivered : int;
  payload_dropped_gw : int;
  lost_wire : int;
  lost_outage : int;
  lost_crash : int;
  crashes : int;
  gw_downtime : float;
  mean_payload_latency : float;
  sim_time : float;
}

let validate cfg =
  Padding.Timer.validate cfg.timer;
  Faults.Lossy.validate_loss cfg.profile.loss;
  Faults.Clock.validate cfg.profile.clock;
  if cfg.payload_rate_pps <= 0.0 then
    invalid_arg "Degradation: payload_rate <= 0";
  if cfg.packet_size <= 0 then invalid_arg "Degradation: packet_size <= 0";
  if cfg.warmup_piats < 0 then invalid_arg "Degradation: warmup_piats < 0";
  if not (cfg.profile.mtbf > 0.0) then invalid_arg "Degradation: mtbf <= 0";
  if not (cfg.profile.restart_delay > 0.0) then
    invalid_arg "Degradation: restart_delay <= 0"

let lossy_stage l =
  {
    System.advance = (fun until -> Faults.Lossy.advance l ~until);
    out_times = Faults.Lossy.out_times l;
    out_tags = Faults.Lossy.out_tags l;
    trace = Some (Faults.Lossy.trace l);
    chunk_events = (fun () -> Faults.Lossy.chunk_events l);
    max_pending = (fun () -> Faults.Lossy.max_pending l);
    flush = (fun ~with_utilization:_ ~now:_ -> Faults.Lossy.flush l);
  }

let outage_stage o =
  {
    System.advance = (fun until -> Faults.Outage.advance o ~until);
    out_times = Faults.Outage.out_times o;
    out_tags = Faults.Outage.out_tags o;
    trace = Some (Faults.Outage.trace o);
    chunk_events = (fun () -> Faults.Outage.chunk_events o);
    (* The flapping process's next transition. *)
    max_pending = (fun () -> 1);
    flush = (fun ~with_utilization:_ ~now:_ -> Faults.Outage.flush o);
  }

(* Source -> faulty gateway -> lossy wire -> outage -> tap -> receiver on
   the staged pipeline.  The six streams are split off the seed in the
   order payload, gateway, wire (the pipeline's third, cross, split: a
   faulty run has no hops), clock, failure, flap.  The chunks are sized
   by the surviving packet rate, so heavy-fault runs do not starve the
   chunking loop; a run that truly stops making progress raises
   [Starvation.Tap_starved] with the metrics snapshot. *)
let run_faulty cfg ~piats =
  validate cfg;
  let p = cfg.profile in
  let fire_rate = 1.0 /. Padding.Timer.mean cfg.timer in
  let survive =
    (1.0 -. Faults.Lossy.expected_loss_rate p.loss)
    *. (1.0 -. p.clock.Faults.Clock.miss_prob)
  in
  let stages = ref None in
  let r =
    System.pipeline ~scenario:"degradation.run" ~fresh_arena:false ~slack:1.2
      ~min_chunk:0.2
      {
        System.default_config with
        seed = cfg.seed;
        timer = cfg.timer;
        jitter = cfg.jitter;
        payload_rate_pps = cfg.payload_rate_pps;
        packet_size = cfg.packet_size;
        warmup_piats = cfg.warmup_piats;
      }
      ~count:piats ~count_error:"Degradation.run_faulty: piats < 1"
      ~expected_rate:(Float.max (fire_rate *. survive *. 0.5) 1.0)
      (fun arena streams ->
        let rng_wire = streams.System.cross in
        let rng_clock = Prng.Rng.split streams.root in
        let rng_failure = Prng.Rng.split streams.root in
        let rng_flap = Prng.Rng.split streams.root in
        let k = arena.Arena.kernel_gw in
        let l =
          Faults.Lossy.create ~rng:rng_wire ~loss:p.loss ~dup_prob:p.dup_prob
            ~reorder_prob:p.reorder_prob ~reorder_delay:p.reorder_delay
            ~in_t:(Padding.Kernel.out_times k)
            ~in_tag:(Padding.Kernel.out_tags k)
        in
        Padding.Kernel.configure_faulty k
          ~faults:
            {
              Padding.Kernel.clock = p.clock;
              rng_clock;
              mtbf = p.mtbf;
              restart_delay = p.restart_delay;
              rng_failure;
            }
          ~rng_payload:streams.payload ~rng_gateway:streams.gateway
          ~timer:cfg.timer ~jitter:cfg.jitter ~packet_size:cfg.packet_size
          ~payload_rate:cfg.payload_rate_pps;
        let o =
          Faults.Outage.create ~rng:rng_flap ~flap:p.flap
            ~in_t:(Faults.Lossy.out_times l) ~in_tag:(Faults.Lossy.out_tags l)
        in
        stages := Some (k, l, o);
        {
          System.stages =
            [ System.kernel_stage k; lossy_stage l; outage_stage o ];
          overhead = (fun () -> Padding.Kernel.overhead k);
          offered = (fun () -> Padding.Kernel.generated k);
        })
  in
  let k, l, o = Option.get !stages in
  {
    piats = r.System.piats;
    overhead = r.overhead;
    payload_offered = r.payload_offered;
    payload_delivered = r.payload_delivered;
    payload_dropped_gw = r.payload_dropped_gw;
    lost_wire = Faults.Lossy.lost l;
    lost_outage = Faults.Outage.dropped o;
    lost_crash = Padding.Kernel.payload_lost k;
    crashes = Padding.Kernel.crashes k;
    gw_downtime = Padding.Kernel.downtime k ~now:r.sim_time;
    mean_payload_latency = r.mean_payload_latency;
    sim_time = r.sim_time;
  }

type point = {
  intensity : float;
  v_mean : float;
  v_variance : float;
  v_entropy : float;
  v_gap : float;
  gap_fraction : float;
  overhead : float;
  mean_latency : float;
  delivered_frac : float;
  dropped_gw : int;
  lost_wire : int;
  lost_down : int;
  crashes : int;
  downtime : float;
}

let rate_of_result results feature =
  match
    List.find_opt
      (fun r -> r.Adversary.Detection.feature = feature)
      results
  with
  | Some r -> r.Adversary.Detection.detection_rate
  | None -> Float.nan

let evaluate ?piats ?(sample_size = 400) ?timer ~seed ~profile ~intensity () =
  let piats = Option.value piats ~default:(20 * sample_size) in
  let tau = Calibration.timer_mean in
  let base =
    {
      default_config with
      seed;
      profile;
      timer = Option.value timer ~default:default_config.timer;
    }
  in
  (* Disjoint derived seeds: the two classes are independent simulations
     and can run concurrently (bit-identical either way). *)
  let low, high =
    Exec.Pool.both
      (fun () -> run_faulty { base with seed = (seed * 2) + 1 } ~piats)
      (fun () ->
        run_faulty
          {
            base with
            seed = (seed * 2) + 2;
            payload_rate_pps = Calibration.rate_high_pps;
          }
          ~piats)
  in
  let classes =
    [|
      (Calibration.label_low, low.piats); (Calibration.label_high, high.piats);
    |]
  in
  let standard =
    Adversary.Detection.estimate_features
      ~features:Adversary.Feature.standard_set ~reference:tau ~sample_size
      ~classes ()
  in
  (* The gap-aware adversary folds the holes out of the whole trace, then
     runs the same classifier bank on the cleaned material and keeps its
     best feature — an adaptive adversary is not obliged to classify on
     the defender's preferred statistic. *)
  let folded_classes =
    Array.map
      (fun (name, trace) -> (name, Adversary.Gaps.fold ~tau trace))
      classes
  in
  let folded =
    Adversary.Detection.estimate_features
      ~features:Adversary.Feature.standard_set ~reference:tau ~sample_size
      ~classes:folded_classes ()
  in
  let v_gap =
    List.fold_left
      (fun acc r -> Float.max acc r.Adversary.Detection.detection_rate)
      0.0 folded
  in
  let entropy_kind =
    Adversary.Feature.Sample_entropy
      { bin_width = Adversary.Feature.default_entropy_bin_width }
  in
  let offered = low.payload_offered + high.payload_offered in
  let delivered = low.payload_delivered + high.payload_delivered in
  {
    intensity;
    v_mean = rate_of_result standard Adversary.Feature.Sample_mean;
    v_variance = rate_of_result standard Adversary.Feature.Sample_variance;
    v_entropy = rate_of_result standard entropy_kind;
    v_gap;
    gap_fraction = Adversary.Gaps.gap_fraction ~tau high.piats;
    overhead = (low.overhead +. high.overhead) /. 2.0;
    mean_latency =
      (low.mean_payload_latency +. high.mean_payload_latency) /. 2.0;
    delivered_frac =
      (if offered = 0 then 0.0
       else float_of_int delivered /. float_of_int offered);
    dropped_gw = low.payload_dropped_gw + high.payload_dropped_gw;
    lost_wire = low.lost_wire + high.lost_wire;
    lost_down =
      low.lost_outage + high.lost_outage + low.lost_crash + high.lost_crash;
    crashes = low.crashes + high.crashes;
    downtime = low.gw_downtime +. high.gw_downtime;
  }

let default_intensities = [ 0.0; 0.02; 0.05; 0.1; 0.2; 0.4 ]

let run ?(scale = 1.0) ?(seed = 47_000) ?csv_dir
    ?(intensities = default_intensities) fmt =
  let sample_size = Stdlib.max 100 (int_of_float (400.0 *. scale)) in
  let piats = 20 * sample_size in
  (* Intensities are seeded by index, hence independent: evaluate them in
     parallel, then fill the table in sweep order.  Intensity 1.0 is a
     designed blackout — under supervision it lands as a [failed] row
     (tap starved) instead of aborting the whole sweep. *)
  Sweep.tabulate ~sweep:"degradation" ~seed
    ~params:
      [
        ("n", string_of_int sample_size);
        ("piats", string_of_int piats);
        ("points", String.concat "," (List.map (Printf.sprintf "%h") intensities));
      ]
    ~task:(fun ~attempt i x ->
      evaluate ~piats ~sample_size
        ~seed:(Sweep.attempt_seed ~seed:(seed + i) ~attempt)
        ~profile:(profile_of_intensity x) ~intensity:x ())
    ~title:
      "Degradation: detection and QoS vs fault intensity (gap-aware \
       adversary folds the holes back out)"
    ~columns:
      [
        "intensity"; "v_mean"; "v_var"; "v_entropy"; "v_gap"; "gap_frac";
        "overhead"; "latency(ms)"; "delivered"; "drops(gw)"; "lost(wire)";
        "lost(down)"; "crashes";
      ]
    ~rows:(fun p ->
      [
        [
          Printf.sprintf "%.2f" p.intensity;
          Table.fcell p.v_mean;
          Table.fcell p.v_variance;
          Table.fcell p.v_entropy;
          Table.fcell p.v_gap;
          Table.fcell p.gap_fraction;
          Table.fcell p.overhead;
          Printf.sprintf "%.3f" (p.mean_latency *. 1e3);
          Table.fcell p.delivered_frac;
          string_of_int p.dropped_gw;
          string_of_int p.lost_wire;
          string_of_int p.lost_down;
          string_of_int p.crashes;
        ];
      ])
    ?csv_dir fmt
    (List.map (fun x -> (Printf.sprintf "%.2f" x, x)) intensities)
