(* The three benchmark workloads.

   Each workload is a fixed batch of simulation runs and detection
   estimates generated from the seed, routed through [Scenarios.Sweep.mapi]
   like the figure sweeps.  A batch always does the same work (no
   Wilson early stop), so its wall time and PIAT count are comparable
   across engine changes.  Only stable entry points are used:
   [System.run]/[run_sharded]/[run_adaptive]/[run_mix],
   [Degradation.run_faulty], [Mux.run], [Adversary.Dataset.sliding_features]
   and [Adversary.Detection.estimate_windowed]. *)

module System = Scenarios.System
module Calibration = Scenarios.Calibration

type kind = Wan_diurnal | Gateway_detect | Irregular

let names =
  [
    ("wan_diurnal", Wan_diurnal);
    ("gateway_detect", Gateway_detect);
    ("irregular", Irregular);
  ]

let name k = fst (List.find (fun (_, k') -> k' = k) names)
let tau = Calibration.timer_mean
let features = Adversary.Feature.standard_set

(* Batch sizes.  [full] is what the benchmark measures; [tiny] is the
   self-test's. *)
type sizes = {
  wan_hours : float list;
  wan_n : int;  (** detection sample size on the WAN path *)
  wan_windows : int;  (** sliding windows per class per hour *)
  gw_piats : int;  (** PIATs per class per timer law *)
  gw_passes : (int * int) list;  (** (sample size, stride) scored *)
  irr_piats : int;  (** PIATs per event-loop run *)
  irr_onoff_piats : int;
  fleet_flows : int;
  fleet_duration : float;
  warm_piats : int;
  leak_min_rate : float;  (** detection floor for the CIT leak oracle *)
}

let full =
  {
    wan_hours = [ 4.0; 16.0 ];
    wan_n = 1000;
    wan_windows = 8;
    gw_piats = 100_000;
    gw_passes = [ (100, 100); (300, 100); (1000, 1000) ];
    irr_piats = 100_000;
    irr_onoff_piats = 4_000;
    fleet_flows = 100_000;
    fleet_duration = 0.2;
    warm_piats = 100;
    leak_min_rate = 0.85;
  }

let tiny =
  {
    wan_hours = [ 4.0; 16.0 ];
    wan_n = 100;
    wan_windows = 6;
    gw_piats = 8_000;
    gw_passes = [ (50, 50); (200, 50); (400, 400) ];
    irr_piats = 2_000;
    irr_onoff_piats = 300;
    fleet_flows = 2_000;
    fleet_duration = 0.1;
    warm_piats = 20;
    leak_min_rate = 0.75;
  }

(* One sweep point of a workload. *)
type point =
  | Wan_hour of float
  | Gateway_law of Padding.Timer.law
  | Faulty of float  (** fault intensity *)
  | Onoff_cross
  | Cbr_payload
  | Adaptive
  | Mix
  | Fleet

let intensities = [ 0.0; 0.05; 0.2 ]

(* [Degradation.profile_of_intensity] with short outages (50 ms mean)
   and a 0.2 s crash restart: every injector stays active, but no
   downtime outlasts the tap's stall window, so a run never ends in the
   (declared, by-design) tap starvation the stock 0.3 s / 1 s downtimes
   cause in a few percent of long runs. *)
let fault_profile x =
  let p = Scenarios.Degradation.profile_of_intensity x in
  if x = 0.0 then p
  else { p with flap = Some (10.0 /. x, 0.05); restart_delay = 0.2 }

let points kind sizes =
  match kind with
  | Wan_diurnal -> List.map (fun h -> Wan_hour h) sizes.wan_hours
  | Gateway_detect ->
      [
        Gateway_law (Padding.Timer.Constant tau);
        Gateway_law (Padding.Timer.Normal { mean = tau; sigma = 2e-6 });
        Gateway_law (Padding.Timer.Normal { mean = tau; sigma = 20e-6 });
      ]
  | Irregular ->
      List.map (fun x -> Faulty x) intensities
      @ [ Onoff_cross; Cbr_payload; Adaptive; Mix; Fleet ]

let wan_hops hour = Scenarios.Fig8.hops_for Scenarios.Fig8.Wan ~hour

let onoff_hops =
  [|
    Scenarios.Fig6.hop_for_utilization ~utilization:0.1
      ~burst:(`On_off (0.05, 0.05, None));
  |]

(* The generated inputs: the seed fixes every configuration of the batch. *)
type inputs = { kind : kind; seed : int; sizes : sizes; points : point list }

let inputs kind ~seed ~sizes = { kind; seed; sizes; points = points kind sizes }

let base_config ~seed ~index =
  { System.default_config with seed = Prng.Rng.mix_seed seed index }

let class_config (base : System.config) ~rate ~cls =
  { base with payload_rate_pps = rate; seed = Prng.Rng.mix_seed base.seed cls }

(* --- digest of the simulated statistics (reported, never gating) --- *)

let moments piats =
  if Array.length piats < 2 then Printf.sprintf "%d" (Array.length piats)
  else
    Printf.sprintf "%d:%h:%h" (Array.length piats)
      (Stats.Descriptive.mean piats)
      (Stats.Descriptive.variance piats)

let detection_counts results =
  String.concat ","
    (List.map
       (fun (r : Adversary.Detection.result) ->
         Printf.sprintf "%s@%d:%d/%d"
           (Adversary.Feature.name r.feature)
           r.sample_size
           (Array.fold_left ( + ) 0 r.n_correct_per_class)
           (Array.fold_left ( + ) 0 r.n_test_per_class))
       results)

(* --- operations ---------------------------------------------------- *)

(* Work counts a traced batch turns into per-unit layer figures. *)
type work = {
  mutable system_calls : int;
  mutable system_piats : int;
  mutable windows : int;
  mutable trials : int;
  mutable faults_piats : int;
  mutable fault_free_s : float;  (** run_faulty seconds at intensity 0 *)
  mutable fault_max_s : float;  (** ... at the largest intensity *)
  mutable fleet_arrivals : int;
}

let new_work () =
  {
    system_calls = 0;
    system_piats = 0;
    windows = 0;
    trials = 0;
    faults_piats = 0;
    fault_free_s = 0.0;
    fault_max_s = 0.0;
    fleet_arrivals = 0;
  }

let system_op tally work f ~check =
  Oracle.op tally (fun () ->
      let r = Layers.span Layers.system f in
      work.system_calls <- work.system_calls + 1;
      work.system_piats <- work.system_piats + Array.length r.System.piats;
      check r;
      r)

let check_length ~piats (r : System.result) =
  Oracle.require
    (Array.length r.piats = piats)
    "%d PIATs returned, %d requested" (Array.length r.piats) piats

let check_conserved (r : System.result) =
  Oracle.conservation ~offered:r.payload_offered ~delivered:r.payload_delivered
    ~dropped:r.payload_dropped_gw ()

(* A timer gateway on a loss-free path. *)
let check_padded (cfg : System.config) ~piats (r : System.result) =
  check_length ~piats r;
  Oracle.mean_piat
    ~timer_mean:(Padding.Timer.mean cfg.timer)
    ~timer_sigma:(Padding.Timer.sigma cfg.timer)
    r.piats;
  Oracle.overhead ~rate_pps:cfg.payload_rate_pps
    ~timer_mean:(Padding.Timer.mean cfg.timer)
    ~sim_time:r.sim_time r.overhead;
  check_conserved r

let r_hat ~low ~high =
  let v_low = Stats.Descriptive.variance low in
  let v_high = Stats.Descriptive.variance high in
  Float.max (v_high /. v_low) 1.0

(* Slide a window over both class traces (stats layer), then train and
   score the KDE-Bayes adversary on the window features (adversary
   layer).  One detection estimate = one operation. *)
let score tally work ~sample_size ~stride ~low ~high ~check =
  Oracle.op tally (fun () ->
      let widths = Adversary.Detection.entropy_bin_widths features in
      let slide trace =
        Layers.span Layers.window (fun () ->
            Adversary.Dataset.sliding_features ~reference:tau ~sample_size
              ~stride ~entropy_bin_widths:widths trace)
      in
      let w_low = slide low and w_high = slide high in
      let results =
        Layers.span Layers.detection (fun () ->
            Adversary.Detection.estimate_windowed ~features ~sample_size
              ~named_windows:
                [|
                  (Calibration.label_low, w_low);
                  (Calibration.label_high, w_high);
                |]
              ())
      in
      Oracle.ratio (r_hat ~low ~high);
      List.iter Oracle.detection results;
      check results;
      work.windows <- work.windows + w_low.w_count + w_high.w_count;
      List.iter
        (fun (r : Adversary.Detection.result) ->
          work.trials <-
            work.trials + Array.fold_left ( + ) 0 r.n_test_per_class)
        results;
      results)

let no_check _ = ()

(* Low/high payload-rate pair of one configuration. *)
let pair tally work ~run (base : System.config) ~piats =
  let one ~rate ~cls =
    let cfg = class_config base ~rate ~cls in
    system_op tally work (fun () -> run cfg ~piats) ~check:(check_padded cfg ~piats)
  in
  ( one ~rate:Calibration.rate_low_pps ~cls:0,
    one ~rate:Calibration.rate_high_pps ~cls:1 )

let wan_hour tally work (inp : inputs) ~index hour =
  let s = inp.sizes in
  let hops = wan_hops hour in
  let base =
    { (base_config ~seed:inp.seed ~index) with hops; tap_position = Array.length hops }
  in
  let stride = Stdlib.max 1 (s.wan_n / 16) in
  let piats = s.wan_n + ((s.wan_windows - 1) * stride) in
  let run cfg ~piats = System.run cfg ~piats in
  match pair tally work ~run base ~piats with
  | Some lo, Some hi ->
      let det =
        score tally work ~sample_size:s.wan_n ~stride ~low:lo.piats
          ~high:hi.piats ~check:no_check
      in
      Printf.sprintf "wan@%g[%s|%s|%s]" hour (moments lo.piats)
        (moments hi.piats)
        (match det with Some d -> detection_counts d | None -> "-")
  | _ -> Printf.sprintf "wan@%g[failed]" hour

let gateway_law tally work (inp : inputs) ~index law =
  let s = inp.sizes in
  let base = { (base_config ~seed:inp.seed ~index) with timer = law } in
  let run cfg ~piats = System.run_sharded ~shards:2 cfg ~piats in
  match pair tally work ~run base ~piats:s.gw_piats with
  | Some lo, Some hi ->
      let largest = List.fold_left (fun m (n, _) -> Stdlib.max m n) 0 s.gw_passes in
      let leak results =
        if Padding.Timer.is_cit law then
          List.iter
            (fun (r : Adversary.Detection.result) ->
              if r.sample_size = largest && r.feature <> Adversary.Feature.Sample_mean
              then Oracle.leak ~min_rate:s.leak_min_rate r)
            results
      in
      let dets =
        List.map
          (fun (sample_size, stride) ->
            match
              score tally work ~sample_size ~stride ~low:lo.piats ~high:hi.piats
                ~check:leak
            with
            | Some d -> detection_counts d
            | None -> "-")
          s.gw_passes
      in
      Printf.sprintf "gw@%g[%s|%s|%s]" (Padding.Timer.sigma law) (moments lo.piats)
        (moments hi.piats) (String.concat ";" dets)
  | _ -> Printf.sprintf "gw@%g[failed]" (Padding.Timer.sigma law)

let duplicated = Obs.Metrics.counter "faults.lossy.duplicated"

let faulty tally work (inp : inputs) ~index x =
  let cfg =
    {
      Scenarios.Degradation.default_config with
      seed = Prng.Rng.mix_seed inp.seed index;
      profile = fault_profile x;
    }
  in
  let piats = inp.sizes.irr_piats in
  let res =
    Oracle.op tally (fun () ->
        let dup0 = Obs.Metrics.counter_value duplicated in
        let r, dt =
          Host.timed (fun () ->
              Layers.span Layers.faults (fun () ->
                  Scenarios.Degradation.run_faulty cfg ~piats))
        in
        let dup = Obs.Metrics.counter_value duplicated - dup0 in
        Oracle.require
          (Array.length r.piats = piats)
          "%d faulty PIATs returned, %d requested" (Array.length r.piats) piats;
        Oracle.conservation ~duplicated:dup ~offered:r.payload_offered
          ~delivered:r.payload_delivered
          ~dropped:(r.payload_dropped_gw + r.lost_crash) ();
        if x = 0.0 then begin
          Oracle.mean_piat ~timer_mean:tau ~timer_sigma:0.0 r.piats;
          Oracle.overhead ~rate_pps:cfg.payload_rate_pps ~timer_mean:tau
            ~sim_time:r.sim_time r.overhead;
          work.fault_free_s <- work.fault_free_s +. dt
        end;
        if x = List.fold_left Float.max 0.0 intensities then
          work.fault_max_s <- work.fault_max_s +. dt;
        work.faults_piats <- work.faults_piats + Array.length r.piats;
        r)
  in
  match res with
  | Some r ->
      Printf.sprintf "faulty@%g[%s|%d/%d]" x (moments r.piats) r.payload_delivered
        r.payload_offered
  | None -> Printf.sprintf "faulty@%g[failed]" x

let event_loop_run tally work (inp : inputs) ~index point =
  let piats =
    if point = Onoff_cross then inp.sizes.irr_onoff_piats else inp.sizes.irr_piats
  in
  let base = base_config ~seed:inp.seed ~index in
  let label, res =
    match point with
    | Onoff_cross ->
        let cfg = { base with hops = onoff_hops; tap_position = 1 } in
        ( "onoff",
          system_op tally work
            (fun () -> System.run cfg ~piats)
            ~check:(check_padded cfg ~piats) )
    | Cbr_payload ->
        let cfg = { base with payload_model = System.Cbr_payload } in
        ( "cbr",
          system_op tally work
            (fun () -> System.run cfg ~piats)
            ~check:(check_padded cfg ~piats) )
    | Adaptive ->
        (* Periods between 10 and 40 ms (the defaults). *)
        ( "adaptive",
          system_op tally work
            (fun () -> System.run_adaptive base ~piats)
            ~check:(fun r ->
              check_length ~piats r;
              let m = Stats.Descriptive.mean r.piats in
              Oracle.require
                (m >= 0.0099 && m <= 0.0404)
                "adaptive mean PIAT %g outside its period range" m;
              check_conserved r) )
    | Mix ->
        ( "mix",
          system_op tally work
            (fun () -> System.run_mix base ~piats)
            ~check:(fun r ->
              check_length ~piats r;
              check_conserved r) )
    | Wan_hour _ | Gateway_law _ | Faulty _ | Fleet ->
        invalid_arg "Workloads.event_loop_run"
  in
  match res with
  | Some r -> Printf.sprintf "%s[%s]" label (moments r.piats)
  | None -> label ^ "[failed]"

let mux_config (inp : inputs) ~index =
  {
    Mux.default_config with
    seed = Prng.Rng.mix_seed inp.seed index;
    flows = inp.sizes.fleet_flows;
    duration = inp.sizes.fleet_duration;
  }

let arena_env _gateway =
  let a = Scenarios.Arena.get ~fresh:false in
  { Mux.sim = a.sim; gw_buffers = Some a.gw }

let fleet tally work (inp : inputs) ~index =
  let cfg = mux_config inp ~index in
  let res =
    Oracle.op tally (fun () ->
        let r = Layers.span Layers.fleet (fun () -> Mux.run ~env_for:arena_env cfg) in
        Oracle.flow_table
          ~total_packets:(Flow_table.total_packets r.table)
          ~arrivals:r.arrivals;
        (* Superposed Poisson arrivals: mean flows * mean rate * duration. *)
        let expected =
          Array.fold_left
            (fun acc (c : Mux.rate_class) ->
              acc +. (c.fraction *. c.rate_pps))
            0.0 cfg.classes
          *. float_of_int cfg.flows *. cfg.duration
        in
        let tol = (0.01 *. expected) +. (5.0 *. sqrt expected) in
        Oracle.require
          (Float.abs (float_of_int r.arrivals -. expected) <= tol)
          "fleet arrivals %d outside %.0f +/- %.0f" r.arrivals expected tol;
        Oracle.conservation ~offered:r.arrivals ~delivered:r.payload_delivered
          ~dropped:r.payload_dropped ();
        work.fleet_arrivals <- work.fleet_arrivals + r.arrivals;
        r)
  in
  match res with
  | Some r -> Printf.sprintf "fleet[%d|%d]" r.arrivals r.payload_delivered
  | None -> "fleet[failed]"

let run_point tally work inp ~index = function
  | Wan_hour h -> wan_hour tally work inp ~index h
  | Gateway_law law -> gateway_law tally work inp ~index law
  | Faulty x -> faulty tally work inp ~index x
  | (Onoff_cross | Cbr_payload | Adaptive | Mix) as p ->
      event_loop_run tally work inp ~index p
  | Fleet -> fleet tally work inp ~index

type batch = {
  piats : int;  (** post-warm-up tap PIATs simulated *)
  digest : string;  (** MD5 of the simulated statistics *)
  work : work;
}

let batch tally (inp : inputs) =
  let work = new_work () in
  let name = name inp.kind in
  let cells =
    Layers.span Layers.sweep (fun () ->
        Scenarios.Sweep.mapi ~sweep:("perfbench." ^ name)
          ~digest:(Scenarios.Sweep.digest_of_string (Printf.sprintf "%s|%d" name inp.seed))
          ~seed:inp.seed
          ~task:(fun ~attempt:_ index point ->
            Layers.span Layers.sweep_task (fun () ->
                run_point tally work inp ~index point))
          inp.points)
  in
  let parts =
    List.map
      (fun (c : string Scenarios.Sweep.cell) ->
        match c.value with
        | Some s -> s
        | None ->
            (* A point escaped its operations' containment. *)
            Atomic.incr tally.Oracle.attempted;
            Atomic.incr tally.Oracle.failed;
            "cell-failed:" ^ c.error)
      cells
  in
  let piats = work.system_piats + work.faults_piats in
  { piats; digest = Digest.to_hex (Digest.string (String.concat "\n" parts)); work }

(* Set-up: warm the calling domain's [Scenarios.Arena] (and the code and
   heap) on a short run of each kind of simulation the batch performs.
   [fresh] builds brand-new arenas instead, so repeated set-ups each pay
   the full cost and can be timed. *)
let warm (inp : inputs) ~fresh =
  let s = inp.sizes in
  let short (cfg : System.config) =
    ignore (System.run ~fresh_arena:fresh cfg ~piats:s.warm_piats)
  in
  let base = base_config ~seed:inp.seed ~index:0 in
  match inp.kind with
  | Wan_diurnal ->
      let hour = List.fold_left Float.max 0.0 s.wan_hours in
      let hops = wan_hops hour in
      short { base with hops; tap_position = Array.length hops }
  | Gateway_detect ->
      ignore (System.run ~fresh_arena:fresh base ~piats:s.gw_piats)
  | Irregular ->
      short { base with hops = onoff_hops; tap_position = 1 };
      short { base with payload_model = System.Cbr_payload };
      ignore
        (System.run_adaptive ~fresh_arena:fresh base ~piats:(10 * s.warm_piats));
      ignore (System.run_mix ~fresh_arena:fresh base ~piats:(10 * s.warm_piats));
      ignore
        (Scenarios.Degradation.run_faulty
           {
             Scenarios.Degradation.default_config with
             profile = fault_profile 0.05;
           }
           ~piats:(10 * s.warm_piats));
      let env_for _ =
        if fresh then { Mux.sim = Desim.Sim.create (); gw_buffers = None }
        else arena_env 0
      in
      ignore
        (Mux.run ~env_for
           { (mux_config inp ~index:0) with duration = s.fleet_duration /. 10.0 })
