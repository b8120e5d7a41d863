(* One benchmark run: set a workload up from the seed, repeat its fixed
   batch for the allotted seconds, and report either the end-to-end
   metrics (median batch wall time, throughput, set-up time, peak
   memory) or, traced, the per-layer metrics of traced batches, each
   paired with an untraced one to price the tracing.

   End-to-end times are in reference-host seconds: calibration marks run
   before every operation and around every batch and set-up, and each
   stretch of measured time is scaled by the calibration kernel's speed
   around it ({!Host.reference_seconds}).  The measured seconds are
   printed on the info line. *)

module W = Workloads

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }
let per a b = if b > 0.0 then a /. b else 0.0

type run = {
  metrics : metric list;
  attempted : int;
  failed : int;
  consistent : bool;  (** every batch reproduced the first one's digest *)
  digest : string;
  batch_s : float list;  (** measured seconds of every batch, in run order *)
  calib_ns : float;  (** median calibration speed over the run *)
  errors : string list;
}

let correct r = r.failed = 0 && r.consistent

(* [f ()] delimited by calibration marks: [(x, first mark, last mark)]. *)
let measured f =
  Host.mark ();
  let first = Host.last_mark () in
  let x = f () in
  Host.mark ();
  (x, first, Host.last_mark ())

let reference (_, first, last) = Host.reference_seconds ~first ~last

(* Set-up (generate the inputs, warm a fresh arena) is timed [setup_reps]
   times; the median, in reference seconds, is [setup_s].  The domain's
   own arena is warmed last, untimed. *)
let setup_reps = 7

let setup kind ~seed ~sizes =
  let reps =
    List.init setup_reps (fun _ ->
        measured (fun () -> W.warm (W.inputs kind ~seed ~sizes) ~fresh:true))
  in
  let inp = W.inputs kind ~seed ~sizes in
  W.warm inp ~fresh:false;
  (inp, reps)

(* Repeat [f] until the next repetition would overrun [seconds]; at
   least once. *)
let repeat ~seconds f =
  let t0 = Host.now () in
  let rec go acc =
    let t1 = Host.now () in
    let r = measured f in
    let dt = Host.now () -. t1 in
    if Host.now () -. t0 +. dt > seconds then List.rev (r :: acc) else go (r :: acc)
  in
  go []

let finish tally batches ~batch_s ~metrics =
  let digests = List.map (fun (b : W.batch) -> b.digest) batches in
  let digest = List.hd digests in
  {
    metrics;
    attempted = Atomic.get tally.Oracle.attempted;
    failed = Atomic.get tally.Oracle.failed;
    consistent = List.for_all (String.equal digest) digests;
    digest;
    batch_s;
    calib_ns = Host.calib_median ();
    errors = List.rev !(tally.Oracle.errors);
  }

let untraced inp ~setup ~seconds =
  let tally = Oracle.tally () in
  let runs = repeat ~seconds (fun () -> W.batch tally inp) in
  let setup_s = Host.median (List.map (fun r -> fst (reference r)) setup) in
  let wall = Host.median (List.map (fun r -> fst (reference r)) runs) in
  let piats = float_of_int (List.hd runs |> fun (b, _, _) -> b.W.piats) in
  finish tally
    (List.map (fun (b, _, _) -> b) runs)
    ~batch_s:(List.map (fun r -> snd (reference r)) runs)
    ~metrics:
      [
        m "setup_s" "s" setup_s;
        m "wall_s" "s" wall;
        m "piats_per_s" "1/s" (per piats wall);
        m "peak_rss_mb" "MB" (Host.peak_rss_mb ());
      ]

(* --- traced run ----------------------------------------------------- *)

let hop_name i = Printf.sprintf "netsim.hop%02d.s" i
let max_hops = 15

let counter snap name = float_of_int (Obs.Metrics.Snapshot.counter_value snap name)

let fallbacks snap =
  List.fold_left
    (fun acc (_, v) ->
      match v with Obs.Metrics.Snapshot.Counter c -> acc + c | _ -> acc)
    0
    (Obs.Metrics.Snapshot.filter_prefix "desim.kernel.fallbacks" snap)

(* Per-layer figures of one traced batch. *)
let traced_batch tally inp =
  Layers.reset ();
  Layers.enabled := true;
  let s0 = Obs.Metrics.snapshot () in
  let g0 = Gc.quick_stat () in
  let b, wall = Host.timed (fun () -> W.batch tally inp) in
  let g1 = Gc.quick_stat () in
  let s1 = Obs.Metrics.snapshot () in
  Layers.enabled := false;
  let d name = counter s1 name -. counter s0 name in
  let w = b.W.work in
  let piats = float_of_int b.W.piats in
  let sys_s = Layers.get Layers.system in
  let faults_s = Layers.get Layers.faults in
  let fleet_s = Layers.get Layers.fleet in
  let events = d "desim.events_processed" in
  let covered =
    List.fold_left (fun acc l -> acc +. Layers.get l) 0.0 Layers.top
    +. Layers.sweep_overhead ()
  in
  let fault_ns s = per (s *. 1e9) (float_of_int inp.W.sizes.irr_piats) in
  let metrics =
    [
      m "scenarios.system.calls" "count" (float_of_int w.system_calls);
      m "scenarios.system.s" "s" sys_s;
      m "scenarios.system.ns_per_piat" "ns/piat"
        (per (sys_s *. 1e9) (float_of_int w.system_piats));
      m "scenarios.sweep.overhead_s" "s" (Layers.sweep_overhead ());
      m "padding.gateway.fires" "count" (d "padding.gateway.fires");
      m "netsim.enqueued_per_piat" "count/piat" (per (d "netsim.link.enqueued") piats);
      m "desim.events_processed" "count" events;
      m "desim.events_per_piat" "count/piat" (per events piats);
      m "desim.ns_per_event" "ns" (per ((sys_s +. faults_s +. fleet_s) *. 1e9) events);
      m "desim.kernel.runs" "count" (d "desim.kernel.runs");
      m "desim.kernel.fallbacks" "count"
        (float_of_int (fallbacks s1 - fallbacks s0));
      m "faults.s" "s" faults_s;
      m "faults.overhead_ns_per_piat" "ns/piat"
        (fault_ns w.fault_max_s -. fault_ns w.fault_free_s);
      m "fleet.mux.s" "s" fleet_s;
      m "fleet.mux.ns_per_arrival" "ns"
        (per (fleet_s *. 1e9) (float_of_int w.fleet_arrivals));
      m "fleet.mux.arrivals" "count" (float_of_int w.fleet_arrivals);
      m "stats.window.s" "s" (Layers.get Layers.window);
      m "stats.window.ns_per_window" "ns"
        (per (Layers.get Layers.window *. 1e9) (float_of_int w.windows));
      m "adversary.detection.s" "s" (Layers.get Layers.detection);
      m "adversary.detection.ns_per_trial" "ns"
        (per (Layers.get Layers.detection *. 1e9) (float_of_int w.trials));
      m "adversary.trials" "count" (float_of_int w.trials);
      m "gc.minor_words_per_piat" "words/piat"
        (per (g1.Gc.minor_words -. g0.Gc.minor_words) piats);
      m "gc.major_collections" "count"
        (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
      m "gc.top_heap_mb" "MB"
        (float_of_int (g1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0);
      m "other.s" "s" (wall -. covered);
    ]
  in
  (b, wall, metrics)

(* The representative kernel-path point driven stage by stage, checked
   against a system run of the same configuration. *)
let stage_point (inp : W.inputs) =
  let base = W.base_config ~seed:inp.seed ~index:0 in
  match inp.kind with
  | W.Wan_diurnal ->
      let hour = List.fold_left Float.max 0.0 inp.sizes.wan_hours in
      let hops = W.wan_hops hour in
      Some ({ base with hops; tap_position = Array.length hops }, 300)
  | W.Gateway_detect -> Some (base, inp.sizes.gw_piats)
  | W.Irregular -> None

let stage_metrics tally inp =
  let split =
    match stage_point inp with
    | None -> None
    | Some (cfg, piats) ->
        Oracle.op tally (fun () ->
            let s = Stages.drive cfg ~piats in
            let r = Scenarios.System.run cfg ~piats in
            let sys = Stages.system_rate r in
            Oracle.require
              (Float.abs (s.rate -. sys) <= 0.01 *. sys)
              "stage-by-stage tap rate %.4f /s differs from the system run's \
               %.4f /s"
              s.rate sys;
            s)
  in
  let kernel_s, fires, hop_s, packets =
    match split with
    | Some s -> (s.kernel_s, float_of_int s.fires, s.hop_s, float_of_int s.packets)
    | None -> (0.0, 0.0, [||], 0.0)
  in
  let link_s = Array.fold_left ( +. ) 0.0 hop_s in
  [
    m "padding.kernel.s" "s" kernel_s;
    m "padding.kernel.ns_per_fire" "ns" (per (kernel_s *. 1e9) fires);
    m "netsim.linkstage.s" "s" link_s;
    m "netsim.linkstage.ns_per_packet" "ns" (per (link_s *. 1e9) packets);
    m "netsim.stage_share" "1" (per link_s (link_s +. kernel_s));
  ]
  @ List.init max_hops (fun i ->
        m (hop_name i) "s" (if i < Array.length hop_s then hop_s.(i) else 0.0))

let median_metrics runs =
  match runs with
  | [] -> []
  | first :: _ ->
      List.map
        (fun x ->
          let vs =
            List.map
              (fun ms -> (List.find (fun y -> y.name = x.name) ms).value)
              runs
          in
          { x with value = Host.median vs })
        first

(* Per-layer seconds are as measured; [host.calib_ns] converts them. *)
let traced inp ~seconds =
  let tally = Oracle.tally () in
  let runs =
    repeat ~seconds (fun () ->
        let bu, wall_u = Host.timed (fun () -> W.batch tally inp) in
        let bt, wall_t, ms = traced_batch tally inp in
        ([ bu; bt ], wall_u, wall_t, ms))
  in
  let pairs = List.map (fun (p, _, _) -> p) runs in
  let wall_u = Host.median (List.map (fun (_, u, _, _) -> u) pairs) in
  let wall_t = Host.median (List.map (fun (_, _, t, _) -> t) pairs) in
  let layer = median_metrics (List.map (fun (_, _, _, ms) -> ms) pairs) in
  let stages = stage_metrics tally inp in
  finish tally
    (List.concat_map (fun (bs, _, _, _) -> bs) pairs)
    ~batch_s:(List.concat_map (fun (_, u, t, _) -> [ u; t ]) pairs)
    ~metrics:
      (layer @ stages
      @ [
          m "trace.wall_s" "s" wall_t;
          m "trace.overhead_frac" "1" ((wall_t /. wall_u) -. 1.0);
          m "host.calib_ns" "ns" (Host.calib_median ());
        ])

(* Calibration marks delimit the untraced measurements only: traced
   per-layer seconds are reported as measured, with [host.calib_ns]. *)
let run_workload kind ~seed ~seconds ~trace ~sizes =
  Host.marking := not trace;
  let inp, setup = setup kind ~seed ~sizes in
  if trace then traced inp ~seconds else untraced inp ~setup ~seconds

(* --- output --------------------------------------------------------- *)

let num v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v
let str s = "\"" ^ Obs.Json.escape s ^ "\""

let result_line r =
  let metrics =
    List.map
      (fun x ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (str x.name)
          (num x.value) (str x.unit))
      r.metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (correct r) r.attempted r.failed (String.concat ", " metrics)

(* Provenance printed before the result: host fingerprint, the digest of
   the simulated statistics (identical across bit-exact engine changes,
   different when the draws changed), failed fraction and errors. *)
let info_line kind ~seed ~trace r =
  let host =
    List.map
      (fun (k, v) -> Printf.sprintf "%s: %s" (str k) (str v))
      (Host.fingerprint ~calib_ns:r.calib_ns)
  in
  Printf.sprintf
    "{\"benchmark\": \"perfbench/1\", \"workload\": %s, \"seed\": %d, \
     \"trace\": %b, \"batch_s\": [%s], \"digest\": %s, \"digest_stable\": %b, \
     \"failed_frac\": %s, \"host\": {%s}, \"errors\": [%s]}"
    (str (W.name kind)) seed trace
    (String.concat ", " (List.map (Printf.sprintf "%.4f") r.batch_s))
    (str r.digest) r.consistent
    (num (per (float_of_int r.failed) (float_of_int r.attempted)))
    (String.concat ", " host)
    (String.concat ", " (List.map str r.errors))

