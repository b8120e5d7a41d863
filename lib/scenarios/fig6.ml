type point = {
  utilization : float;
  measured_utilization : float;
  sigma_low : float;
  r_hat : float;
  scores : Workload.scored list;
}

type t = { sample_size : int; points : point list }

let default_utilizations =
  [ 0.05; 0.10; 0.15; 0.20; 0.25; 0.30; 0.35; 0.40; 0.45; 0.50 ]

let hop_for_utilization ~utilization ~burst =
  if utilization < 0.0 || utilization >= 1.0 then
    invalid_arg "Fig6.hop_for_utilization: utilization out of [0,1)";
  let cross =
    if utilization = 0.0 then None
    else
      Some
        {
          Netsim.Topology.rate_pps =
            utilization *. Calibration.lab_bandwidth_bps
            /. (8.0 *. float_of_int Calibration.cross_packet_size);
          size_bytes = Calibration.cross_packet_size;
          burst;
        }
  in
  {
    Netsim.Topology.bandwidth_bps = Calibration.lab_bandwidth_bps;
    propagation = 0.0;
    queue_limit = None;
    cross;
  }

let run ?(scale = 1.0) ?(seed = 42_005) ?(sample_size = 1000)
    ?(utilizations = default_utilizations) ?(burst = `Poisson) ?half_width
    ?csv_dir fmt =
  if sample_size < 2 then invalid_arg "Fig6.run: sample_size < 2";
  let windows = Stdlib.max 6 (int_of_float (40.0 *. scale)) in
  let features = Adversary.Feature.standard_set in
  let plan =
    Workload.window_plan ~sample_size ~max_windows:windows ?half_width ()
  in
  (* Sweep points are seeded by index, hence independent: fan them out. *)
  let points =
    Sweep.tabulate ~sweep:"fig6" ~seed
      ~params:
        [
          ("n", string_of_int sample_size);
          ("w", string_of_int windows);
          ("stride", string_of_int plan.Workload.stride);
          ("wps", string_of_int plan.Workload.windows_per_shard);
          ("minw", string_of_int plan.Workload.min_windows);
          ( "hw",
            match plan.Workload.half_width with
            | None -> "-"
            | Some h -> Printf.sprintf "%h" h );
          ( "burst",
            match burst with
            | `Poisson -> "poisson"
            | `On_off (a, b, c) ->
                Printf.sprintf "onoff:%h:%h:%s" a b
                  (match c with None -> "-" | Some x -> Printf.sprintf "%h" x)
          );
          ("points", String.concat "," (List.map (Printf.sprintf "%h") utilizations));
        ]
      ~task:(fun ~attempt i utilization ->
        let hop = hop_for_utilization ~utilization ~burst in
        let base =
          {
            System.default_config with
            System.seed =
              Sweep.attempt_seed ~seed:(seed + (100 * i)) ~attempt;
            hops = [| hop |];
            tap_position = 1;
          }
        in
        let pair, scores = Workload.collect_windowed ~base ~plan ~features in
        (* The padded stream itself adds ~0.1% at these speeds; measured
           utilization reports the cross share actually offered. *)
        let measured_utilization =
          match hop.Netsim.Topology.cross with
          | None -> 0.0
          | Some c ->
              c.Netsim.Topology.rate_pps
              *. (8.0 *. float_of_int c.Netsim.Topology.size_bytes)
              /. Calibration.lab_bandwidth_bps
        in
        {
          utilization;
          measured_utilization;
          sigma_low = sqrt pair.Workload.piat_var_low;
          r_hat = pair.Workload.ratio_hat;
          scores;
        })
      ~title:
        (Printf.sprintf
           "Fig 6: CIT + cross traffic (lab), detection vs link utilization \
            (sample size %d)"
           sample_size)
      ~columns:([ "util"; "sigma_l(us)"; "r_hat" ] @ Workload.columns ~ci:true)
      ~rows:(fun p ->
        List.map
          (fun s ->
            Printf.sprintf "%.2f" p.utilization
            :: Printf.sprintf "%.2f" (p.sigma_low *. 1e6)
            :: Printf.sprintf "%.4f" p.r_hat
            :: Workload.cells ~ci:true s)
          p.scores)
      ?csv_dir fmt
      (List.map (fun u -> (Printf.sprintf "%.2f" u, u)) utilizations)
  in
  { sample_size; points }
