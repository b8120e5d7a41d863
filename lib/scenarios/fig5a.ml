type point = {
  sigma_t : float;
  r_hat : float;
  r_predicted : float;
  scores : Workload.scored list;
}

type t = {
  sample_size : int;
  calibration : Calibration.gateway_sigmas;
  points : point list;
}

let default_sigma_ts = [ 0.0; 1e-6; 2e-6; 5e-6; 10e-6; 20e-6; 50e-6; 100e-6 ]

let default_law ~sigma_t =
  if sigma_t = 0.0 then Padding.Timer.Constant Calibration.timer_mean
  else Padding.Timer.Normal { mean = Calibration.timer_mean; sigma = sigma_t }

let run ?(scale = 1.0) ?(seed = 42_003) ?(sample_size = 2000)
    ?(sigma_ts = default_sigma_ts) ?(law = default_law) ?csv_dir fmt =
  if sample_size < 2 then invalid_arg "Fig5a.run: sample_size < 2";
  let windows = Stdlib.max 6 (int_of_float (24.0 *. scale)) in
  let calibration = Calibration.measure_gateway_sigmas ~seed:(seed + 13) () in
  let predicted sigma_t =
    Analytical.Ratio.r
      (Analytical.Ratio.make ~sigma_t
         ~sigma_gw_low:calibration.Calibration.sigma_low
         ~sigma_gw_high:calibration.Calibration.sigma_high ())
  in
  let features = Adversary.Feature.standard_set in
  (* The journal key fingerprints every input that determines point
     values, including the (possibly caller-supplied) interval law. *)
  let law_tag sigma_t =
    let l = law ~sigma_t in
    let tag =
      match l with
      | Padding.Timer.Constant _ -> "c"
      | Normal _ -> "n"
      | Uniform _ -> "u"
      | Exponential _ -> "e"
    in
    Printf.sprintf "%s:%h:%h" tag (Padding.Timer.mean l) (Padding.Timer.sigma l)
  in
  (* Sweep points are seeded by index, hence independent: fan them out. *)
  let points =
    Sweep.tabulate ~sweep:"fig5a" ~seed
      ~params:
        [
          ("n", string_of_int sample_size);
          ("w", string_of_int windows);
          ( "points",
            String.concat ","
              (List.map (fun s -> Printf.sprintf "%h=%s" s (law_tag s)) sigma_ts)
          );
        ]
      ~task:(fun ~attempt i sigma_t ->
        let base =
          {
            System.default_config with
            System.seed =
              Sweep.attempt_seed ~seed:(seed + (100 * i)) ~attempt;
            timer = law ~sigma_t;
          }
        in
        let traces =
          Workload.collect_pair ~base ~piats:(sample_size * windows)
        in
        {
          sigma_t;
          r_hat = traces.Workload.r_hat;
          r_predicted = predicted sigma_t;
          scores = Workload.score traces ~features ~sample_size;
        })
      ~title:
        (Printf.sprintf
           "Fig 5(a): VIT padding, detection rate vs sigma_T (sample size \
            %d)"
           sample_size)
      ~columns:([ "sigma_T(us)"; "r_hat"; "r_pred" ] @ Workload.columns ~ci:true)
      ~rows:(fun p ->
        List.map
          (fun s ->
            Printf.sprintf "%.1f" (p.sigma_t *. 1e6)
            :: Printf.sprintf "%.4f" p.r_hat
            :: Printf.sprintf "%.4f" p.r_predicted
            :: Workload.cells ~ci:true s)
          p.scores)
      ?csv_dir fmt
      (List.map (fun s -> (Printf.sprintf "%.1f" (s *. 1e6), s)) sigma_ts)
  in
  { sample_size; calibration; points }
