type kind = Campus | Wan

type point = {
  hour : float;
  utilization : float;
  r_hat : float;
  scores : Workload.scored list;
}

type t = { kind : kind; sample_size : int; points : point list }

let kind_name = function Campus -> "campus" | Wan -> "wan"

let hop ~utilization =
  Fig6.hop_for_utilization ~utilization ~burst:`Poisson

let hops_for kind ~hour =
  match kind with
  | Campus ->
      let u = Diurnal.campus_utilization ~hour in
      Array.init 4 (fun _ -> hop ~utilization:u)
  | Wan ->
      let congested = Diurnal.wan_congested_utilization ~hour in
      let light = Diurnal.wan_light_utilization ~hour in
      let congested_positions = [ 2; 4; 7; 9; 11; 13 ] in
      Array.init 15 (fun i ->
          (* Six loaded exchange/edge hops spread along the 15-router path. *)
          if List.mem i congested_positions then hop ~utilization:congested
          else hop ~utilization:light)

let default_hours = [ 0.; 2.; 4.; 6.; 8.; 10.; 12.; 14.; 16.; 18.; 20.; 22. ]

let run ?(scale = 1.0) ?(seed = 42_006) ?(sample_size = 1000)
    ?(hours = default_hours) ?half_width ~kind ?csv_dir fmt =
  if sample_size < 2 then invalid_arg "Fig8.run: sample_size < 2";
  let windows = Stdlib.max 6 (int_of_float (16.0 *. scale)) in
  let features = Adversary.Feature.standard_set in
  let plan =
    Workload.window_plan ~sample_size ~max_windows:windows ?half_width ()
  in
  let hour_cell = Printf.sprintf "%02.0f:00" in
  (* Hours are seeded by index, hence independent: fan them out. *)
  let points =
    Sweep.tabulate
      ~sweep:(Printf.sprintf "fig8.%s" (kind_name kind))
      ~seed
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
          ("points", String.concat "," (List.map (Printf.sprintf "%h") hours));
        ]
      ~task:(fun ~attempt i hour ->
        let hops = hops_for kind ~hour in
        let base =
          {
            System.default_config with
            System.seed =
              Sweep.attempt_seed ~seed:(seed + (100 * i)) ~attempt;
            hops;
            tap_position = Array.length hops;  (* front of receiver gateway *)
          }
        in
        let pair, scores = Workload.collect_windowed ~base ~plan ~features in
        let utilization =
          match kind with
          | Campus -> Diurnal.campus_utilization ~hour
          | Wan -> Diurnal.wan_congested_utilization ~hour
        in
        { hour; utilization; r_hat = pair.Workload.ratio_hat; scores })
      ~title:
        (Printf.sprintf
           "Fig 8(%s): detection rate over the day (%s path, sample size %d)"
           (match kind with Campus -> "a" | Wan -> "b")
           (kind_name kind) sample_size)
      ~columns:([ "hour"; "util"; "r_hat" ] @ Workload.columns ~ci:true)
      ~rows:(fun p ->
        List.map
          (fun s ->
            hour_cell p.hour
            :: Printf.sprintf "%.3f" p.utilization
            :: Printf.sprintf "%.4f" p.r_hat
            :: Workload.cells ~ci:true s)
          p.scores)
      ?csv_dir fmt
      (List.map (fun h -> (hour_cell h, h)) hours)
  in
  { kind; sample_size; points }
