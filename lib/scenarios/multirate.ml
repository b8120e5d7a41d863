type t = {
  rates : float list;
  sample_size : int;
  results : (Adversary.Feature.kind * float) list;
  confusion : int array array;
}

let run ?(scale = 1.0) ?(seed = 42_007) ?(rates = [ 10.0; 20.0; 30.0; 40.0 ])
    ?(sample_size = 1000) ?csv_dir fmt =
  if List.length rates < 2 then invalid_arg "Multirate.run: need >= 2 rates";
  if sample_size < 2 then invalid_arg "Multirate.run: sample_size < 2";
  let windows = Stdlib.max 6 (int_of_float (30.0 *. scale)) in
  (* One independent (seeded-by-index) trace collection per rate. *)
  let cells =
    Sweep.run ~sweep:"multirate" ~seed
      ~params:
        [
          ("n", string_of_int sample_size);
          ("w", string_of_int windows);
          ("points", String.concat "," (List.map (Printf.sprintf "%h") rates));
        ]
      ~task:(fun ~attempt i rate ->
        let cfg =
          {
            System.default_config with
            System.seed =
              Sweep.attempt_seed ~seed:(seed + (100 * i)) ~attempt;
            payload_rate_pps = rate;
          }
        in
        let res = System.run cfg ~piats:(sample_size * windows) in
        (Printf.sprintf "%.0fpps" rate, res.System.piats))
      rates
  in
  (* m-ary detection degrades gracefully: failed rate classes become
     annotated rows (ahead of the detection rows, in rate order) and the
     classifier runs on the surviving classes (needs at least two). *)
  let classes = Array.of_list (Sweep.ok_values cells) in
  let m = Array.length classes in
  let results =
    if m < 2 then []
    else
      List.map
        (fun feature ->
          let r =
            Adversary.Detection.estimate ~feature
              ~reference:Calibration.timer_mean ~sample_size ~classes ()
          in
          (feature, r.Adversary.Detection.detection_rate))
        Adversary.Feature.standard_set
  in
  (* Confusion matrix for the variance feature. *)
  let confusion =
    if m < 2 then [||]
    else begin
      let feature = Adversary.Feature.Sample_variance in
      let featurized =
        Array.map
          (fun (name, trace) ->
            ( name,
              Adversary.Dataset.features_of_trace feature
                ~reference:Calibration.timer_mean ~sample_size trace ))
          classes
      in
      let split =
        Array.map (fun (_, fs) -> Adversary.Dataset.split_alternating fs) featurized
      in
      let clf =
        Adversary.Classifier.train
          ~classes:(Array.map2 (fun (n, _) (tr, _) -> (n, tr)) featurized split)
          ()
      in
      let confusion = Array.make_matrix m m 0 in
      Array.iteri
        (fun truth (_, test) ->
          Array.iter
            (fun x ->
              let d = Adversary.Classifier.classify clf x in
              confusion.(truth).(d) <- confusion.(truth).(d) + 1)
            test)
        split;
      confusion
    end
  in
  let table =
    Sweep.table
      ~title:
        (Printf.sprintf "Multi-rate extension: %d-ary detection (n=%d)"
           (List.length rates) sample_size)
      ~columns:[ "feature"; "detection rate"; "floor (1/m)" ]
      ~rows:(fun _ -> [])
      ~labels:(List.map (Printf.sprintf "class %.0fpps") rates)
      cells
  in
  List.iter
    (fun (feature, v) ->
      Table.add_row table
        [
          Adversary.Feature.name feature;
          Printf.sprintf "%.3f" v;
          Printf.sprintf "%.3f" (1.0 /. float_of_int m);
        ])
    results;
  (* Analytic m-ary oracle for the variance feature: exact Bayes rate from
     the measured per-class PIAT variances (defined when they are strictly
     increasing with the rate, which the jitter mechanism guarantees up to
     sampling noise). *)
  (if m >= 2 then
     let sigma2s =
       Array.map (fun (_, trace) -> Stats.Descriptive.variance trace) classes
     in
     let increasing =
       Array.for_all Fun.id
         (Array.init (m - 1) (fun i -> sigma2s.(i + 1) > sigma2s.(i)))
     in
     if increasing then
       Table.add_row table
         [
           "variance (exact m-ary oracle)";
           Printf.sprintf "%.3f"
             (Analytical.Multirate.mary_variance_exact ~sigma2s ~n:sample_size);
           Printf.sprintf "%.3f" (1.0 /. float_of_int m);
         ]);
  let csv file = Option.map (fun dir -> Filename.concat dir file) csv_dir in
  Table.emit ?csv:(csv "multirate.csv") fmt table;
  (if m >= 2 then begin
     let ctable =
       Table.create ~title:"Confusion matrix (variance feature, rows = truth)"
         ~columns:
           ("truth\\decision" :: List.map (fun (n, _) -> n) (Array.to_list classes))
     in
     Array.iteri
       (fun i row ->
         let name, _ = classes.(i) in
         Table.add_row ctable
           (name :: Array.to_list (Array.map string_of_int row)))
       confusion;
     Table.emit ?csv:(csv "multirate_confusion.csv") fmt ctable
   end);
  { rates; sample_size; results; confusion }
