type t = { r_hat : float; rows : Workload.scored list }

let default_sample_sizes = [ 10; 20; 50; 100; 200; 400; 700; 1000 ]

let run ?(scale = 1.0) ?(seed = 42_002) ?(sample_sizes = default_sample_sizes)
    ?jitter ?csv_dir fmt =
  let sample_sizes = List.sort_uniq compare sample_sizes in
  let max_n =
    match List.rev sample_sizes with
    | n :: _ -> n
    | [] -> invalid_arg "Fig4b.run: empty sample_sizes"
  in
  let windows = Stdlib.max 8 (int_of_float (60.0 *. scale)) in
  let base =
    match jitter with
    | None -> { System.default_config with System.seed }
    | Some jitter -> { System.default_config with System.seed; jitter }
  in
  let params =
    [
      ("w", string_of_int windows);
      (* [Jitter.t] is abstract; callers wiring a custom jitter into a
         checkpointed run must use a distinct checkpoint directory. *)
      ("jitter", match jitter with None -> "default" | Some _ -> "custom");
      ("points", String.concat "," (List.map string_of_int sample_sizes));
    ]
  in
  (* The trace pair is shared by every sample size: collect it once in
     [prepare], which the runner skips when all points replay from the
     journal.  Scoring is pure (no RNG): each sample size can be scored
     in parallel without affecting the result.  Each point's payload
     carries [r_hat] so the table title survives a full replay. *)
  let traces_ref = ref None in
  let prepare () =
    traces_ref :=
      Some
        (Obs.span "fig4b.collect" (fun () ->
             Workload.collect_pair ~base ~piats:(max_n * windows)))
  in
  let cells =
    Obs.span "fig4b.score" (fun () ->
        Sweep.run ~sweep:"fig4b" ~seed ~params ~prepare
          ~task:(fun ~attempt:_ _i n ->
            match !traces_ref with
            | None ->
                raise
                  (Sweep.Sweep_internal_error
                     "fig4b: prepare did not collect traces")
            | Some traces ->
                ( traces.Workload.r_hat,
                  Workload.score traces
                    ~features:Adversary.Feature.standard_set ~sample_size:n ))
          sample_sizes)
  in
  let r_hat =
    match Sweep.ok_values cells with (r, _) :: _ -> r | [] -> Float.nan
  in
  Table.emit
    ?csv:(Option.map (fun dir -> Filename.concat dir "fig4b.csv") csv_dir)
    fmt
    (Sweep.table
       ~title:
         (Printf.sprintf
            "Fig 4(b): detection rate vs sample size (CIT, no cross traffic, \
             r_hat=%.3f)"
            r_hat)
       ~columns:("n" :: Workload.columns ~ci:true)
       ~rows:(fun (_, scores) ->
         List.map
           (fun (s : Workload.scored) ->
             string_of_int s.sample_size :: Workload.cells ~ci:true s)
           scores)
       ~labels:(List.map string_of_int sample_sizes)
       cells);
  { r_hat; rows = List.concat_map snd (Sweep.ok_values cells) }
