type cross_source = { generated : unit -> int; stop : unit -> unit }

type t = {
  entry : Netsim.Link.port;
  tap : Tap.t;
  routers : Router.t array;
  cross_sources : cross_source list;
  sink_count : unit -> int;
}

let start_cross sim ~rng ~(spec : Netsim.Topology.cross_spec) ~dest =
  match spec.burst with
  | `Poisson ->
      let g =
        Netsim.Traffic_gen.poisson sim ~rng ~rate_pps:spec.rate_pps
          ~size_bytes:spec.size_bytes ~kind:Netsim.Packet.Cross ~dest ()
      in
      {
        generated = (fun () -> Netsim.Traffic_gen.generated g);
        stop = (fun () -> Netsim.Traffic_gen.stop g);
      }
  | `On_off (mean_on, mean_off, pareto_shape) ->
      (* rate_on is rate_pps over the duty cycle, so the long-run rate is
         rate_pps. *)
      let duty = mean_on /. (mean_on +. mean_off) in
      let g =
        On_off.create sim ~rng ~rate_on_pps:(spec.rate_pps /. duty) ~mean_on
          ~mean_off ?pareto_shape ~size_bytes:spec.size_bytes
          ~kind:Netsim.Packet.Cross ~dest ()
      in
      { generated = (fun () -> On_off.generated g); stop = (fun () -> On_off.stop g) }

let chain sim ~rng ~hops ~tap_position ?tap_buffers ?dest () =
  Netsim.Topology.validate ~hops ~tap_position;
  let n = Array.length hops in
  let streams = Netsim.Topology.cross_streams ~rng hops in
  let make_tap dest = Tap.create sim ?buffers:tap_buffers ~dest () in
  let received = ref 0 in
  let sink pkt =
    if Netsim.Packet.is_padded pkt then incr received;
    match dest with Some d -> d pkt | None -> ()
  in
  (* Build back to front so each hop knows its downstream port. *)
  let routers = Array.make n None in
  let cross_sources = ref [] in
  let tap = ref None in
  let downstream = ref sink in
  for i = n - 1 downto 0 do
    (* Tap in front of hop i+1 (i.e. after hop i) is installed when we are
       at position i+1 in the walk; handle the "after last hop" spot first. *)
    if tap_position = i + 1 then begin
      let t = make_tap !downstream in
      tap := Some t;
      downstream := Tap.port t
    end;
    let spec = hops.(i) in
    let router =
      Router.create sim ~bandwidth_bps:spec.Netsim.Topology.bandwidth_bps
        ~propagation:spec.propagation ?queue_limit:spec.queue_limit
        ~dest:!downstream ()
    in
    routers.(i) <- Some router;
    (match (spec.cross, streams.(i)) with
    | Some cross, Some rng ->
        cross_sources :=
          start_cross sim ~rng ~spec:cross ~dest:(Router.port router)
          :: !cross_sources
    | _ -> ());
    downstream := Router.port router
  done;
  if tap_position = 0 then begin
    let t = make_tap !downstream in
    tap := Some t;
    downstream := Tap.port t
  end;
  let tap =
    match !tap with
    | Some t -> t
    | None ->
        (* Unreachable: every valid position installs a tap. *)
        assert false
  in
  {
    entry = !downstream;
    tap;
    routers = Array.map Option.get routers;
    cross_sources = !cross_sources;
    sink_count = (fun () -> !received);
  }

let h_utilization = Obs.Metrics.histogram "netsim.link.utilization"

let stop_cross t =
  (* End-of-run hook: fold each hop's lifetime utilization into the
     registry while the links are still in scope. *)
  Array.iter
    (fun r -> Obs.Metrics.observe h_utilization (Link.utilization (Router.link r)))
    t.routers;
  List.iter (fun s -> s.stop ()) t.cross_sources
