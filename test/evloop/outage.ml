type t = {
  sim : Desim.Sim.t;
  dest : Netsim.Link.port;
  mutable down_depth : int;         (* > 0 means down; windows may overlap *)
  mutable went_down : float;
  mutable downtime_acc : float;
  mutable outages : int;
  mutable forwarded : int;
  mutable dropped : int;
  mutable flap_handle : Desim.Sim.handle option;
}

let create sim ~dest () =
  {
    sim;
    dest;
    down_depth = 0;
    went_down = 0.0;
    downtime_acc = 0.0;
    outages = 0;
    forwarded = 0;
    dropped = 0;
    flap_handle = None;
  }

let is_up t = t.down_depth = 0

let m_outages = Obs.Metrics.counter "faults.outage.outages"
let m_dropped = Obs.Metrics.counter "faults.outage.dropped"

let go_down t =
  if t.down_depth = 0 then begin
    t.went_down <- Desim.Sim.now t.sim;
    t.outages <- t.outages + 1;
    Obs.Metrics.incr m_outages;
    if Obs.Trace.enabled () then
      Obs.Trace.event ~name:"outage.start" ~t:(Desim.Sim.now t.sim) []
  end;
  t.down_depth <- t.down_depth + 1

let go_up t =
  if t.down_depth <= 0 then invalid_arg "Outage: up without matching down";
  t.down_depth <- t.down_depth - 1;
  if t.down_depth = 0 then begin
    t.downtime_acc <- t.downtime_acc +. (Desim.Sim.now t.sim -. t.went_down);
    if Obs.Trace.enabled () then
      Obs.Trace.event ~name:"outage.end" ~t:(Desim.Sim.now t.sim) []
  end

let schedule t ~at ~duration =
  if duration <= 0.0 || Float.is_nan duration then
    invalid_arg "Outage.schedule: duration <= 0";
  ignore (Desim.Sim.at t.sim ~time:at (fun () -> go_down t) : Desim.Sim.handle);
  ignore
    (Desim.Sim.at t.sim ~time:(at +. duration) (fun () -> go_up t)
      : Desim.Sim.handle)

let flap t ~rng ~mean_up ~mean_down =
  if mean_up <= 0.0 || mean_down <= 0.0 then
    invalid_arg "Outage.flap: means must be positive";
  if t.flap_handle <> None then
    invalid_arg "Outage.flap: already flapping";
  let exp_draw mean = -.mean *. log (Prng.Rng.float_pos rng) in
  (* A chain of self-rescheduling events; the master handle gates every
     link so stop_flapping takes effect at the next transition. *)
  let master = ref None in
  let alive () =
    match !master with Some h -> not (Desim.Sim.cancelled h) | None -> true
  in
  let rec up_phase () =
    if alive () then
      ignore
        (Desim.Sim.after t.sim ~delay:(exp_draw mean_up) (fun () ->
             if alive () then begin
               go_down t;
               down_phase ()
             end)
          : Desim.Sim.handle)
  and down_phase () =
    ignore
      (Desim.Sim.after t.sim ~delay:(exp_draw mean_down) (fun () ->
           (* Always come back up — cancelling flapping must not leave the
              link down forever. *)
           go_up t;
           if alive () then up_phase ())
        : Desim.Sim.handle)
  in
  (* Reuse a cancellable sim event as the master switch. *)
  let h = Desim.Sim.after t.sim ~delay:0.0 (fun () -> ()) in
  master := Some h;
  t.flap_handle <- Some h;
  up_phase ()

let stop_flapping t =
  match t.flap_handle with
  | Some h ->
      Desim.Sim.cancel h;
      t.flap_handle <- None
  | None -> ()

let send t pkt =
  if t.down_depth > 0 then begin
    t.dropped <- t.dropped + 1;
    Obs.Metrics.incr m_dropped;
    if Obs.Trace.enabled () then
      Obs.Trace.event ~name:"packet.dropped" ~t:(Desim.Sim.now t.sim)
        [
          ("cause", Obs.Trace.S "outage");
          ("kind", Obs.Trace.S (Netsim.Packet.kind_to_string pkt.Netsim.Packet.kind));
        ]
  end
  else begin
    t.forwarded <- t.forwarded + 1;
    t.dest pkt
  end

let port t = send t
let forwarded t = t.forwarded
let dropped t = t.dropped
let outages t = t.outages

let downtime t =
  t.downtime_acc
  +. if t.down_depth > 0 then Desim.Sim.now t.sim -. t.went_down else 0.0
