module Packet = Netsim.Packet
module Fring = Netsim.Fring

type port = Netsim.Link.port

type t = {
  sim : Desim.Sim.t;
  bandwidth_bps : float;
  propagation : float;
  queue_limit : int option;
  dest : port;
  created_at : float;
  finishes : Fring.t; (* finish times of accepted packets, oldest first *)
  mutable busy_until : float;
  mutable queue_hwm : int;
  mutable sent : int;
  mutable dropped : int;
  mutable busy_time : float;
}

let m_enqueued = Obs.Metrics.counter "netsim.link.enqueued"
let m_dropped = Obs.Metrics.counter "netsim.link.dropped"
let g_queue_hwm = Obs.Metrics.gauge "netsim.link.queue_hwm"

let create sim ~bandwidth_bps ?(propagation = 0.0) ?queue_limit ~dest () =
  if bandwidth_bps <= 0.0 then invalid_arg "Link.create: bandwidth <= 0";
  if propagation < 0.0 then invalid_arg "Link.create: propagation < 0";
  (match queue_limit with
  | Some l when l < 1 -> invalid_arg "Link.create: queue_limit < 1"
  | _ -> ());
  {
    sim;
    bandwidth_bps;
    propagation;
    queue_limit;
    dest;
    created_at = Desim.Sim.now sim;
    finishes = Fring.create ();
    busy_until = Desim.Sim.now sim;
    queue_hwm = 0;
    sent = 0;
    dropped = 0;
    busy_time = 0.0;
  }

(* Departures first: a transmission finishing at [now] has left the queue
   before a packet arriving at [now] is counted, whichever of the two
   events the simulator happens to dispatch first.  The depth is read off
   the finish-time ring, never off event order. *)
let depth_at t now =
  Fring.drop_le t.finishes now;
  Fring.length t.finishes

let send t pkt =
  let now = Desim.Sim.now t.sim in
  let depth = depth_at t now in
  let over_limit =
    match t.queue_limit with Some l -> depth >= l | None -> false
  in
  if over_limit then begin
    t.dropped <- t.dropped + 1;
    Obs.Metrics.incr m_dropped;
    if Obs.Trace.enabled () then
      Obs.Trace.event ~name:"packet.dropped" ~t:now
        [
          ("cause", Obs.Trace.S "link_queue");
          ("kind", Obs.Trace.S (Packet.kind_to_string pkt.Packet.kind));
        ]
  end
  else begin
    let start = Float.max now t.busy_until in
    let tx = float_of_int pkt.Packet.size_bytes *. 8.0 /. t.bandwidth_bps in
    let finish = start +. tx in
    t.busy_until <- finish;
    t.busy_time <- t.busy_time +. tx;
    Fring.push t.finishes finish;
    Obs.Metrics.incr m_enqueued;
    if depth + 1 > t.queue_hwm then begin
      t.queue_hwm <- depth + 1;
      Obs.Metrics.observe_hwm g_queue_hwm (float_of_int (depth + 1))
    end;
    (* The packet leaves the transmitter (and the queue) at [finish]; it
       reaches the far end one propagation delay later.  Fuse the two
       events when there is no propagation delay — that halves the event
       count on the hot zero-delay hops. *)
    if t.propagation = 0.0 then
      ignore
        (Desim.Sim.at t.sim ~time:finish (fun () ->
             t.sent <- t.sent + 1;
             t.dest pkt)
          : Desim.Sim.handle)
    else begin
      ignore
        (Desim.Sim.at t.sim ~time:finish (fun () -> t.sent <- t.sent + 1)
          : Desim.Sim.handle);
      let arrival = finish +. t.propagation in
      ignore
        (Desim.Sim.at t.sim ~time:arrival (fun () -> t.dest pkt)
          : Desim.Sim.handle)
    end
  end

let port t = send t
let sent t = t.sent
let dropped t = t.dropped
let queue_depth t = depth_at t (Desim.Sim.now t.sim)

let utilization t =
  let elapsed = Desim.Sim.now t.sim -. t.created_at in
  if elapsed <= 0.0 then 0.0
  else
    (* busy_time counts scheduled transmissions, possibly beyond now;
       clip to the elapsed window. *)
    let future = Float.max 0.0 (t.busy_until -. Desim.Sim.now t.sim) in
    Float.min 1.0 ((t.busy_time -. future) /. elapsed)
