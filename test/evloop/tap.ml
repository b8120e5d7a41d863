type t = {
  sim : Desim.Sim.t;
  accept : Netsim.Packet.t -> bool;
  dest : Netsim.Link.port;
  times : Netsim.Fvec.t;
  sizes : Netsim.Fvec.t;
}

(* [buffers] lets a sweep harness hand the tap already-grown Fvecs from a
   previous run (cleared here), so repeated runs stop re-growing the
   recording arrays from scratch. *)
let create sim ?(accept = Netsim.Packet.is_padded) ?buffers ~dest () =
  let times, sizes =
    match buffers with
    | Some (times, sizes) ->
        Netsim.Fvec.clear times;
        Netsim.Fvec.clear sizes;
        (times, sizes)
    | None -> (Netsim.Fvec.create ~capacity:1024 (), Netsim.Fvec.create ~capacity:1024 ())
  in
  { sim; accept; dest; times; sizes }

let m_observed = Obs.Metrics.counter "netsim.tap.observed"
let m_payload = Obs.Metrics.counter "netsim.tap.payload"
let m_dummy = Obs.Metrics.counter "netsim.tap.dummy"

let port t pkt =
  if t.accept pkt then begin
    Obs.Metrics.incr m_observed;
    (match pkt.Netsim.Packet.kind with
    | Netsim.Packet.Payload -> Obs.Metrics.incr m_payload
    | Netsim.Packet.Dummy -> Obs.Metrics.incr m_dummy
    | Netsim.Packet.Cross -> ());
    if Obs.Trace.enabled () then
      Obs.Trace.event ~name:"tap.observe" ~t:(Desim.Sim.now t.sim)
        [
          ("kind", Obs.Trace.S (Netsim.Packet.kind_to_string pkt.Netsim.Packet.kind));
          ("size", Obs.Trace.I pkt.Netsim.Packet.size_bytes);
        ];
    Netsim.Fvec.push t.times (Desim.Sim.now t.sim);
    Netsim.Fvec.push t.sizes (float_of_int pkt.Netsim.Packet.size_bytes)
  end;
  t.dest pkt

let count t = Netsim.Fvec.length t.times
let timestamps t = Netsim.Fvec.to_array t.times
let sizes t = Array.map int_of_float (Netsim.Fvec.to_array t.sizes)

let piats t =
  let n = Netsim.Fvec.length t.times in
  if n < 2 then [||]
  else
    Array.init (n - 1) (fun i -> Netsim.Fvec.get t.times (i + 1) -. Netsim.Fvec.get t.times i)

let clear t =
  Netsim.Fvec.clear t.times;
  Netsim.Fvec.clear t.sizes

(* Advance [sim] in chunks until the tap holds [target] timestamps, by
   the chunk loop the staged pipeline drives. *)
let run_until_count ~scenario ?slack ?min_chunk sim ~tap ~target
    ~expected_rate =
  Scenarios.Starvation.drive ~scenario ?slack ?min_chunk
    ~now:(fun () -> Desim.Sim.now sim)
    ~count:(fun () -> count tap)
    ~advance:(fun time -> Desim.Sim.run_until sim ~time)
    ~on_starve:(fun () -> Desim.Sim.publish_metrics sim)
    ~target ~expected_rate ()
