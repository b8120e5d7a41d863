(* Deferred ta-trace/1 events for the fused kernels.

   The event loop appends trace events to the per-run buffer in event
   *processing* order, which is not sorted by the displayed timestamp
   (a gateway fire inserts its packet.sent record — stamped with the
   later emit time — at fire-processing time).  A kernel stage therefore
   records, for every would-be trace event, the simulated time of the
   loop event during which the record would have been inserted ([key])
   alongside the displayed payload; the orchestrator merges the stage
   buffers by key at flush time.  Records at one instant that concern
   different packets of that instant (a duplicate and its original)
   carry the packet's ordinal ([nth]); equal (key, nth) go in pipeline
   order. *)

let timer_fire = 0.0
let sent_payload = 1.0
let sent_dummy = 2.0
let observe_payload = 3.0
let observe_dummy = 4.0
let drop_payload = 5.0
let drop_dummy = 6.0
let drop_cross = 7.0
let timer_miss = 8.0
let timer_catchup = 9.0
let gateway_crash = 10.0
let gateway_restart = 11.0
let drop_gw_down = 12.0
let drop_loss = 13.0
let reordered = 14.0
let dup = 15.0
let outage_start = 16.0
let outage_end = 17.0
let drop_outage = 18.0

type t = {
  keys : Fvec.t;
  nths : Fvec.t;
  codes : Fvec.t;
  xs : Fvec.t;
  ys : Fvec.t;
}

let create () =
  {
    keys = Fvec.create ~capacity:64 ();
    nths = Fvec.create ~capacity:64 ();
    codes = Fvec.create ~capacity:64 ();
    xs = Fvec.create ~capacity:64 ();
    ys = Fvec.create ~capacity:64 ();
  }

let clear t =
  Fvec.clear t.keys;
  Fvec.clear t.nths;
  Fvec.clear t.codes;
  Fvec.clear t.xs;
  Fvec.clear t.ys

let length t = Fvec.length t.keys

let push_nth t ~key ~nth ~code ~x ~y =
  Fvec.push t.keys key;
  Fvec.push t.nths (float_of_int nth);
  Fvec.push t.codes code;
  Fvec.push t.xs x;
  Fvec.push t.ys y

let push t ~key ~code ~x ~y = push_nth t ~key ~nth:0 ~code ~x ~y
let key t i = Fvec.unsafe_get t.keys i
let nth t i = int_of_float (Fvec.unsafe_get t.nths i)

let kind_of_tag tag =
  Obs.Trace.S (if Float.is_nan tag then "dummy" else "payload")

(* Replay entry [i] through the live trace sink.  Field layout per code:
   timer_fire      x = queue length after the pop, y unused (displayed at key)
   sent_*          x = size_bytes,                 y = emit time (displayed)
   observe_*       x = size_bytes                  (displayed at key)
   gateway_crash   x = queue length lost
   drop_loss, reordered, dup, drop_outage
                   x = the packet's tag (NaN: dummy)
   everything else is displayed at key with no payload. *)
let emit t i =
  let key = Fvec.get t.keys i in
  let x = Fvec.get t.xs i in
  let y = Fvec.get t.ys i in
  let event name fields = Obs.Trace.event ~name ~t:key fields in
  let dropped cause kind =
    event "packet.dropped" [ ("cause", Obs.Trace.S cause); ("kind", kind) ]
  in
  match int_of_float (Fvec.get t.codes i) with
  | 0 -> event "timer.fire" [ ("q", Obs.Trace.I (int_of_float x)) ]
  | (1 | 2) as c ->
      Obs.Trace.event ~name:"packet.sent" ~t:y
        [
          ("kind", Obs.Trace.S (if c = 1 then "payload" else "dummy"));
          ("size", Obs.Trace.I (int_of_float x));
        ]
  | (3 | 4) as c ->
      event "tap.observe"
        [
          ("kind", Obs.Trace.S (if c = 3 then "payload" else "dummy"));
          ("size", Obs.Trace.I (int_of_float x));
        ]
  | 5 -> dropped "link_queue" (Obs.Trace.S "payload")
  | 6 -> dropped "link_queue" (Obs.Trace.S "dummy")
  | 7 -> dropped "link_queue" (Obs.Trace.S "cross")
  | 8 -> event "timer.miss" []
  | 9 -> event "timer.catchup" []
  | 10 -> event "gateway.crash" [ ("queued", Obs.Trace.I (int_of_float x)) ]
  | 11 -> event "gateway.restart" []
  | 12 -> dropped "gw_down" (Obs.Trace.S "payload")
  | 13 -> dropped "loss" (kind_of_tag x)
  | 14 -> event "packet.reordered" [ ("kind", kind_of_tag x) ]
  | 15 -> event "packet.dup" [ ("kind", kind_of_tag x) ]
  | 16 -> event "outage.start" []
  | 17 -> event "outage.end" []
  | 18 -> dropped "outage" (kind_of_tag x)
  | c -> invalid_arg (Printf.sprintf "Tracebuf.emit: unknown code %d" c)
