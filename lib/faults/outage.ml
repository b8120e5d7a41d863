type t = {
  rng : Prng.Rng.t;
  in_t : Netsim.Fvec.t;
  in_tag : Netsim.Fvec.t;
  out_t : Netsim.Fvec.t;
  out_tag : Netsim.Fvec.t;
  trace : Netsim.Tracebuf.t;
  mean_up : float;
  mean_down : float;
  regs : floatarray; (* 0 next transition, 1 instant of the last input *)
  mutable down : bool;
  mutable in_nth : int; (* inputs so far at the last input's instant *)
  mutable gate : bool; (* the flapping gate record is still to count *)
  mutable outages : int;
  mutable dropped : int;
  mutable events : int; (* events this chunk *)
}

let exp_draw t mean = -.mean *. log (Prng.Rng.float_pos t.rng)

let create ~rng ~flap ~in_t ~in_tag =
  let mean_up, mean_down = Option.value flap ~default:(infinity, infinity) in
  if mean_up <= 0.0 || mean_down <= 0.0 then
    invalid_arg "Outage.create: flap means must be positive";
  let t =
    {
      rng;
      in_t;
      in_tag;
      out_t = Netsim.Fvec.create ();
      out_tag = Netsim.Fvec.create ();
      trace = Netsim.Tracebuf.create ();
      mean_up;
      mean_down;
      regs = Float.Array.make 2 neg_infinity;
      down = false;
      in_nth = 0;
      gate = Option.is_some flap;
      outages = 0;
      dropped = 0;
      events = 0;
    }
  in
  (* The link starts up at simulated 0.0. *)
  Float.Array.set t.regs 0
    (if t.gate then 0.0 +. exp_draw t mean_up else infinity);
  t

let transition t ~now =
  t.events <- t.events + 1;
  if t.down then begin
    t.down <- false;
    if Obs.Trace.enabled () then
      Netsim.Tracebuf.push t.trace ~key:now ~code:Netsim.Tracebuf.outage_end
        ~x:0.0 ~y:0.0;
    Float.Array.set t.regs 0 (now +. exp_draw t t.mean_up)
  end
  else begin
    t.down <- true;
    t.outages <- t.outages + 1;
    if Obs.Trace.enabled () then
      Netsim.Tracebuf.push t.trace ~key:now ~code:Netsim.Tracebuf.outage_start
        ~x:0.0 ~y:0.0;
    Float.Array.set t.regs 0 (now +. exp_draw t t.mean_down)
  end

(* One upstream packet at [now]; records carry its ordinal among the
   packets of that instant. *)
let[@inline] pass t now tag =
  let last = Float.Array.get t.regs 1 in
  let nth = if now = last then t.in_nth else 0 in
  Float.Array.set t.regs 1 now;
  t.in_nth <- nth + 1;
  if t.down then begin
    t.dropped <- t.dropped + 1;
    if Obs.Trace.enabled () then
      Netsim.Tracebuf.push_nth t.trace ~key:now ~nth
        ~code:Netsim.Tracebuf.drop_outage ~x:tag ~y:0.0
  end
  else begin
    Netsim.Fvec.push t.out_t now;
    Netsim.Fvec.push t.out_tag tag
  end

let advance t ~until =
  Netsim.Fvec.clear t.out_t;
  Netsim.Fvec.clear t.out_tag;
  t.events <- 0;
  if t.gate then begin
    t.events <- 1;
    t.gate <- false
  end;
  let n = Netsim.Fvec.length t.in_t in
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let flip = Float.Array.get t.regs 0 in
    let next = if !i < n then Netsim.Fvec.unsafe_get t.in_t !i else infinity in
    if flip <= next && flip <= until then transition t ~now:flip
    else if !i < n then begin
      pass t next (Netsim.Fvec.unsafe_get t.in_tag !i);
      incr i
    end
    else continue := false
  done

let out_times t = t.out_t
let out_tags t = t.out_tag
let trace t = t.trace
let chunk_events t = t.events
let dropped t = t.dropped

let m_outages = Obs.Metrics.counter "faults.outage.outages"
let m_dropped = Obs.Metrics.counter "faults.outage.dropped"

let flush t =
  Obs.Metrics.add m_outages t.outages;
  Obs.Metrics.add m_dropped t.dropped
