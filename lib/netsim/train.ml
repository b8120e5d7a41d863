(* Arrival train of one source on the fused pipeline: the time of its
   next event, advanced as next = prev +. dt — the accumulation
   [Sim.every] and [Sim.after] perform (clock +. delay) — so every event
   time is bit-identical to the event-loop source's.

   Poisson and CBR intervals come in blocks: exponential draws filled
   from the source's dedicated stream (over-drawing it is unobservable),
   or the constant period with no draws.  An on/off source takes one
   scalar step per event in the event-loop on/off source's draw order, and
   one of its events per cycle emits nothing: the phase start. *)

type law = [ `Poisson | `Cbr | `On_off of float * float * float option ]

(* On/off: the kind of the head event. *)
type phase = Start | Burst

type t = {
  regs : floatarray; (* 0 head, 1 rate (on/off: in-burst rate), 2 phase end *)
  buf : floatarray; (* intervals from the head onwards *)
  mutable law : law;
  mutable rng : Prng.Rng.t;
  mutable fill : int;
  mutable idx : int;
  mutable emits : bool;
  mutable phase : phase;
}

let block = 4096

let create () =
  {
    regs = Float.Array.make 3 infinity;
    buf = Float.Array.create block;
    law = `Poisson;
    rng = Prng.Rng.create ~seed:0;
    fill = 0;
    idx = 0;
    emits = true;
    phase = Start;
  }

let head t = Float.Array.unsafe_get t.regs 0
let head_cell t = t.regs
let emits t = t.emits

(* Same draws as the event-loop on/off source's phase length: exponential, or
   Pareto scaled to the same mean. *)
let period rng ~mean = function
  | None -> Prng.Sampler.exponential rng ~rate:(1.0 /. mean)
  | Some shape ->
      Prng.Sampler.pareto rng ~shape ~scale:(mean *. (shape -. 1.0) /. shape)

(* Interval from the head event to the next: a phase start draws D_on,
   then (like a burst tick) the next Exp gap.  A gap that lands at or past
   the phase end is dropped: the off phase runs from the phase end, and
   D_off leads to the next phase start. *)
let on_off_step t ~mean_on ~mean_off ~shape =
  let now = head t in
  (match t.phase with
  | Start -> Float.Array.set t.regs 2 (now +. period t.rng ~mean:mean_on shape)
  | Burst -> ());
  let rate = Float.Array.get t.regs 1 in
  let dt = Prng.Sampler.exponential t.rng ~rate in
  let phase_end = Float.Array.get t.regs 2 in
  if now +. dt < phase_end then begin
    t.emits <- true;
    t.phase <- Burst;
    dt
  end
  else begin
    t.emits <- false;
    t.phase <- Start;
    phase_end +. period t.rng ~mean:mean_off shape -. now
  end

let refill t =
  t.idx <- 0;
  match t.law with
  | `Poisson ->
      Prng.Sampler.exponential_fill t.rng ~rate:(Float.Array.get t.regs 1)
        t.buf ~n:block;
      t.fill <- block
  | `Cbr -> t.fill <- block (* [start] filled the block with the period *)
  | `On_off (mean_on, mean_off, shape) ->
      Float.Array.set t.buf 0 (on_off_step t ~mean_on ~mean_off ~shape);
      t.fill <- 1

let next t =
  if t.idx >= t.fill then refill t;
  Float.Array.unsafe_set t.regs 0 (head t +. Float.Array.unsafe_get t.buf t.idx);
  t.idx <- t.idx + 1

let start t ~rng ~rate law =
  t.law <- law;
  t.rng <- rng;
  (match law with
  | `Poisson -> Float.Array.set t.regs 1 rate
  | `Cbr -> Float.Array.fill t.buf 0 block (1.0 /. rate)
  | `On_off (mean_on, mean_off, _) ->
      (* As [Topology]: the in-burst rate is the rate over the duty cycle. *)
      Float.Array.set t.regs 1 (rate /. (mean_on /. (mean_on +. mean_off))));
  t.fill <- 0;
  t.emits <- true;
  t.phase <- Start;
  (* The source starts at simulated time 0 and its first event is one
     interval later. *)
  Float.Array.set t.regs 0 0.0;
  next t

let stop t = Float.Array.set t.regs 0 infinity
