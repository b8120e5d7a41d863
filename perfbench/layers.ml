(* Per-layer spans recorded from outside the program: the benchmark times
   its own calls into each layer's public entry points.  Spans are off in
   the untraced runs that produce the end-to-end metrics; a traced run
   turns them on, and the cost of doing so is reported as
   [trace.overhead_frac].  Layer names follow the library directories. *)

let enabled = ref false

(* Top-level layers: on a traced batch their seconds, plus the sweep
   harness overhead, should account for the whole wall time. *)
let system = "scenarios.system"
let faults = "faults"
let fleet = "fleet.mux"
let window = "stats.window"
let detection = "adversary.detection"
let top = [ system; faults; fleet; window; detection ]

(* Sweep.mapi wall time and the summed time of its tasks. *)
let sweep = "scenarios.sweep"
let sweep_task = "scenarios.sweep.task"

let seconds : (string, float ref) Hashtbl.t = Hashtbl.create 16

let reset () = Hashtbl.reset seconds

let add name dt =
  match Hashtbl.find_opt seconds name with
  | Some r -> r := !r +. dt
  | None -> Hashtbl.add seconds name (ref dt)

let get name = match Hashtbl.find_opt seconds name with Some r -> !r | None -> 0.0

let span name f =
  if not !enabled then f ()
  else begin
    let t0 = Host.now () in
    Fun.protect ~finally:(fun () -> add name (Host.now () -. t0)) f
  end

let sweep_overhead () = get sweep -. get sweep_task
