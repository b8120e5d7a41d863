type t = {
  lo : float;
  bin_width : float;
  counts : int array;
  mutable total : int;
}

let create ~lo ~bin_width ~bins =
  if bin_width <= 0.0 then invalid_arg "Histogram.create: bin_width <= 0";
  if bins <= 0 then invalid_arg "Histogram.create: bins <= 0";
  { lo; bin_width; counts = Array.make bins 0; total = 0 }

let bins t = Array.length t.counts
let bin_width t = t.bin_width
let lo t = t.lo
let count t = t.total

let index_of t x =
  let i = int_of_float (Float.floor ((x -. t.lo) /. t.bin_width)) in
  if i < 0 then 0 else if i >= bins t then bins t - 1 else i

let add t x =
  let i = index_of t x in
  t.counts.(i) <- t.counts.(i) + 1;
  t.total <- t.total + 1

let of_data ?(bins = 64) xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Histogram.of_data: empty";
  if bins <= 0 then invalid_arg "Histogram.of_data: bins <= 0";
  let lo = Descriptive.minimum xs and hi = Descriptive.maximum xs in
  let span = if hi > lo then hi -. lo else Float.max (Float.abs lo) 1.0 *. 1e-9 in
  (* Widen slightly so the maximum lands inside the last bin. *)
  let bin_width = span *. (1.0 +. 1e-9) /. float_of_int bins in
  let t = create ~lo ~bin_width ~bins in
  Array.iter (add t) xs;
  t

let check_index t i =
  if i < 0 || i >= bins t then invalid_arg "Histogram: bin index out of range"

let bin_count t i =
  check_index t i;
  t.counts.(i)

let bin_center t i =
  check_index t i;
  t.lo +. ((float_of_int i +. 0.5) *. t.bin_width)

let density t i =
  check_index t i;
  if t.total = 0 then 0.0
  else float_of_int t.counts.(i) /. (float_of_int t.total *. t.bin_width)


let probabilities t =
  if t.total = 0 then Array.make (bins t) 0.0
  else Array.map (fun k -> float_of_int k /. float_of_int t.total) t.counts

let mode_bin t =
  if t.total = 0 then invalid_arg "Histogram.mode_bin: empty";
  let best = ref 0 in
  Array.iteri (fun i k -> if k > t.counts.(!best) then best := i) t.counts;
  !best
