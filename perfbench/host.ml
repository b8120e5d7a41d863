(* Host-side measurement helpers: a monotonic clock, medians, the
   calibration kernel that converts measured seconds to reference-host
   seconds, peak resident memory, and the host fingerprint printed with
   every result, so figures from different machines are never compared
   as if they came from one. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median = function
  | [] -> invalid_arg "Host.median: empty"
  | xs ->
      let a = Array.of_list (List.sort Float.compare xs) in
      let n = Array.length a in
      if n land 1 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* Fixed calibration kernel: a 4096-key float heap whose root is
   advanced by increments read at random indices of an 8 MB table, then
   sifted down.  It uses no code of the repo and allocates nothing, so
   the program under test cannot change its speed; being memory- and
   branch-bound like the simulator, it slows down with it when other
   tenants contend for the host's cores and caches (an ALU-only loop
   barely notices), which is what makes it a usable speed reference. *)
let table_bits = 20
let table = Float.Array.init (1 lsl table_bits) (fun i -> float_of_int (i land 1023))
let keys = Float.Array.make 4096 0.0
let slice_iters = 25_000

let calib_slice () =
  let n = Float.Array.length keys in
  for i = 0 to n - 1 do
    Float.Array.unsafe_set keys i (float_of_int i)
  done;
  let x = ref 0x2545F491 in
  let t0 = now () in
  for _ = 1 to slice_iters do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let d =
      1.0 +. (Float.Array.unsafe_get table (!x land ((1 lsl table_bits) - 1)) *. 1e-6)
    in
    let v = Float.Array.unsafe_get keys 0 +. d in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= n then sifting := false
      else begin
        let r = l + 1 in
        let c =
          if r < n && Float.Array.unsafe_get keys r < Float.Array.unsafe_get keys l
          then r
          else l
        in
        if Float.Array.unsafe_get keys c < v then begin
          Float.Array.unsafe_set keys !i (Float.Array.unsafe_get keys c);
          i := c
        end
        else sifting := false
      end
    done;
    Float.Array.unsafe_set keys !i v
  done;
  (now () -. t0) *. 1e9 /. float_of_int slice_iters

(* The kernel's typical speed on the reference host, a shared 2-vCPU
   Intel Xeon VM.  A time [t] measured while the kernel ran at [c] ns is
   reported as [t * calib_ref_ns / c]: reference-host seconds, comparable
   across hosts and across busy and quiet periods of one shared host. *)
let calib_ref_ns = 120.0

(* Calibration timeline.  While [marking] is on, every [mark] runs one
   slice and records when it ran; measured intervals are delimited by
   marks, and each gap between two marks is converted to reference
   seconds at the median speed of the marks around it.  The slices
   themselves are excluded from the measured time. *)
type mark = { t_start : float; t_end : float; ns : float }

let marking = ref false
let marks : mark list ref = ref [] (* latest first *)

let mark () =
  if !marking then begin
    let t_start = now () in
    let ns = calib_slice () in
    marks := { t_start; t_end = now (); ns } :: !marks
  end

(* Index of the latest mark, counting from the first. *)
let last_mark () = List.length !marks - 1

(* Marks within [window] seconds of a stretch set its speed: a long
   stretch is scaled by the marks that bound it, a run of short ones by
   the median of the many marks around them. *)
let window = 0.5

(* [(reference seconds, measured seconds)] between marks [first] and
   [last]. *)
let reference_seconds ~first ~last =
  let a = Array.of_list (List.rev !marks) in
  let reference = ref 0.0 and measured = ref 0.0 in
  for i = first to last - 1 do
    let t0 = a.(i).t_end and t1 = a.(i + 1).t_start in
    let near =
      Array.to_list a
      |> List.filteri (fun k m ->
             k = i || k = i + 1 || (m.t_end >= t0 -. window && m.t_start <= t1 +. window))
      |> List.map (fun m -> m.ns)
    in
    let gap = t1 -. t0 in
    reference := !reference +. (gap *. calib_ref_ns /. median near);
    measured := !measured +. gap
  done;
  (!reference, !measured)

(* Median kernel speed over the run's marks, or over a few fresh slices
   when no mark was taken. *)
let calib_median () =
  match !marks with
  | [] -> median (List.init 8 (fun _ -> calib_slice ()))
  | ms -> median (List.map (fun m -> m.ns) ms)

(* VmHWM from /proc/self/status, in MiB. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> scan ()
        | None -> failwith "peak_rss_mb: no VmHWM in /proc/self/status"
      in
      scan ())

let fingerprint ~calib_ns =
  [
    ("cores", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", Sys.ocaml_version);
    ("os", Sys.os_type);
    ("word_size", string_of_int Sys.word_size);
    ("calib_ns", Printf.sprintf "%.4f" calib_ns);
  ]
