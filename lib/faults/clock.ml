type spec = Padding.Kernel.clock = {
  drift : float;
  miss_prob : float;
  coalesce : bool;
  max_consecutive_misses : int;
}

let ideal =
  { drift = 0.0; miss_prob = 0.0; coalesce = true; max_consecutive_misses = 1 }

let validate spec =
  if Float.is_nan spec.drift || spec.drift <= -1.0 then
    invalid_arg "Clock: drift must be > -1";
  if
    Float.is_nan spec.miss_prob || spec.miss_prob < 0.0
    || spec.miss_prob >= 1.0
  then invalid_arg "Clock: miss_prob must be in [0, 1)";
  if spec.max_consecutive_misses < 1 then
    invalid_arg "Clock: max_consecutive_misses < 1"
