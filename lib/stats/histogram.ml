type t = {
  bin_width : float;
  max_value : float;
  counts : int array;
  mutable overflow : int;
  mutable total : int;
}

let create ~bin_width_us ~max_us =
  if bin_width_us <= 0. || max_us <= 0. then
    invalid_arg "Histogram.create: parameters must be positive";
  let n = int_of_float (Float.ceil (max_us /. bin_width_us)) in
  {
    bin_width = bin_width_us;
    max_value = max_us;
    counts = Array.make n 0;
    overflow = 0;
    total = 0;
  }

let add t value =
  if value < 0. then invalid_arg "Histogram.add: negative value";
  t.total <- t.total + 1;
  if value >= t.max_value then t.overflow <- t.overflow + 1
  else begin
    let bin = int_of_float (value /. t.bin_width) in
    let bin = Stdlib.min bin (Array.length t.counts - 1) in
    t.counts.(bin) <- t.counts.(bin) + 1
  end

let add_all t values = List.iter (add t) values
let count t = t.total

let last_nonempty t =
  let last = ref (-1) in
  Array.iteri (fun i c -> if c > 0 then last := i) t.counts;
  !last

let bins t =
  let last = last_nonempty t in
  let rows = ref [] in
  if t.overflow > 0 then rows := [ (t.max_value, infinity, t.overflow) ];
  for i = last downto 0 do
    let lo = float_of_int i *. t.bin_width in
    rows := (lo, lo +. t.bin_width, t.counts.(i)) :: !rows
  done;
  !rows

let max_bin t =
  List.fold_left
    (fun acc (lo, hi, c) ->
      match acc with
      | Some (_, _, best) when best >= c -> acc
      | _ when c > 0 -> Some (lo, hi, c)
      | _ -> acc)
    None (bins t)

let quantile t p =
  if p < 0. || p > 1. then invalid_arg "Histogram.quantile: p outside [0,1]";
  if t.total = 0 then invalid_arg "Histogram.quantile: empty histogram";
  let target = int_of_float (Float.ceil (p *. float_of_int t.total)) in
  let target = Stdlib.max 1 target in
  let rec scan i seen =
    if i >= Array.length t.counts then t.max_value
    else begin
      let seen = seen + t.counts.(i) in
      if seen >= target then (float_of_int i +. 0.5) *. t.bin_width
      else scan (i + 1) seen
    end
  in
  scan 0 0

let render ?(width = 50) ?(log_scale = false) ppf t =
  let rows = bins t in
  let scale_of c =
    if log_scale then log1p (float_of_int c) else float_of_int c
  in
  let peak =
    List.fold_left (fun acc (_, _, c) -> Stdlib.max acc (scale_of c)) 1. rows
  in
  Format.fprintf ppf "total=%d@." t.total;
  List.iter
    (fun (lo, hi, c) ->
      let bar_len =
        int_of_float (Float.round (scale_of c /. peak *. float_of_int width))
      in
      let bar = String.make bar_len '#' in
      if hi = infinity then
        Format.fprintf ppf "%8.0f+      %6d %s@." lo c bar
      else Format.fprintf ppf "%8.0f-%-6.0f %6d %s@." lo hi c bar)
    rows
