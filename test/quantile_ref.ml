(* The reference P² estimator and digest: the step whose cell search is a
   loop and whose desired positions are updated in a loop, that
   Rthv_obs.Quantile's compare chain and unrolled update replaced, kept
   verbatim so the tests can check that the library's estimates, moments
   and NaN failure are bit for bit the same.  Only test_obs uses it. *)

(* The P² algorithm, Jain & Chlamtac, "The P² algorithm for dynamic
   calculation of quantiles and histograms without storing observations",
   CACM 28(10), 1985.  Five markers track the minimum, the p/2, p and
   (1+p)/2 quantiles and the maximum; marker heights are adjusted with a
   piecewise-parabolic (P²) interpolation as observations stream in. *)

type estimator = {
  p : float;
  q : float array;  (* marker heights *)
  n : int array;  (* marker positions, 1-based *)
  n' : float array;  (* desired marker positions *)
  dn : float array;  (* desired position increments *)
  mutable count : int;
}

let estimator p =
  if not (p > 0. && p < 1.) then
    invalid_arg "Quantile.estimator: p must be in (0, 1)";
  {
    p;
    q = Array.make 5 0.;
    n = [| 1; 2; 3; 4; 5 |];
    n' = [| 1.; 1. +. (2. *. p); 1. +. (4. *. p); 3. +. (2. *. p); 5. |];
    dn = [| 0.; p /. 2.; p; (1. +. p) /. 2.; 1. |];
    count = 0;
  }

(* The piecewise-parabolic (P²) prediction of marker [i]'s height after a
   move of [d] (±1), and the linear one the step falls back to.  Both are
   inlined into [add], which keeps every intermediate float unboxed. *)
let[@inline] parabolic t i d =
  let q = t.q and n = t.n in
  q.(i)
  +. d
     /. float_of_int (n.(i + 1) - n.(i - 1))
     *. (((float_of_int (n.(i) - n.(i - 1)) +. d)
          *. (q.(i + 1) -. q.(i))
          /. float_of_int (n.(i + 1) - n.(i)))
        +. ((float_of_int (n.(i + 1) - n.(i)) -. d)
           *. (q.(i) -. q.(i - 1))
           /. float_of_int (n.(i) - n.(i - 1))))

let[@inline] linear t i d =
  let di = int_of_float d in
  t.q.(i)
  +. d
     *. (t.q.(i + di) -. t.q.(i))
     /. float_of_int (t.n.(i + di) - t.n.(i))

let add t x =
  t.count <- t.count + 1;
  if t.count <= 5 then begin
    t.q.(t.count - 1) <- x;
    if t.count = 5 then Array.sort Float.compare t.q
  end
  else begin
    (* Find the cell k with q.(k) <= x < q.(k+1), clamping the extremes. *)
    let k =
      if x < t.q.(0) then begin
        t.q.(0) <- x;
        0
      end
      else if x >= t.q.(4) then begin
        t.q.(4) <- x;
        3
      end
      else begin
        let k = ref 0 in
        while not (x < t.q.(!k + 1)) do
          incr k
        done;
        !k
      end
    in
    for i = k + 1 to 4 do
      t.n.(i) <- t.n.(i) + 1
    done;
    for i = 0 to 4 do
      t.n'.(i) <- t.n'.(i) +. t.dn.(i)
    done;
    (* Adjust the three interior markers if they drifted off their desired
       positions by one or more. *)
    for i = 1 to 3 do
      let d = t.n'.(i) -. float_of_int t.n.(i) in
      if
        (d >= 1. && t.n.(i + 1) - t.n.(i) > 1)
        || (d <= -1. && t.n.(i - 1) - t.n.(i) < -1)
      then begin
        let d = if d >= 0. then 1. else -1. in
        let candidate = parabolic t i d in
        let q' =
          if t.q.(i - 1) < candidate && candidate < t.q.(i + 1) then candidate
          else linear t i d
        in
        t.q.(i) <- q';
        t.n.(i) <- t.n.(i) + int_of_float d
      end
    done
  end

let exact_small t =
  (* Fewer than five observations: nearest-rank on the stored values. *)
  let sorted = Array.sub t.q 0 t.count in
  Array.sort Float.compare sorted;
  let rank =
    int_of_float (Float.ceil (t.p *. float_of_int t.count))
  in
  sorted.(Stdlib.max 0 (Stdlib.min (t.count - 1) (rank - 1)))

let estimate t =
  if t.count = 0 then None
  else if t.count < 5 then Some (exact_small t)
  else Some t.q.(2)

let observations t = t.count

(* --- digest ------------------------------------------------------------- *)

(* The moments live in a record of floats only, which OCaml stores flat,
   so updating them allocates nothing. *)
type moments = {
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
}

type t = {
  estimators : (float * estimator) list;  (* ascending in p *)
  mutable d_count : int;
  m : moments;
}

let default_quantiles = [ 0.5; 0.95; 0.99; 0.999 ]

let create ?(quantiles = default_quantiles) () =
  if quantiles = [] then invalid_arg "Quantile.create: no quantiles";
  let estimators =
    List.map
      (fun p -> (p, estimator p))
      (List.sort_uniq Float.compare quantiles)
  in
  {
    estimators;
    d_count = 0;
    m = { sum = 0.; min_v = Float.infinity; max_v = Float.neg_infinity };
  }

(* A closure over [x], as [List.iter] would take, is an allocation per
   observation. *)
let rec add_all x = function
  | [] -> ()
  | (_, e) :: rest ->
      add e x;
      add_all x rest

let observe t x =
  let m = t.m in
  t.d_count <- t.d_count + 1;
  m.sum <- m.sum +. x;
  if x < m.min_v then m.min_v <- x;
  if x > m.max_v then m.max_v <- x;
  add_all x t.estimators

let count t = t.d_count

let mean t =
  if t.d_count = 0 then None else Some (t.m.sum /. float_of_int t.d_count)

let min_value t = if t.d_count = 0 then None else Some t.m.min_v
let max_value t = if t.d_count = 0 then None else Some t.m.max_v

let quantile t p =
  match List.assoc_opt p t.estimators with
  | None -> None
  | Some e -> estimate e

let quantiles t =
  if t.d_count = 0 then []
  else
    List.filter_map
      (fun (p, e) -> Option.map (fun v -> (p, v)) (estimate e))
      t.estimators

(* --- merge -------------------------------------------------------------- *)

let copy_estimator e =
  {
    e with
    q = Array.copy e.q;
    n = Array.copy e.n;
    n' = Array.copy e.n';
    dn = Array.copy e.dn;
  }

(* The P² state is lossy, so a merge cannot be exact in general.  Below five
   observations the q array still holds the raw samples; past that the five
   markers are a piecewise-linear sketch of the empirical CDF, and we
   reconstruct one pseudo-sample per rank from it.  Replaying those into a
   fresh estimator is deterministic (no clocks, no randomness), exact when
   the combined count fits in the small-sample regime, and keeps min/max
   exact because markers 0 and 4 are the true extremes. *)
let pseudo_samples e =
  Array.init e.count (fun i ->
      let r = i + 1 in
      let rec seg j = if j >= 3 || r <= e.n.(j + 1) then j else seg (j + 1) in
      let j = seg 0 in
      let n0 = e.n.(j) and n1 = e.n.(j + 1) in
      if n1 = n0 then e.q.(j)
      else
        let frac = float_of_int (r - n0) /. float_of_int (n1 - n0) in
        e.q.(j) +. (frac *. (e.q.(j + 1) -. e.q.(j))))

let samples_of e =
  if e.count <= 5 then Array.sub e.q 0 e.count else pseudo_samples e

let merge_estimator p ea eb =
  if ea.count = 0 then copy_estimator eb
  else if eb.count = 0 then copy_estimator ea
  else begin
    let m = estimator p in
    Array.iter (add m) (samples_of ea);
    Array.iter (add m) (samples_of eb);
    m
  end

let copy t =
  {
    t with
    estimators = List.map (fun (p, e) -> (p, copy_estimator e)) t.estimators;
    m = { t.m with sum = t.m.sum };
  }

let merge a b =
  if List.map fst a.estimators <> List.map fst b.estimators then
    invalid_arg "Quantile.merge: tracked quantile sets differ";
  {
    estimators =
      List.map2
        (fun (p, ea) (_, eb) -> (p, merge_estimator p ea eb))
        a.estimators b.estimators;
    d_count = a.d_count + b.d_count;
    m =
      {
        sum = a.m.sum +. b.m.sum;
        min_v = Float.min a.m.min_v b.m.min_v;
        max_v = Float.max a.m.max_v b.m.max_v;
      };
  }

let pp ppf t =
  if t.d_count = 0 then Format.fprintf ppf "n=0"
  else begin
    Format.fprintf ppf "n=%d mean=%.1f min=%.1f" t.d_count
      (Option.get (mean t))
      t.m.min_v;
    List.iter
      (fun (p, v) -> Format.fprintf ppf " p%g=%.1f" (p *. 100.) v)
      (quantiles t);
    Format.fprintf ppf " max=%.1f" t.m.max_v
  end
