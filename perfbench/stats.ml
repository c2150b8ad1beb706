(* Order statistics for the benchmark's timings.

   A tail percentile is reported only when at least [min_beyond] samples
   lie above it, so a tail is never read off a handful of points; the
   median of a repeated job is its plain middle sample. *)

let min_beyond = 10

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  let m = Array.length xs in
  if m = 0 then 0.
  else
    let a = sorted xs in
    if m mod 2 = 1 then a.(m / 2) else (a.((m / 2) - 1) +. a.(m / 2)) /. 2.

(* Nearest-rank percentile [p] (0 < p < 100): the sample at rank
   ceil(p/100 · m); 0 when there are no samples. *)
let nearest_rank p xs =
  let m = Array.length xs in
  if m = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int m)) in
    (sorted xs).(max 0 (min (m - 1) (rank - 1)))

(* The highest of [ps] (tried in order, highest first) with at least
   [min_beyond] samples beyond it, with its label; the maximum when even
   the lowest is unsupported. *)
let tail ps xs =
  let m = Array.length xs in
  let beyond p = m - int_of_float (Float.ceil (p /. 100. *. float_of_int m)) in
  match List.find_opt (fun p -> beyond p >= min_beyond) ps with
  | Some p -> (Printf.sprintf "p%g" p, nearest_rank p xs)
  | None -> ("max", Array.fold_left Float.max 0. xs)

let mean xs =
  if xs = [||] then 0.
  else Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

(* A growable float array: samples are appended in the timed loops
   without allocating a list cell per sample. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 256 0.; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let grown = Array.make (2 * t.len) 0. in
      Array.blit t.data 0 grown 0 t.len;
      t.data <- grown
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
end
