type result = {
  x : Vector.t;
  iterations : int;
  residual : float;
  converged : bool;
}

let check_system a b =
  let nrows, ncols = Sparse.dims a in
  if nrows <> ncols then invalid_arg "Cg: non-square matrix";
  if Array.length b <> nrows then invalid_arg "Cg: rhs dimension mismatch";
  nrows

(* Jacobi scaling: the inverse diagonal, 1 where the diagonal vanishes. *)
let jacobi_inverse a =
  Array.map
    (fun di -> if Float.abs di > 1e-300 then 1. /. di else 1.)
    (Sparse.diagonal a)

(* [b - a x], written into [r]. *)
let residual_into a ~b ~x r =
  Sparse.mul_vec_into a x r;
  for i = 0 to Array.length r - 1 do
    r.(i) <- b.(i) -. r.(i)
  done

(* Fused Jacobi-preconditioned CG: three passes over the vectors per
   iteration instead of eight.

   1. [ap = a p] and [pap = p . ap];
   2. [x += alpha p], [r -= alpha ap], [z = inv_d r], [rz = r . z],
      [rr = r . r];
   3. [p = z + beta p].

   Every sum runs in index order and every element is the same IEEE
   expression as in the textbook pass-per-operation loop (axpy, dot,
   xpay, diagonal scaling), so iterates, iteration counts and residuals
   are bit-identical to it. [post] is applied to [x] after pass 2 (it
   reads only [x]); the semidefinite variant uses it to project out the
   nullspace.

   Unchecked access is safe: the caller has checked that [b], [x0] and
   [inv_d] have length [n = nrows = ncols], every other vector is
   allocated here with length [n], and {!Sparse.validate} below proves
   that every [k] in [row_ptr.(i) .. row_ptr.(i + 1) - 1] indexes
   [col_idx] and [values] and that every [col_idx.(k)] is below [n]. *)
let pcg ~a ~b ~x0 ~max_iter ~tol ~inv_d ~post =
  Sparse.validate a;
  let n = Array.length b in
  let row_ptr = a.Sparse.row_ptr
  and col_idx = a.Sparse.col_idx
  and values = a.Sparse.values in
  let x = Vector.copy x0 in
  post x;
  let r = Vector.create n in
  residual_into a ~b ~x r;
  let z = Vector.create n in
  for i = 0 to n - 1 do
    z.(i) <- inv_d.(i) *. r.(i)
  done;
  let p = Vector.copy z in
  let ap = Vector.create n in
  let b_norm = Vector.norm2 b in
  let stop_norm = if b_norm > 0. then tol *. b_norm else tol in
  let rz = ref (Vector.dot r z) in
  let iters = ref 0 in
  let r_norm = ref (Vector.norm2 r) in
  while !r_norm > stop_norm && !iters < max_iter do
    let pap = ref 0. in
    for i = 0 to n - 1 do
      let acc = ref 0. in
      for k = Array.unsafe_get row_ptr i to Array.unsafe_get row_ptr (i + 1) - 1
      do
        acc :=
          !acc
          +. (Array.unsafe_get values k
             *. Array.unsafe_get p (Array.unsafe_get col_idx k))
      done;
      Array.unsafe_set ap i !acc;
      pap := !pap +. (Array.unsafe_get p i *. !acc)
    done;
    let pap = !pap in
    if pap <= 0. then
      (* Loss of positive definiteness (or exact convergence); stop. *)
      iters := max_iter
    else begin
      let alpha = !rz /. pap in
      let neg_alpha = -.alpha in
      let rz' = ref 0. and rr = ref 0. in
      for i = 0 to n - 1 do
        Array.unsafe_set x i
          ((alpha *. Array.unsafe_get p i) +. Array.unsafe_get x i);
        let ri = (neg_alpha *. Array.unsafe_get ap i) +. Array.unsafe_get r i in
        Array.unsafe_set r i ri;
        let zi = Array.unsafe_get inv_d i *. ri in
        Array.unsafe_set z i zi;
        rz' := !rz' +. (ri *. zi);
        rr := !rr +. (ri *. ri)
      done;
      post x;
      let beta = !rz' /. !rz in
      rz := !rz';
      for i = 0 to n - 1 do
        Array.unsafe_set p i
          (Array.unsafe_get z i +. (beta *. Array.unsafe_get p i))
      done;
      r_norm := sqrt !rr;
      incr iters
    end
  done;
  (* Recompute the true residual: the recurrence drifts on long runs. *)
  residual_into a ~b ~x r;
  let final =
    Vector.norm2 r /. if b_norm > 0. then b_norm else Float.max b_norm 1e-30
  in
  { x; iterations = !iters; residual = final; converged = final <= tol *. 10. }

let solve ?x0 ?max_iter ?tol ?(precondition = true) a b =
  let n = check_system a b in
  let x0 = match x0 with Some x -> x | None -> Vector.create n in
  if Array.length x0 <> n then invalid_arg "Cg.solve: x0 dimension mismatch";
  let max_iter = match max_iter with Some m -> m | None -> (10 * n) + 100 in
  let tol = Option.value tol ~default:1e-10 in
  (* [1. *. r] is exact, so unit scaling is the unpreconditioned method. *)
  let inv_d = if precondition then jacobi_inverse a else Array.make n 1. in
  pcg ~a ~b ~x0 ~max_iter ~tol ~inv_d ~post:ignore

let solve_semidefinite ?weights ?max_iter ?tol a b =
  let n = check_system a b in
  let w = match weights with Some w -> w | None -> Array.make n 1. in
  if Array.length w <> n then
    invalid_arg "Cg.solve_semidefinite: weights dimension mismatch";
  let w_total = Vector.sum w in
  if w_total <= 0. then invalid_arg "Cg.solve_semidefinite: weights must sum > 0";
  (* Remove the uniform-mean component of b so the system is consistent:
     the range of a symmetric semidefinite a with constant nullspace is the
     set of zero-sum vectors. *)
  let b = Vector.copy b in
  let b_mean = Vector.sum b /. float_of_int n in
  for i = 0 to n - 1 do
    b.(i) <- b.(i) -. b_mean
  done;
  (* Projection enforcing the weighted zero-mean gauge on iterates. *)
  let post x =
    let m = Vector.dot w x /. w_total in
    for i = 0 to n - 1 do
      x.(i) <- x.(i) -. m
    done
  in
  let max_iter = match max_iter with Some m -> m | None -> (10 * n) + 100 in
  let tol = Option.value tol ~default:1e-10 in
  pcg ~a ~b ~x0:(Vector.create n) ~max_iter ~tol ~inv_d:(jacobi_inverse a) ~post
