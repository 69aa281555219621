(* Reference oracle for [Numerics.Cg]: the textbook preconditioned CG
   with one vector operation per pass (spmv, p.Ap, two axpys, the
   preconditioner, r.z, xpay, |r| — eight passes per iteration, plus
   the gauge projection when semidefinite) and the preconditioner as a
   closure. The library's fused kernel must reproduce it bit for bit;
   see the oracle properties in t_numerics. *)

module Vector = Numerics.Vector
module Sparse = Numerics.Sparse

let check_system a b =
  let nrows, ncols = Sparse.dims a in
  if nrows <> ncols then invalid_arg "Cg: non-square matrix";
  if Array.length b <> nrows then invalid_arg "Cg: rhs dimension mismatch";
  nrows

(* Core preconditioned CG. [apply_m] multiplies by the (inverse)
   preconditioner; [post] is applied to the iterate after every update and
   is used by the semidefinite variant to project out the nullspace. *)
let pcg ~a ~b ~x0 ~max_iter ~tol ~apply_m ~post =
  let n = Array.length b in
  let x = Vector.copy x0 in
  post x;
  let r = Vector.create n in
  Sparse.mul_vec_into a x r;
  for i = 0 to n - 1 do
    r.(i) <- b.(i) -. r.(i)
  done;
  let z = Vector.create n in
  apply_m r z;
  let p = Vector.copy z in
  let ap = Vector.create n in
  let b_norm = Vector.norm2 b in
  let stop_norm = if b_norm > 0. then tol *. b_norm else tol in
  let rz = ref (Vector.dot r z) in
  let iters = ref 0 in
  let r_norm = ref (Vector.norm2 r) in
  while !r_norm > stop_norm && !iters < max_iter do
    Sparse.mul_vec_into a p ap;
    let pap = Vector.dot p ap in
    if pap <= 0. then
      (* Loss of positive definiteness (or exact convergence); stop. *)
      iters := max_iter
    else begin
      let alpha = !rz /. pap in
      Vector.axpy ~a:alpha ~x:p ~y:x;
      post x;
      Vector.axpy ~a:(-.alpha) ~x:ap ~y:r;
      apply_m r z;
      let rz' = Vector.dot r z in
      let beta = rz' /. !rz in
      rz := rz';
      Vector.xpay ~x:z ~a:beta ~y:p;
      r_norm := Vector.norm2 r;
      incr iters
    end
  done;
  (* Recompute the true residual: the recurrence drifts on long runs. *)
  let true_r = Vector.create n in
  Sparse.mul_vec_into a x true_r;
  for i = 0 to n - 1 do
    true_r.(i) <- b.(i) -. true_r.(i)
  done;
  let final = Vector.norm2 true_r /. Float.max 1e-300 (Float.max b_norm 1e-30) in
  let final = if b_norm > 0. then Vector.norm2 true_r /. b_norm else final in
  {
    Numerics.Cg.x;
    iterations = !iters;
    residual = final;
    converged = final <= tol *. 10.;
  }

let jacobi_apply a =
  let d = Sparse.diagonal a in
  let inv_d =
    Array.map (fun di -> if Float.abs di > 1e-300 then 1. /. di else 1.) d
  in
  fun r z ->
    for i = 0 to Array.length r - 1 do
      z.(i) <- inv_d.(i) *. r.(i)
    done

let identity_apply r z = Vector.blit ~src:r ~dst:z

let solve ?x0 ?max_iter ?tol ?(precondition = true) a b =
  let n = check_system a b in
  let x0 = match x0 with Some x -> x | None -> Vector.create n in
  if Array.length x0 <> n then invalid_arg "Cg.solve: x0 dimension mismatch";
  let max_iter = match max_iter with Some m -> m | None -> (10 * n) + 100 in
  let tol = Option.value tol ~default:1e-10 in
  let apply_m = if precondition then jacobi_apply a else identity_apply in
  pcg ~a ~b ~x0 ~max_iter ~tol ~apply_m ~post:ignore

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
  let apply_m = jacobi_apply a in
  pcg ~a ~b ~x0:(Vector.create n) ~max_iter ~tol ~apply_m ~post
