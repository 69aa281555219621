(** Preconditioned conjugate-gradient solver for symmetric
    positive-(semi)definite sparse systems.

    This is the workhorse behind the power-grid DC operating point
    ({!Spice.Mna}), the finite-volume Korhonen solver ({!Pde}), and the
    linear-system baseline for steady-state EM stress. A Jacobi (diagonal)
    preconditioner is used by default, which is effective on the
    diagonally-dominant conductance Laplacians these applications produce.

    For singular-but-consistent systems (pure-Neumann problems whose
    nullspace is the constant vector, e.g. steady-state stress), use
    {!solve_semidefinite}, which projects the constant mode out of the
    iterates and returns the zero-mean solution.

    {b Kernel.} Each iteration makes three passes over the vectors:
    [ap = A p] fused with [p . ap]; one update of [x] and [r] that also
    forms [z = D^-1 r] and accumulates [r . z] and [r . r]; and
    [p = z + beta p]. Every sum runs in index order with the same
    floating-point operations as the textbook one-operation-per-pass
    loop, so [x], [iterations] and [residual] are bit-identical to it
    (the test suite keeps that loop as an oracle). The matrix is checked
    once per solve with {!Sparse.validate}; the inner loops then run
    without bounds checks. Without preconditioning [D^-1] is all ones,
    and [1. *. r] is exact. *)

type result = {
  x : Vector.t;       (** solution iterate *)
  iterations : int;   (** CG iterations performed *)
  residual : float;
      (** true residual [|b - A x|_2 / |b|_2], recomputed from the final
          [x] (the denominator is [1e-30] when [b = 0]) *)
  converged : bool;   (** [residual <= 10 * tol] *)
}

val solve :
  ?x0:Vector.t ->
  ?max_iter:int ->
  ?tol:float ->
  ?precondition:bool ->
  Sparse.t ->
  Vector.t ->
  result
(** [solve a b] solves [a x = b] for SPD [a]. [tol] (default [1e-10]) is
    relative to [|b|_2]; [max_iter] defaults to [10 * n + 100];
    [precondition] (default [true]) enables the Jacobi preconditioner.
    Iteration stops once the recurrence residual [|r|_2] falls to
    [tol * |b|_2], or when [p . A p <= 0] (reported as [max_iter]
    iterations). Raises [Invalid_argument] on non-square [a], on [b] or
    [x0] of the wrong length, or on a malformed [a] ({!Sparse.validate}). *)

val solve_semidefinite :
  ?weights:Vector.t ->
  ?max_iter:int ->
  ?tol:float ->
  Sparse.t ->
  Vector.t ->
  result
(** [solve_semidefinite a b] solves the consistent singular system
    [a x = b] whose nullspace is spanned by the constant vector, returning
    the solution with zero weighted mean: [sum_i weights_i x_i = 0]
    (uniform weights by default). The right-hand side is first projected
    onto the range of [a] (its uniform mean is removed), so mildly
    incompatible [b] from floating-point assembly is tolerated. The gauge
    projection is applied to every iterate, after the [x]/[r] update.
    Raises [Invalid_argument] like {!solve}, and on [weights] of the wrong
    length or with a non-positive sum. *)
