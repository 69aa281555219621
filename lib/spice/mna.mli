(** DC operating point of a power-grid netlist (nodal analysis).

    The solver handles the element mix of the IBM benchmarks and of our
    synthetic grids:
    - resistors stamp the conductance Laplacian; {e zero-ohm} resistors
      short their endpoints (merged through a union-find before
      assembly);
    - current sources stamp the right-hand side;
    - voltage sources must (possibly transitively through shorts and
      other sources) pin their nodes against ground, as pads do; a source
      floating between two otherwise-unpinned nodes is rejected as
      unsupported rather than silently mis-solved.

    The reduced free-node system is symmetric positive definite when
    every free node reaches a pinned one, and is solved with
    Jacobi-preconditioned CG ({!Numerics.Cg}: a fused three-pass kernel
    whose voltages, iteration count and residual are bit-identical to
    textbook PCG). A conductive island with no path to a pinned node
    makes the system singular; if a source loads it, the solve does not
    converge, which {!solution.converged} reports. *)

type solver = Cg | Cholesky
(** [Cg]: Jacobi-preconditioned conjugate gradients (default; scales to
    million-node grids with O(nnz) memory). [Cholesky]: sparse LDL^T with
    RCM ordering ({!Numerics.Cholesky}) — exact, reusable across solves,
    preferable on small-to-medium or ill-conditioned grids. *)

type solution = {
  netlist : Netlist.t;
  voltages : float array;      (** per node, V *)
  cg_iterations : int;         (** 0 under the direct solver *)
  residual : float;
      (** true relative residual [|b - G v|_2 / |b|_2] of the reduced
          system, recomputed from the returned voltages *)
  converged : bool;
      (** [residual <= 10 * tol], the criterion of {!Numerics.Cg}, for
          both solvers. When false the voltages are not a DC solution
          and nothing derived from them (currents, stresses, verdicts)
          can be trusted; [emcheck analyze] then fails the run with a
          [dc-not-converged] error. *)
}

exception Unsupported of string
(** Raised for floating voltage sources or a grid with no pinned node. *)

val solve : ?tol:float -> ?max_iter:int -> ?solver:solver -> Netlist.t -> solution
(** Raises {!Unsupported}; [Invalid_argument] on malformed netlists
    (e.g. a resistor with both ends the same node after merging is
    silently dropped, but negative resistance was rejected earlier). *)

val resistor_current : solution -> int -> float
(** [resistor_current sol e]: conventional current through element [e]
    (which must be a [Resistor]), positive from [pos] to [neg]; A.
    Zero-ohm shorts report 0 (their current is not observable from node
    voltages). *)

val node_voltage : solution -> string -> float option

val ir_drop : solution -> supply:float -> float array
(** Per-node [supply - v]; callers restrict to the relevant net. *)
