"""Desk-scale grid solver for F(D2u, x) + <B(x), Du> = f(x).

Dirichlet problems on the square are discretized with central differences
(second order, exact on quadratics) and solved by a damped Newton
iteration on the nodewise residual that reuses each LU factorization for
chord steps while the residual contracts.  A constant-coefficient tangential
solver and a manufactured-solutions harness give independent ground
truth for accuracy studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigError, NumericsError
# the exact solutions are imported by name so solver.quadratic_solution and
# solver.saddle_quartic_solution still build u* for callers of this module
from .fields import (AnalyticSolution, GridField, central_stencil, interior_jets,
                     quadratic_solution, saddle_quartic_solution, sample_function,
                     shifted_interior)
from .operators import OperatorSpec, SymMatrix, linear_trace, linearize


@dataclass(frozen=True)
class ProblemInstance:
    """Operator, drift, source, and boundary data on a shared grid.

    ``boundary`` is a full grid-shaped array of which the solver reads
    only the boundary ring; ``mms_solve`` reads it at every node, where
    ``mms_generate`` puts u* itself.  ``drift`` may be None for drift-free
    problems.
    """

    op: OperatorSpec
    source: GridField
    boundary: np.ndarray
    drift: Optional[GridField] = None

    def __post_init__(self):
        f = self.source
        if self.op.n != f.n:
            raise ConfigError("operator and grid dimensions disagree")
        b = np.asarray(self.boundary, dtype=float)
        if b.shape != (f.N,) * f.n:
            raise ConfigError("boundary array must be grid shaped")
        if not np.all(np.isfinite(b)):
            raise ConfigError("boundary values must be finite")
        object.__setattr__(self, "boundary", b)
        if self.drift is not None:
            d = self.drift
            if (d.n, d.N, d.L, d.components) != (f.n, f.N, f.L, f.n):
                raise ConfigError("drift must be an n-component field on the source grid")


@dataclass(frozen=True)
class SolveReport:
    solution: GridField
    residual_norm_history: list
    iterations: int
    converged: bool
    damping_events: list
    factorizations: int

    def describe(self) -> dict:
        return {
            "iterations": self.iterations,
            "factorizations": self.factorizations,
            "converged": bool(self.converged),
            "residual_norm_history": [float(v) for v in self.residual_norm_history],
            "damping_events": list(self.damping_events),
        }


# -- stencil assembly -------------------------------------------------------


def _interior(n: int, N: int):
    return (slice(1, N - 1),) * n


def _interior_points(inst: ProblemInstance) -> Optional[np.ndarray]:
    """Interior node coordinates, or None when the operator has no
    ``x_dependence``: ``evaluate_batch`` reads the points for nothing else."""
    if inst.op.x_dependence is None:
        return None
    f = inst.source
    return np.stack(f.meshgrid(), axis=-1)[_interior(f.n, f.N)]


def _check_on_grid(inst: ProblemInstance, u: GridField) -> None:
    f = inst.source
    if (u.n, u.N, u.L) != (f.n, f.N, f.L) or u.components != 1:
        raise ConfigError("candidate solution must be a scalar field on the problem grid")


def discrete_residual(inst: ProblemInstance, u: GridField) -> GridField:
    """Nodewise residual: the PDE defect at interior nodes, u minus the
    boundary data on the boundary ring."""
    f = inst.source
    _check_on_grid(inst, u)
    res = u.values - inst.boundary
    H, G = interior_jets(u.values, f.n, f.h)
    pts = _interior_points(inst)
    vals = inst.op.evaluate_batch(H, pts)
    if inst.drift is not None:
        vals = vals + np.einsum("...i,...i->...", inst.drift.values[_interior(f.n, f.N)], G)
    res[_interior(f.n, f.N)] = vals - f.values[_interior(f.n, f.N)]
    return GridField(f.n, f.N, f.L, res)


# Dissection stops at blocks of at most this many nodes.  Measured on the
# benchmark's Newton solves: 16 leaves 12-15 % less LU fill than 64, and of
# 8, 16 and 32 it gives the fastest pass; 8 cuts fill by another 1-2 % but
# is no faster and takes longer to dissect.
_LEAF_NODES = 16


def _offset_slots(n: int):
    """The distinct neighbour offsets of ``central_stencil(n)`` in order of
    first use, and for each stencil entry the slot of each of its offsets
    in that list."""
    first = {}
    slots = tuple(tuple(first.setdefault(tuple(off), len(first)) for off in entry.offsets)
                  for entry in central_stencil(n))
    return tuple(first), slots


@lru_cache(maxsize=8)
def _interior_pattern(n: int, N: int):
    """Nested-dissection order and the Jacobian's CSC pattern for the
    (N-2)^n interior nodes, shared by every solve on the grid.

    Returns ``(perm, inv, indptr, indices, gather)``, all read-only.
    ``perm[k]`` is the C-order interior index of the k-th node in
    dissected order and ``inv`` its inverse.  The order splits the longest
    axis of a block at a one-node separator, numbers both halves
    recursively and the separator last, and keeps blocks of at most
    ``_LEAF_NODES`` nodes in C order (George, SIAM J. Numer. Anal. 1973).
    ``indptr``/``indices`` are the CSC pattern of the Jacobian in
    dissected rows and columns, with sorted row indices.  Entry ``e`` of
    it couples a row to its neighbour at offset ``k = gather[e] // m**n``
    of ``_offset_slots(n)``, and ``gather[e] % m**n`` is the row's C-order
    interior index; neighbours on the boundary ring have no entry.
    """
    m = N - 2
    natural = np.arange(m**n).reshape((m,) * n)
    blocks = []

    def dissect(block):
        if block.size <= _LEAF_NODES:
            blocks.append(block.ravel())
            return
        axis = block.shape.index(max(block.shape))
        mid = block.shape[axis] // 2
        lower, sep, upper = (block[(slice(None),) * axis + (part,)] for part in
                             (slice(None, mid), slice(mid, mid + 1), slice(mid + 1, None)))
        dissect(lower)
        dissect(upper)
        blocks.append(sep.ravel())

    dissect(natural)
    perm = np.concatenate(blocks).astype(np.int32)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size, dtype=np.int32)
    padded = np.full((N,) * n, -1, dtype=np.int32)
    padded[_interior(n, N)] = inv.reshape((m,) * n)
    offsets, _ = _offset_slots(n)
    # (row, offset) triplets in row-major order, so the one conversion to
    # CSC leaves each column's rows sorted; distinct offsets never collide,
    # so there are no duplicates to sum
    cols = np.stack([shifted_interior(padded, off).ravel()[perm] for off in offsets], axis=1)
    ids = np.arange(len(offsets)) * perm.size + perm[:, None].astype(np.int64)
    rows = np.broadcast_to(np.arange(perm.size, dtype=np.int32)[:, None], cols.shape)
    keep = cols >= 0
    J = sp.coo_matrix((ids[keep], (rows[keep], cols[keep])), shape=(perm.size,) * 2).tocsc()
    indptr, indices, gather = J.indptr, J.indices, J.data
    for arr in (perm, inv, indptr, indices, gather):
        arr.flags.writeable = False
    return perm, inv, indptr, indices, gather


def _assemble_jacobian(inst: ProblemInstance, u: GridField) -> sp.csc_matrix:
    """Sparse Jacobian of the interior residual in the interior unknowns,
    both numbered in the ``_interior_pattern`` dissected order.

    Each entry of ``central_stencil`` contributes its weights times the
    derivative of the residual in that jet entry: ``linearize``'s DF[a, a],
    or 2 DF[a, b] off the diagonal, per Hessian entry, the drift component
    B_a (exact) per gradient entry.  These are summed, in stencil order,
    into one coefficient per neighbour offset and interior node, and the
    cached CSC pattern gathers its data from them.  Neighbours on the
    boundary ring hold fixed Dirichlet data and contribute no column.
    """
    f = inst.source
    n, N, h = f.n, f.N, f.h
    _, _, indptr, indices, gather = _interior_pattern(n, N)
    offsets, slots = _offset_slots(n)
    H, _ = interior_jets(u.values, n, h)
    DF = linearize(inst.op, H, _interior_points(inst))
    coeff = np.zeros((len(offsets), H.size // n**2))
    for entry, entry_slots in zip(central_stencil(n), slots):
        if entry.p == 2:
            a, b = entry.index
            dF = DF[..., a, a] if a == b else 2.0 * DF[..., a, b]
        elif inst.drift is not None:
            dF = inst.drift.values[_interior(n, N)][..., entry.index[0]]
        else:
            continue
        dF = dF.ravel()
        for w, k in zip(entry.weights, entry_slots):
            coeff[k] += (w * dF) / (entry.c * h**entry.p)
    return sp.csc_matrix((coeff.ravel()[gather], indices, indptr), shape=(coeff.shape[1],) * 2)


# An accepted step that leaves more than this fraction of the residual
# sup-norm drops the LU factor, so the next iteration refactors (Kelley,
# 1995).  Measured: at 0.25 the zero-interior Pucci solves need more than 8
# steps, and 0.5 is no faster than 0.1.
_CHORD_RATE = 0.1


def solve_newton(inst: ProblemInstance, u0: GridField, tol: float = 1e-10,
                 max_iter: int = 30) -> SolveReport:
    """Damped Newton on the nodewise residual, reusing each LU factor for
    chord steps while the residual keeps contracting (Shamanskii's method).

    The Dirichlet data is imposed on the boundary ring of the start, and
    the unknowns are the interior nodes only, solved in the
    nested-dissection order of ``_interior_pattern``.  So
    ``residual_norm_history[0]`` is the residual sup-norm of the start
    after the boundary is imposed, and every later residual is zero on
    the ring.

    While a factor is kept, each iteration first takes the full chord
    step with it.  If that does not lower the residual sup-norm, the step
    is discarded and the Jacobian is refactored at the same iterate for a
    Newton step, halved (at most 20 times) until the residual sup-norm
    decreases.  The factor is dropped after a step that needed halvings or
    that left more than ``_CHORD_RATE`` of the residual.  ``iterations``
    counts accepted steps and ``factorizations`` the LU factorizations.
    Deterministic for a fixed instance and starting guess.  Raises
    ``ConfigError`` unless ``tol`` is finite and positive and
    ``max_iter >= 1``.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ConfigError(f"tolerance must be finite and positive, got {tol!r}")
    if max_iter < 1:
        raise ConfigError(f"max_iter must be at least 1, got {max_iter!r}")
    _check_on_grid(inst, u0)
    f = inst.source
    core = _interior(f.n, f.N)
    perm, inv, *_ = _interior_pattern(f.n, f.N)
    u = inst.boundary.copy()
    u[core] = np.asarray(u0.values, dtype=float)[core]
    damping_events = []
    lu, factorizations, it = None, 0, 0

    def resid(vals):
        return discrete_residual(inst, GridField(f.n, f.N, f.L, vals)).values

    def lu_step():
        step = np.zeros_like(u)
        step[core] = lu.solve(-r[core].ravel()[perm])[inv].reshape(u[core].shape)
        return step

    def first_decrease(step, halvings):
        """The first trial u + 2^-k step, k <= halvings, whose residual
        sup-norm is below the current one or meets ``tol``, as (trial, its
        residual, its sup-norm, k); None when there is none or the step is
        not finite, as a singular factor leaves it."""
        if not np.all(np.isfinite(step)):   # GridField rejects a non-finite trial
            return None
        for k in range(halvings + 1):
            trial = u + 0.5**k * step
            r_trial = resid(trial)
            t_norm = float(np.max(np.abs(r_trial)))
            if t_norm < rnorm or t_norm <= tol:
                return trial, r_trial, t_norm, k
        return None

    r = resid(u)
    rnorm = float(np.max(np.abs(r)))
    history = [rnorm]
    while rnorm > tol and it < max_iter:
        it += 1
        accepted = None
        if lu is not None:
            accepted = first_decrease(lu_step(), 0)
            if accepted is None:
                lu = None
        if accepted is None:
            # assemble after the stale factor is freed: two live factors
            # would double the solve's peak memory
            J = _assemble_jacobian(inst, GridField(f.n, f.N, f.L, u))
            try:
                lu = spla.splu(J, permc_spec="NATURAL")
            except RuntimeError as exc:
                if "singular" not in str(exc):
                    raise NumericsError(f"LU factorization failed in Newton iteration {it}: {exc}")
                damping_events.append({"iteration": it, "event": "singular"})
                break
            factorizations += 1
            step = lu_step()
            accepted = first_decrease(step, 20)
            if accepted is None:
                event = "stalled" if np.all(np.isfinite(step)) else "singular"
                damping_events.append({"iteration": it, "event": event})
                break
        u, r, t_norm, halving = accepted
        if halving:
            damping_events.append({"iteration": it, "halvings": halving})
        if halving or t_norm > _CHORD_RATE * rnorm:
            lu = None
        rnorm = t_norm
        history.append(rnorm)
    # a singular or stalled iteration leaves rnorm above tol
    return SolveReport(GridField(f.n, f.N, f.L, u), history, it, rnorm <= tol, damping_events,
                       factorizations)


# -- constant-coefficient tangential solve ----------------------------------


def solve_linear_tangential(A0: SymMatrix, boundary, N: int,
                            source: Optional[GridField] = None) -> GridField:
    """Solve tr(A0 D2u) = f with Dirichlet data on [-1, 1]^n, from a zero
    interior, by one LU factorization and at most three steps with it.

    ``boundary`` is a callback on stacked points or a grid-shaped array;
    ``linear_trace`` rejects an A0 that is not positive definite.  The
    assembled residual is checked to 1e-10 relative.  The problem is
    linear, but one sparse direct solve leaves a residual near 1e-10 times
    the starting defect (2e-6 relative for exp(x1) cos(2 x2) data with
    A0 = I at N=257 from a zero interior).  Each step cuts the residual far
    below ``_CHORD_RATE``, so ``solve_newton`` keeps the factor and the
    later steps are chord steps: iterative refinement on the one factor.
    """
    n, L = A0.n, 1.0
    if callable(boundary):
        boundary = sample_function(boundary, n=n, N=N, L=L).values
    src = source.values if source is not None else np.zeros((N,) * n)
    f = GridField(n, N, L, src)
    inst = ProblemInstance(op=linear_trace(A0), source=f, boundary=boundary)
    zero = GridField(n, N, L, np.zeros((N,) * n))
    scale = max(float(np.max(np.abs(src))), float(np.max(np.abs(inst.boundary))), 1.0)
    report = solve_newton(inst, zero, tol=1e-10 * scale, max_iter=3)
    if not report.converged:
        raise NumericsError("tangential solve residual exceeds 1e-10 relative")
    return report.solution


# -- manufactured solutions ---------------------------------------------------


def mms_generate(op: OperatorSpec, u_star: AnalyticSolution, N: int, L: float = 1.0,
                 drift: Optional[GridField] = None) -> ProblemInstance:
    """Build the instance whose exact solution is u_star.

    The source is F(D2u*(x), x) + <B(x), Du*(x)> from analytic
    derivatives; the boundary ring carries u* itself.  Both are sampled by
    ``sample_function``, one block of rows at a time.  A u* whose Hessians
    are not n x n for the operator's n raises ConfigError.
    """
    for attr in ("value", "gradient", "hessian"):
        if not callable(getattr(u_star, attr, None)):
            raise ConfigError("u_star needs callable value/gradient/hessian")
    n = op.n

    def F(pts):
        H = np.asarray(u_star.hessian(pts), dtype=float)
        if H.shape != pts.shape + (n,):
            raise ConfigError(f"u_star's Hessians must be {n} x {n}, as the operator is {n}-D")
        return op.evaluate_batch(H, pts)

    source = sample_function(F, n=n, N=N, L=L)
    if drift is not None:
        Du = sample_function(u_star.gradient, n=n, N=N, L=L, components=n).values
        source = GridField(n, N, L, source.values + np.einsum("...i,...i->...", drift.values, Du))
    return ProblemInstance(op=op, source=source, drift=drift,
                           boundary=sample_function(u_star.value, n=n, N=N, L=L).values)


def mms_solve(op: OperatorSpec, u_star: AnalyticSolution, N: int, L: float,
              drift_fn: Optional[Callable], tol: float,
              max_iter: int = 30) -> tuple[SolveReport, float]:
    """Newton solve of the manufactured problem for u_star on the N-grid,
    started from its Dirichlet data with a zero interior.

    ``drift_fn`` maps stacked points to the drift B (None for no drift).
    Returns the solve report and the sup-norm error of its solution
    against u*.
    """
    drift = None
    if drift_fn is not None:
        drift = sample_function(drift_fn, n=op.n, N=N, L=L, components=op.n)
    inst = mms_generate(op, u_star, N=N, L=L, drift=drift)
    zero = GridField(op.n, N, L, np.zeros((N,) * op.n))
    report = solve_newton(inst, zero, tol=tol, max_iter=max_iter)
    # mms_generate filled the boundary array with u* at every node
    return report, float(np.max(np.abs(report.solution.values - inst.boundary)))


@dataclass(frozen=True)
class ConvergenceStudy:
    N_list: list
    errors: list
    orders: list          # log2(e_N / e_{2N}); "exact" when at round-off
    iterations: list
    monotone: bool

    def describe(self) -> dict:
        return {
            "N_list": list(self.N_list),
            "sup_errors": [float(e) for e in self.errors],
            "orders": list(self.orders),
            "newton_iterations": list(self.iterations),
            "monotone": bool(self.monotone),
        }


def convergence_study(op: OperatorSpec, u_star: AnalyticSolution,
                      N_list: Sequence[int] = (33, 65, 129),
                      drift_fn: Optional[Callable] = None,
                      tol: float = 1e-10) -> ConvergenceStudy:
    """Sup-norm MMS errors and observed orders over a grid-refinement ladder
    on [-1, 1]^n, each rung solved by ``mms_solve``.  Round-off is 1e-12
    times the finest solution's sup-norm (at least 1)."""
    if len(N_list) < 3:
        raise ConfigError("need at least 3 grid levels")
    errors, iters = [], []
    for N in N_list:
        report, err = mms_solve(op, u_star, N, 1.0, drift_fn, tol)
        if not report.converged:
            raise NumericsError(f"Newton failed to converge at N={N}")
        errors.append(err)
        iters.append(report.iterations)
    scale = max(1.0, float(np.max(np.abs(report.solution.values))))
    orders = []
    for k in range(len(errors) - 1):
        if errors[k] < 1e-12 * scale and errors[k + 1] < 1e-12 * scale:
            orders.append("exact")
        elif errors[k + 1] == 0.0:
            orders.append("exact")
        else:
            orders.append(float(np.log2(errors[k] / errors[k + 1])))
    monotone = all(errors[k + 1] <= errors[k] * 1.05 for k in range(len(errors) - 1))
    return ConvergenceStudy(list(N_list), errors, orders, iters, monotone)
