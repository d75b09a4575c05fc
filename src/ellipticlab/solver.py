"""Desk-scale grid solver for F(D2u, x) + <B(x), Du> = f(x).

Dirichlet problems on the square are discretized with central differences
(second order, exact on quadratics) and solved by a damped Newton
iteration on the nodewise residual.  A constant-coefficient tangential
solver and a manufactured-solutions harness give independent ground
truth for accuracy studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigError, NumericsError
from .fields import (GridField, Polynomial2D, central_stencil, interior_jets, sample_function,
                     shifted_interior)
from .operators import OperatorSpec, SymMatrix, linear_trace


@dataclass(frozen=True)
class AnalyticSolution:
    """A twice-differentiable profile with vectorized exact derivatives.

    Each callable maps stacked points (..., n) to values (...,),
    gradients (..., n), and Hessians (..., n, n).
    """

    value: Callable
    gradient: Callable
    hessian: Callable
    name: str = "custom"


def quadratic_solution(c: float, b, M: SymMatrix) -> AnalyticSolution:
    q = Polynomial2D(c, np.asarray(b, dtype=float), M)
    return AnalyticSolution(q, q.gradient, q.hessian, name="quadratic")


def saddle_quartic_solution(delta: float) -> AnalyticSolution:
    """u*(x) = delta (x1^2 - x2^2)/2 + delta x1^4 / 12, n = 2."""

    def val(pts):
        p = np.asarray(pts, dtype=float)
        return delta * (0.5 * (p[..., 0] ** 2 - p[..., 1] ** 2) + p[..., 0] ** 4 / 12.0)

    def grad(pts):
        p = np.asarray(pts, dtype=float)
        g = np.empty_like(p)
        g[..., 0] = delta * (p[..., 0] + p[..., 0] ** 3 / 3.0)
        g[..., 1] = -delta * p[..., 1]
        return g

    def hess(pts):
        p = np.asarray(pts, dtype=float)
        H = np.zeros(p.shape[:-1] + (2, 2))
        H[..., 0, 0] = delta * (1.0 + p[..., 0] ** 2)
        H[..., 1, 1] = -delta
        return H

    return AnalyticSolution(val, grad, hess, name=f"saddle_quartic_{delta:g}")


@dataclass(frozen=True)
class ProblemInstance:
    """Operator, drift, source, and boundary data on a shared grid.

    ``boundary`` is a full grid-shaped array of which only the boundary
    ring is read; ``drift`` may be None for drift-free problems.
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

    @property
    def grid(self) -> GridField:
        return self.source


@dataclass(frozen=True)
class SolveReport:
    solution: GridField
    residual_norm_history: list
    iterations: int
    converged: bool
    damping_events: list = field(default_factory=list)

    def describe(self) -> dict:
        return {
            "iterations": self.iterations,
            "converged": bool(self.converged),
            "residual_norm_history": [float(v) for v in self.residual_norm_history],
            "damping_events": list(self.damping_events),
        }


# -- stencil assembly -------------------------------------------------------


def _interior(n: int, N: int):
    return (slice(1, N - 1),) * n


def _interior_points(f: GridField) -> np.ndarray:
    pts = np.stack(f.meshgrid(), axis=-1)
    return pts[_interior(f.n, f.N)]


def discrete_residual(inst: ProblemInstance, u: GridField) -> GridField:
    """Nodewise residual: the PDE defect at interior nodes, u minus the
    boundary data on the boundary ring."""
    f = inst.source
    if (u.n, u.N, u.L) != (f.n, f.N, f.L) or u.components != 1:
        raise ConfigError("candidate solution must be a scalar field on the problem grid")
    res = u.values - inst.boundary
    H, G = interior_jets(u.values, f.n, f.h)
    pts = _interior_points(f)
    vals = inst.op.evaluate_batch(H, pts)
    if inst.drift is not None:
        vals = vals + np.einsum("...i,...i->...", inst.drift.values[_interior(f.n, f.N)], G)
    res = res.copy()
    res[_interior(f.n, f.N)] = vals - f.values[_interior(f.n, f.N)]
    return GridField(f.n, f.N, f.L, res)


def _assemble_jacobian(inst: ProblemInstance, u: GridField) -> sp.csr_matrix:
    """Sparse Jacobian of the nodewise residual at u.

    Each entry of ``central_stencil`` contributes its weights times the
    derivative of the residual in that jet entry: dF/dH from a one-sided
    difference of F per Hessian entry, the drift component B_a (exact)
    per gradient entry.  Boundary rows are the identity.
    """
    f = inst.source
    n, N, h = f.n, f.N, f.h
    total = N**n
    idx_grid = np.arange(total).reshape((N,) * n)
    core = _interior(n, N)
    interior_ids = idx_grid[core].ravel()
    H, _ = interior_jets(u.values, n, h)
    pts = _interior_points(f)
    base = inst.op.evaluate_batch(H, pts)
    step = 1e-6 * (1.0 + np.linalg.norm(H, axis=(-2, -1)))

    rows, cols, data = [], [], []
    for entry in central_stencil(n):
        if entry.p == 2:
            e = np.zeros((n, n))
            e[entry.index] = e[entry.index[::-1]] = 1.0
            perturbed = H + step[..., None, None] * e
            dF = (inst.op.evaluate_batch(perturbed, pts) - base) / step
        elif inst.drift is not None:
            dF = inst.drift.values[core][..., entry.index[0]]
        else:
            continue
        for off, w in zip(entry.offsets, entry.weights):
            rows.append(interior_ids)
            cols.append(shifted_interior(idx_grid, off).ravel())
            data.append(((w * dF) / (entry.c * h**entry.p)).ravel())

    boundary_mask = np.ones((N,) * n, dtype=bool)
    boundary_mask[core] = False
    bids = idx_grid[boundary_mask]
    rows.append(bids)
    cols.append(bids)
    data.append(np.ones(len(bids)))

    J = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(total, total),
    )
    return J.tocsr()


def solve_newton(inst: ProblemInstance, u0: GridField, tol: float = 1e-10,
                 max_iter: int = 30) -> SolveReport:
    """Damped Newton on the nodewise residual.

    The step is halved (at most 20 times) until the residual sup-norm
    decreases; the Jacobian is refreshed every iteration.  Deterministic
    for a fixed instance and starting guess.
    """
    if tol <= 0:
        raise ConfigError("tolerance must be positive")
    f = inst.source
    u = np.asarray(u0.values, dtype=float).copy()
    history = []
    damping_events = []

    def resid(vals):
        return discrete_residual(inst, GridField(f.n, f.N, f.L, vals)).values

    r = resid(u)
    rnorm = float(np.max(np.abs(r)))
    history.append(rnorm)
    for it in range(1, max_iter + 1):
        if rnorm <= tol:
            return SolveReport(GridField(f.n, f.N, f.L, u), history, it - 1, True,
                               damping_events)
        J = _assemble_jacobian(inst, GridField(f.n, f.N, f.L, u))
        try:
            step = spla.spsolve(J.tocsc(), -r.ravel()).reshape(u.shape)
        except Exception as exc:
            raise NumericsError(f"linear solve failed in Newton iteration {it}: {exc}")
        if not np.all(np.isfinite(step)):
            return SolveReport(GridField(f.n, f.N, f.L, u), history, it, False,
                               damping_events + [{"iteration": it, "event": "singular"}])
        alpha = 1.0
        for halving in range(21):
            trial = u + alpha * step
            r_trial = resid(trial)
            t_norm = float(np.max(np.abs(r_trial)))
            if t_norm < rnorm or t_norm <= tol:
                break
            alpha *= 0.5
        else:
            return SolveReport(GridField(f.n, f.N, f.L, u), history, it, False,
                               damping_events + [{"iteration": it, "event": "stalled"}])
        if halving:
            damping_events.append({"iteration": it, "halvings": halving})
        u, r, rnorm = trial, r_trial, t_norm
        history.append(rnorm)
    return SolveReport(GridField(f.n, f.N, f.L, u), history, max_iter,
                       rnorm <= tol, damping_events)


# -- constant-coefficient tangential solve ----------------------------------


def solve_linear_tangential(A0: SymMatrix, boundary, N: int, L: float = 1.0,
                            source: Optional[GridField] = None) -> GridField:
    """Solve tr(A0 D2u) = f with Dirichlet data by at most three Newton steps.

    ``boundary`` is a callback on stacked points or a grid-shaped array.
    The assembled residual is checked to 1e-10 relative.  The problem is
    linear, but one sparse direct solve leaves a residual near 1e-10 times
    the starting defect (2e-6 relative at N=257 from a zero interior), so
    the later Newton steps act as iterative refinement.
    """
    eigs = A0.eigenvalues()
    if eigs[0] <= 0:
        raise ConfigError("tangential coefficient matrix must be positive definite")
    n = A0.n
    if callable(boundary):
        bfield = sample_function(boundary, n=n, N=N, L=L)
        barr = bfield.values
    else:
        barr = np.asarray(boundary, dtype=float)
        if barr.shape != (N,) * n:
            raise ConfigError("boundary array must be grid shaped")
    src = source.values if source is not None else np.zeros((N,) * n)
    f = GridField(n, N, L, src)
    inst = ProblemInstance(op=linear_trace(A0), source=f, boundary=barr)
    zero = GridField(n, N, L, barr.copy())
    scale = max(float(np.max(np.abs(src))), float(np.max(np.abs(barr))), 1.0)
    report = solve_newton(inst, zero, tol=1e-10 * scale, max_iter=3)
    res = discrete_residual(inst, report.solution).values
    if float(np.max(np.abs(res))) > 1e-10 * scale:
        raise NumericsError("tangential solve residual exceeds 1e-10 relative")
    return report.solution


# -- manufactured solutions ---------------------------------------------------


def mms_generate(op: OperatorSpec, u_star: AnalyticSolution, N: int, L: float = 1.0,
                 drift: Optional[GridField] = None) -> ProblemInstance:
    """Build the instance whose exact solution is u_star.

    The source is F(D2u*(x), x) + <B(x), Du*(x)> from analytic
    derivatives; the boundary ring carries u* itself.
    """
    for attr in ("value", "gradient", "hessian"):
        if not callable(getattr(u_star, attr, None)):
            raise ConfigError("u_star needs callable value/gradient/hessian")
    n = op.n
    template = GridField(n, N, L, np.zeros((N,) * n))
    pts = np.stack(template.meshgrid(), axis=-1)
    H = np.asarray(u_star.hessian(pts), dtype=float)
    fvals = op.evaluate_batch(H, pts)
    if drift is not None:
        fvals = fvals + np.einsum("...i,...i->...", drift.values,
                                  np.asarray(u_star.gradient(pts), dtype=float))
    boundary = np.asarray(u_star.value(pts), dtype=float)
    return ProblemInstance(op=op, source=GridField(n, N, L, np.asarray(fvals)),
                           boundary=boundary, drift=drift)


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
                      N_list: Sequence[int] = (33, 65, 129), L: float = 1.0,
                      drift_fn: Optional[Callable] = None,
                      tol: float = 1e-10) -> ConvergenceStudy:
    """Sup-norm MMS errors and observed orders over a grid-refinement ladder."""
    if len(N_list) < 3:
        raise ConfigError("need at least 3 grid levels")
    errors, iters = [], []
    for N in N_list:
        drift = None
        if drift_fn is not None:
            drift = sample_function(drift_fn, n=op.n, N=N, L=L, components=op.n)
        inst = mms_generate(op, u_star, N=N, L=L, drift=drift)
        u0 = GridField(op.n, N, L, inst.boundary.copy())
        report = solve_newton(inst, u0, tol=tol)
        if not report.converged:
            raise NumericsError(f"Newton failed to converge at N={N}")
        pts = np.stack(inst.source.meshgrid(), axis=-1)
        exact = np.asarray(u_star.value(pts), dtype=float)
        errors.append(float(np.max(np.abs(report.solution.values - exact))))
        iters.append(report.iterations)
    scale = max(1.0, float(np.max(np.abs(exact))))
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
