"""Desk-scale grid solver for F(D2u, x) + <B(x), Du> = f(x).

Dirichlet problems on the square are discretized with central differences
(second order, exact on quadratics) and solved by a damped inexact Newton
iteration on the nodewise residual, each step by GMRES on the Jacobian as
a scipy DIA matrix, preconditioned with a fast sine transform.  A
constant-coefficient tangential solver and a manufactured-solutions
harness give independent ground truth for accuracy studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sp
# called nowhere here: the benchmark's tracer (perfbench/tracing.py) wraps solver.spla.spsolve
import scipy.sparse.linalg as spla  # noqa: F401

from .errors import ConfigError, NumericsError
# the exact solutions are imported by name so solver.quadratic_solution and
# solver.saddle_quartic_solution still build u* for callers of this module
from .fields import (AnalyticSolution, GridField, central_stencil, interior_jets,
                     quadratic_solution, row_blocks, saddle_quartic_solution,
                     sample_function)
from .operators import OperatorSpec, SymMatrix, entry_slopes, linear_trace


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
    krylov_iterations: int

    def describe(self) -> dict:
        return {
            "iterations": self.iterations,
            "krylov_iterations": self.krylov_iterations,
            "converged": bool(self.converged),
            "residual_norm_history": [float(v) for v in self.residual_norm_history],
            "damping_events": list(self.damping_events),
        }


# -- stencil assembly -------------------------------------------------------


def _interior(n: int, N: int):
    return (slice(1, N - 1),) * n


def _interior_points(inst: ProblemInstance) -> Optional[np.ndarray]:
    """Interior node coordinates, or None when the operator has no
    ``x_dependence``: ``evaluate_batch`` reads the points for nothing else.
    ``solve_newton`` builds them once per solve."""
    if inst.op.x_dependence is None:
        return None
    c = inst.source.axis_coords()[1:-1]
    return np.stack(np.meshgrid(*([c] * inst.source.n), indexing="ij"), axis=-1)


def _check_on_grid(inst: ProblemInstance, u: GridField) -> None:
    f = inst.source
    if (u.n, u.N, u.L) != (f.n, f.N, f.L) or u.components != 1:
        raise ConfigError("candidate solution must be a scalar field on the problem grid")


def _residual_jets(inst: ProblemInstance, vals: np.ndarray, pts: Optional[np.ndarray]):
    """The nodewise residual of grid values ``vals`` (see ``discrete_residual``),
    with the interior Hessians H and F(H, x) it was computed from: ``pts``
    is ``_interior_points(inst)``.

    The interior runs in ``row_blocks`` of H's shape (64 rows at N=257),
    each block's jets read from its rows and one halo row each side, so
    that a block's temporaries stay in cache; every value is elementwise,
    so the result is bit for bit the unblocked one."""
    f = inst.source
    core = _interior(f.n, f.N)
    res = vals - inst.boundary
    inner, src = res[core], f.values[core]
    drift = None if inst.drift is None else inst.drift.values[core]
    H = np.empty((f.N - 2,) * f.n + (f.n, f.n))
    FH = np.empty(H.shape[:-2])
    for blk in row_blocks(H.shape):
        H[blk], G = interior_jets(vals[blk.start : blk.stop + 2], f.n, f.h)
        FH[blk] = inst.op.evaluate_batch(H[blk], None if pts is None else pts[blk])
        defect = FH[blk] if drift is None else (
            FH[blk] + np.einsum("...i,...i->...", drift[blk], G))
        inner[blk] = defect - src[blk]
    return res, H, FH


def discrete_residual(inst: ProblemInstance, u: GridField) -> GridField:
    """Nodewise residual: the PDE defect at interior nodes, u minus the
    boundary data on the boundary ring."""
    f = inst.source
    _check_on_grid(inst, u)
    res, _, _ = _residual_jets(inst, u.values, _interior_points(inst))
    return GridField(f.n, f.N, f.L, res)


@lru_cache(maxsize=None)
def _offset_slots(n: int):
    """The distinct neighbour offsets of ``central_stencil(n)`` in order of
    first use, and for each stencil entry the slot of each of its offsets
    in that list: the Jacobian's stencil pattern, built once per dimension
    as nested tuples and shared by every ``_jacobian``."""
    first = {}
    slots = tuple(tuple(first.setdefault(tuple(off), len(first)) for off in entry.offsets)
                  for entry in central_stencil(n))
    return tuple(first), slots


def _jacobian(inst: ProblemInstance, H: np.ndarray, FH: np.ndarray, pts: Optional[np.ndarray]):
    """The Jacobian J of the interior residual in the interior unknowns, in
    natural C order, and the interior means of DF's diagonal, at the iterate
    whose interior Hessians are H and F(H, x) is FH (``_residual_jets``
    gives both, and ``pts`` is ``_interior_points(inst)``).

    Returns ``(J, abar)``: J a ``scipy.sparse.dia_array`` with one diagonal
    per distinct neighbour offset of ``central_stencil(n)``, in order of
    first use, at the offset's flat stride, and abar[a], the mean of
    DF[..., a, a] over the interior nodes.  Each stencil entry contributes
    its weights times the derivative of the residual in that jet entry:
    ``entry_slopes``' slope along E_aa, or along E_ab + E_ba off the
    diagonal (2 DF[a, b]), per Hessian entry, the drift component B_a
    (exact) per gradient entry, summed in stencil order.  Neighbours on the
    boundary ring hold fixed Dirichlet data, not unknowns, so their
    coefficients are +0; a stride that wraps from one row (or slab) into the
    next meets only such neighbours, so adding its +-0 products to a sum
    that started from +0 changes no bit, and for finite v, J @ v is bit for
    bit the sum of the offsets' products, in order, over v padded with zeros.

    The slopes are taken per ``row_blocks`` block of H, as in
    ``_residual_jets``, and each entry's derivative is divided once by
    c h^p and added, subtracted or doubled into each offset's coefficient:
    every stencil weight is +-1 or +-2, and a power of two commutes with a
    rounded quotient (barring underflow), so the coefficients are bit for
    bit those of adding (w dF) / (c h^p) per weight.  abar is the mean of
    the whole arrays of diagonal slopes, not of per-block means.  Each
    offset's coefficients are then moved, in place, by its stride into the
    DIA layout, where the coefficient of v[j] sits at column j.
    """
    f = inst.source
    n, h = f.n, f.h
    offsets, slots = _offset_slots(n)
    coeff = np.zeros((len(offsets),) + H.shape[:-2])
    diag = np.empty((n,) + H.shape[:-2])   # DF[..., a, a], the slopes along E_aa
    drift = None if inst.drift is None else inst.drift.values[_interior(n, f.N)]
    triu = {(int(a), int(b)): k for k, (a, b) in enumerate(zip(*np.triu_indices(n)))}
    for blk in row_blocks(H.shape):
        slopes = entry_slopes(inst.op, H[blk], None if pts is None else pts[blk], FH[blk])
        for entry, entry_slots in zip(central_stencil(n), slots):
            if entry.p == 2:
                dF = slopes[triu[entry.index]]
                if entry.index[0] == entry.index[1]:
                    diag[entry.index[0], blk] = dF
            elif drift is not None:
                dF = drift[blk][..., entry.index[0]]
            else:
                continue
            t = dF / (entry.c * h**entry.p)
            for w, k in zip(entry.weights, entry_slots):
                tw = t if abs(w) == 1.0 else abs(w) * t
                if w > 0:
                    coeff[k, blk] += tw
                else:
                    coeff[k, blk] -= tw
    # a neighbour on the boundary ring holds Dirichlet data, not an unknown
    m = H.shape[0]
    for off, c in zip(offsets, coeff):
        for a, o in enumerate(off):
            if o:
                c[(slice(None),) * a + (m - 1 if o > 0 else 0,)] = 0.0
    abar = np.array([np.mean(d) for d in diag])
    # at N=3 every neighbour of the one interior node is on the ring, and
    # strides in base 3 keep its empty diagonals distinct
    base = max(m, 3)
    strides = [sum(o * base**a for a, o in enumerate(reversed(off))) for off in offsets]
    data = coeff.reshape(len(offsets), -1)
    for s, c in zip(strides, data):
        if s > 0:
            c[s:] = c[:-s]
        elif s < 0:
            c[:s] = c[-s:]
    return sp.dia_array((data, strides), shape=(data.shape[1],) * 2), abar


def _sine_inverse(abar: np.ndarray, h: float, m: int) -> Callable:
    """The exact inverse of sum_a abar[a] D_aa on (m,)*n interior nodes with
    zero Dirichlet data, D_aa the (1, -2, 1)/h^2 difference along axis a.
    The DST-I modes are its eigenvectors, with eigenvalues
    sum_a abar[a] lam[j_a], lam[j] = -4/h^2 sin^2(pi (j+1) / (2 (m+1)))."""
    # imported here: scipy.fft at module level adds about 5 MB to every
    # process that imports solver, solving or not
    from scipy.fft import dstn, idstn
    n = abar.size
    lam = -4.0 / h**2 * np.sin(np.pi * np.arange(1, m + 1) / (2 * (m + 1)))**2
    eig = sum(a * lam.reshape((m,) + (1,) * (n - 1 - k)) for k, a in enumerate(abar))

    def solve(v):
        w = dstn(v, type=1)
        w /= eig   # in place, and idstn may reuse w: the values are those of copies
        return idstn(w, type=1, overwrite_x=True)

    return solve


# GMRES restarts after this many iterations and runs at most this many
# cycles per Newton step.
_RESTART = 30
_CYCLES = 4


def _gmres(J, M: Callable, rhs: np.ndarray, rtol: float, basis: np.ndarray):
    """GMRES(``_RESTART``) for J s = rhs, right preconditioned by M (a map of
    arrays shaped like rhs), at most ``_CYCLES`` cycles from s = 0 (Saad-
    Schultz, SISC 1986): the step s, shaped like rhs, and its number of
    iterations.

    It stops once ||rhs - J s||_2 <= rtol ||rhs||_2, read from the
    least-squares residual within a cycle, from the true residual between
    cycles, or at a breakdown.  ``basis``, 2 ``_RESTART`` + 1 rows of
    rhs.size, holds the orthonormal Krylov basis V of J M in its first
    ``_RESTART`` + 1 rows and Z_k = M v_k after them, so each iteration
    applies M once, and a cycle ends with s += Z y, applying none.  J z is
    orthogonalized against V by classical Gram-Schmidt run twice (Giraud-
    Langou-Rozloznik 2005), and Givens rotations keep the least-squares
    problem triangular.  As in scipy's ``gmres``, a breakdown is a w that
    orthogonalization shrinks to at most eps ||J z||, and a zero pivot gets
    a zero coefficient, so a singular J M raises and warns of nothing.
    """
    shape, b = rhs.shape, rhs.ravel()
    V, Z = basis[:_RESTART + 1], basis[_RESTART + 1:]
    restart, eps = min(_RESTART, b.size), np.finfo(float).eps
    target = rtol * float(np.linalg.norm(b))
    s, r, iterations = np.zeros_like(b), b, 0
    for cycle in range(_CYCLES):
        beta = float(np.linalg.norm(r))
        if beta <= target:
            break
        np.multiply(r, 1.0 / beta, out=V[0])
        g, R, rotations = [beta], [], []   # rotated rhs, columns of R, (c, s) pairs
        for k in range(restart):
            Z[k].reshape(shape)[...] = M(V[k].reshape(shape))
            w = J @ Z[k]
            before = float(np.linalg.norm(w))
            h = V[:k + 1] @ w
            w -= h @ V[:k + 1]
            again = V[:k + 1] @ w
            w -= again @ V[:k + 1]
            col, after = (h + again).tolist(), float(np.linalg.norm(w))
            iterations += 1
            breakdown = after <= eps * before
            if not breakdown:
                np.multiply(w, 1.0 / after, out=V[k + 1])
            for i, (c, sn) in enumerate(rotations):
                col[i], col[i + 1] = c * col[i] + sn * col[i + 1], c * col[i + 1] - sn * col[i]
            sub = 0.0 if breakdown else after
            mag = math.hypot(col[k], sub)
            c, sn = (col[k] / mag, sub / mag) if mag else (1.0, 0.0)
            rotations.append((c, sn))
            col[k] = mag
            R.append(col)
            g.append(-sn * g[k])
            g[k] *= c
            if abs(g[k + 1]) <= target or breakdown:
                break
        y = g[:k + 1]   # back-substitution on R's columns
        for i in range(k, -1, -1):
            y[i] = y[i] / R[i][i] if R[i][i] else 0.0
            for j in range(i):
                y[j] -= y[i] * R[i][j]
        s += np.asarray(y) @ Z[:k + 1]
        if abs(g[k + 1]) <= target or breakdown or cycle == _CYCLES - 1:
            break
        r = b - J @ s   # the true residual, formed only to start the next cycle
    return s.reshape(shape), iterations


def solve_newton(inst: ProblemInstance, u0: GridField, tol: float = 1e-10,
                 max_iter: int = 30) -> SolveReport:
    """Damped inexact Newton on the nodewise residual, each step solved by
    GMRES with a sine-transform preconditioner (Newton-Krylov).

    The Dirichlet data is imposed on the boundary ring of the start, and
    the unknowns are the interior nodes only.  So
    ``residual_norm_history[0]`` is the residual sup-norm of the start
    after the boundary is imposed, and every later residual is zero on
    the ring.

    Each iteration linearizes at the iterate (``_jacobian``, a DIA matrix
    J) from the interior Hessians H and values F(H, x) that the iterate's
    residual evaluation computed (the start's, or the accepted trial's),
    then drops them, so no Jacobian evaluates F at H again; the interior
    points are built once per solve, and residuals and Jacobians run in row
    blocks of the interior.  It solves J s = -r by GMRES(``_RESTART``), at most
    ``_CYCLES`` cycles, right preconditioned by M, the exact
    ``_sine_inverse`` of sum_a abar_a D_aa (Knoll-Keyes, JCP 2004): GMRES
    runs on J M, so its tolerance bounds the true residual of the step.
    That tolerance, relative to ||r||_2, is the Eisenstat-Walker forcing
    term min(0.1, 0.9 (||r_k||_2 / ||r_{k-1}||_2)^2) (SISC 1996), 0.1 at
    the first step, and at least 0.25 tol / ||r_k||_inf.  ``_gmres`` keeps
    the preconditioned basis Z = M V, so a step costs one sine-transform
    pair per GMRES iteration, none more, and its basis, allocated once per
    solve, serves every step.
    M, a sine-transform factorization, is rebuilt only when some abar_a
    moves by more than 1e-6 relative, so the steps of a linear problem
    share one.
    The step is halved (at most 20 times) until the residual sup-norm
    decreases; a step that misses its tolerance is still tried.  An abar_a
    that is not finite and positive (F = 0, say) records a ``singular``
    event, as does a step that is not finite; a step that no halving makes
    decrease records ``stalled``.  ``iterations`` counts accepted steps and
    ``krylov_iterations`` the GMRES iterations of every step.
    Deterministic for a fixed instance, starting guess and BLAS thread
    count.  Raises ``ConfigError`` unless ``tol`` is finite and positive
    and ``max_iter >= 1``.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ConfigError(f"tolerance must be finite and positive, got {tol!r}")
    if max_iter < 1:
        raise ConfigError(f"max_iter must be at least 1, got {max_iter!r}")
    _check_on_grid(inst, u0)
    f = inst.source
    core = _interior(f.n, f.N)
    u = inst.boundary.copy()
    u[core] = np.asarray(u0.values, dtype=float)[core]
    damping_events = []
    krylov, it, last_norm2 = 0, 0, None
    M = built = None   # the sine factorization and the abar it was built from
    pts = _interior_points(inst)
    basis = np.empty((2 * _RESTART + 1, (f.N - 2)**f.n))   # GMRES's V and Z = M V

    def resid(vals):
        """The residual of grid values, its sup-norm, and the jets (H, F(H, x))
        a Jacobian at them is built from; GridField refuses a non-finite
        iterate or residual, as ``discrete_residual`` does."""
        r_vals, *jets = _residual_jets(inst, GridField(f.n, f.N, f.L, vals).values, pts)
        r_vals = GridField(f.n, f.N, f.L, r_vals).values
        return r_vals, float(np.max(np.abs(r_vals))), jets

    def first_decrease(step):
        """The first trial u + 2^-k step, k <= 20, whose residual sup-norm
        is below the current one or meets ``tol``, as (trial, its residual,
        its sup-norm, its jets, k); None when there is none or the step is
        not finite."""
        if not np.all(np.isfinite(step)):   # GridField rejects a non-finite trial
            return None
        for k in range(21):
            trial = u + 0.5**k * step
            r_trial, t_norm, jets = resid(trial)
            if t_norm < rnorm or t_norm <= tol:
                return trial, r_trial, t_norm, jets, k
            del jets   # a rejected trial's jets are freed before the next is built
        return None

    r, rnorm, jets = resid(u)
    history = [rnorm]
    while rnorm > tol and it < max_iter:
        it += 1
        J, abar = _jacobian(inst, *jets, pts)
        jets = accepted = None   # H and F(H, x) are not held through GMRES and the line search
        if not np.all(np.isfinite(abar) & (abar > 0)):
            damping_events.append({"iteration": it, "event": "singular"})
            break
        if M is None or not np.allclose(abar, built, rtol=1e-6, atol=0.0):
            # the step is M y, so M shapes only GMRES's iterations; an abar
            # within 1e-6 of the one M was built from changes nothing
            # measurable (a linear F's abar is exact and never moves)
            M, built = _sine_inverse(abar, f.h, f.N - 2), abar
        rhs = -r[core]
        norm2 = float(np.linalg.norm(rhs))
        eta = 0.1 if last_norm2 is None else min(0.1, 0.9 * (norm2 / last_norm2)**2)
        step = np.zeros_like(u)
        step[core], counted = _gmres(J, M, rhs, max(eta, 0.25 * tol / rnorm), basis)
        krylov += counted
        accepted = first_decrease(step)
        if accepted is None:
            event = "stalled" if np.all(np.isfinite(step)) else "singular"
            damping_events.append({"iteration": it, "event": event})
            break
        u, r, rnorm, jets, halving = accepted
        if halving:
            damping_events.append({"iteration": it, "halvings": halving})
        last_norm2 = norm2
        history.append(rnorm)
    # a singular or stalled iteration leaves rnorm above tol
    return SolveReport(GridField(f.n, f.N, f.L, u), history, it, rnorm <= tol, damping_events,
                       krylov)


# -- constant-coefficient tangential solve ----------------------------------


def solve_linear_tangential(A0: SymMatrix, boundary, N: int,
                            source: Optional[GridField] = None) -> GridField:
    """Solve tr(A0 D2u) = f with Dirichlet data on [-1, 1]^n, from a zero
    interior, by ``solve_newton`` to a residual of 1e-10 relative.

    ``boundary`` is a callback on stacked points or a grid-shaped array;
    ``linear_trace`` rejects an A0 that is not positive definite.  The
    residual is relative to the largest of the source, the boundary data
    and 1.  The problem is linear, but each Newton step solves it only to
    its forcing term, so a solve may take a few steps, and every step
    reuses the first step's preconditioner: ``linearize`` gives A0 itself,
    so abar is exact.  For a diagonal A0 that preconditioner is the
    Jacobian's exact inverse, and each step takes one Krylov iteration.
    """
    n, L = A0.n, 1.0
    if callable(boundary):
        boundary = sample_function(boundary, n=n, N=N, L=L).values
    src = source.values if source is not None else np.zeros((N,) * n)
    f = GridField(n, N, L, src)
    inst = ProblemInstance(op=linear_trace(A0), source=f, boundary=boundary)
    zero = GridField(n, N, L, np.zeros((N,) * n))
    scale = max(float(np.max(np.abs(src))), float(np.max(np.abs(inst.boundary))), 1.0)
    report = solve_newton(inst, zero, tol=1e-10 * scale)
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
