"""Dyadic quadratic-approximation audits for grid fields.

At each scale r_k = r0 rho0^k, r0 = min(1, modulus cap, room to the edge), a
quadratic jet is fitted to the field over the ball B_{r_k}(x0) by least
squares, then corrected by a multiple of the identity so the operator
vanishes on its Hessian.  The least-squares fit solves scaled normal
equations with a fit operator built once per ball pattern (grid, centre,
radius): the ball is ``fields.ball_window``'s mask on its index box, and
the Gram matrix, the right-hand side and the sup residual come from
per-axis moments and per-axis columns, with no basis matrix.  One flatness
search shares its operators, and tau and psi at their radii, across all
its audits.  The audit records
residual decay against delta * r^2 tau(r), Hessian increments between
consecutive scales, an empirical second-order seminorm against the
transform psi(t) = tau(t) + int_0^t tau(s)/s ds, a flatness-threshold
search over solution amplitudes, and a decay-exponent fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, DegenerateModulusError, DomainError, NumericsError
from .fields import GridField, Polynomial2D, ball_window, row_blocks
from .moduli import Modulus, psi_transform
from .operators import OperatorSpec, SymMatrix


# -- identity-direction root correction -------------------------------------


_BISECT_MAX = 200   # bisection steps; the 4e-16 bracket test ends it first


def root_correct(op: OperatorSpec, Mbar: SymMatrix, x0=None) -> float:
    """The a with F(Mbar + a Id, x0) = 0, by bisection to
    |F| <= 1e-10 (1 + |F(Mbar, x0)|).

    Uniform ellipticity pins the root inside [-|F|/(n lam), |F|/(n lam)]
    because the increment in the identity direction is squeezed between
    n lam t and n Lam t.  A bracket violation means the operator is not
    elliptic as declared; a non-finite F(Mbar, x0), or a bisection that
    ends off tolerance, raises NumericsError.

    The bisection runs in rounds of one operator call each.  A round
    predicts the rest of the midpoint path from the bracket's regula-falsi
    guess, evaluates F at every predicted midpoint and at the path's end
    as one (k, n, n) stack, and replays the bisection on those values up
    to the first midpoint whose sign the guess got wrong; the next round
    starts from the bracket that midpoint leaves.  Each decision reads F
    at the midpoint a step-by-step bisection would evaluate, so the root
    is the same to the bit, provided F is evaluated elementwise over
    stacked matrices (as ``extension`` callbacks must be).
    """
    F0 = op.evaluate(Mbar, x0)
    if not np.isfinite(F0):
        raise NumericsError(f"F(Mbar, x0) = {F0} is not finite; no identity shift corrects it")
    tol = 1e-10 * (1.0 + abs(F0))
    if abs(F0) <= tol:
        return 0.0
    xs = None if x0 is None else np.asarray(x0, dtype=float)
    eye = np.eye(Mbar.n)

    def F(shifts: list) -> list:
        # Mbar + a Id for each a, stacked: symmetric and finite by construction
        a = np.array(shifts)
        return op.evaluate_batch(Mbar.matrix + a[:, None, None] * eye, xs).tolist()

    # widened a hair: for linear F the exact root sits on the endpoint and
    # round-off could flip its sign there
    half = abs(F0) / (op.n * op.pair.lam) * (1.0 + 1e-9)
    lo, hi = -half, half
    f_lo, f_hi = F([lo, hi])
    if f_lo > tol or f_hi < -tol:
        raise NumericsError(
            "identity-direction bracket failed; operator is not elliptic as declared"
        )
    if f_lo > 0.0:
        return lo
    if f_hi < 0.0:
        return hi
    steps = 0   # midpoints replayed, against _BISECT_MAX
    while True:
        # the path the bisection takes if F changes sign at the guess
        guess = 0.5 * (lo + hi) if f_lo == f_hi else lo - f_lo * (hi - lo) / (f_hi - f_lo)
        path, p_lo, p_hi = [], lo, hi
        while steps + len(path) < _BISECT_MAX and p_hi - p_lo > 4e-16 * half:
            mid = 0.5 * (p_lo + p_hi)
            path.append(mid)
            if mid > guess:
                p_hi = mid
            else:
                p_lo = mid
        a = 0.5 * (p_lo + p_hi)
        vals = F(path + [a])
        # the bisection's own rules, up to the first midpoint the guess got wrong
        for mid, f_mid in zip(path, vals):
            steps += 1
            if f_mid == 0.0:
                return mid
            if f_mid > 0.0:
                hi, f_hi = mid, f_mid
            else:
                lo, f_lo = mid, f_mid
            if (f_mid > 0.0) != (mid > guess):
                break
        else:
            if not abs(vals[-1]) <= tol:
                raise NumericsError("identity-direction bisection did not reach tolerance")
            return a


# -- ball fits ----------------------------------------------------------------


def _moments(mask: np.ndarray, cols, vals: Optional[np.ndarray] = None) -> np.ndarray:
    """sum over the ball's nodes (the bool ``mask`` on its box) of vals, or
    of 1 without vals, times cols[0][i_0, q_0] ... cols[-1][i_{n-1}, q_{n-1}],
    shaped (d,)*n for per-axis columns (len_a, d), n = 2 or 3.

    The box is read one ``fields.row_blocks`` block of 2^16 nodes at a time,
    each block contracted over every axis but the first; the contraction
    over the first axis runs once, on the gathered rows."""
    d = cols[0].shape[1]
    X = np.empty((mask.shape[0],) + (d,) * (mask.ndim - 1))
    for blk in row_blocks(mask.shape):
        W = mask[blk].astype(float) if vals is None else vals[blk] * mask[blk]
        Y = W.reshape(-1, W.shape[-1]) @ cols[-1]
        if W.ndim == 3:
            Y = cols[1].T @ Y.reshape(W.shape[0], W.shape[1], d)
        X[blk] = Y
    return (cols[0].T @ X.reshape(X.shape[0], -1)).reshape((d,) * mask.ndim)


def _on_box(C: np.ndarray, cols) -> np.ndarray:
    """sum over q of C[q] cols[0][i_0, q_0] ... cols[-1][i_{n-1}, q_{n-1}] at
    every box index i, a C-contiguous box-shaped array: the transpose of
    ``_moments``, for a coefficient tensor C of shape (3,)*n."""
    X = cols[0] @ C.reshape(3, -1)
    if len(cols) == 3:
        X = cols[1] @ X.reshape(-1, 3, 3)
    return (X.reshape(-1, 3) @ cols[-1].T).reshape(tuple(len(c) for c in cols))


@dataclass(frozen=True)
class _FitOperator:
    """Quadratic least squares over the nodes of one ball B_r(x0), for any
    field on the grid it was built on.

    The ball is a bool mask on its index box (``fields.ball_window``), and
    every sum over its nodes is a sum over the box contracted axis by axis,
    one ``fields.row_blocks`` block of 2^16 nodes at a time, so no float
    array the size of the box is formed.
    The basis is 1, s_i, s_i^2 / 2, s_i s_j (i < j) in the scaled
    displacements s = (x - x0) / unit, where unit is the largest coordinate
    displacement of a ball node, so every entry lies in [-1, 1] and the Gram
    matrix G = A^T A of the basis A at the ball's nodes stays well
    conditioned at every radius.  A is never formed: each basis column is
    fac times a monomial prod_a s_a^(p_a), p_a <= 2, so G is read off the
    mask's moments up to degree 4 per axis, and A^T vals off the 3^n moments
    of vals on the ball with the per-axis columns ``cols`` = [1, s, s^2].  A jet's
    scaled coefficient vector theta holds c, unit b, and unit^2 times M's
    diagonal and upper entries.  ``eig`` holds G's eigenvalues w and
    eigenvectors V (``np.linalg.eigh``).  The methods take the field's values
    on the box, ``u.values[box]``.
    """

    r: float
    n: int
    box: tuple            # one index slice per axis, from fields.ball_window
    mask: np.ndarray      # bool, the box's shape: True at the ball's nodes
    cols: tuple           # per axis, (len_a, 3): 1, s, s^2
    unit: float
    eig: tuple
    upper: tuple          # np.triu_indices(n, 1): the order of the basis' cross columns
    pos: np.ndarray       # each basis column's flat index into the 3^n moment tensor
    fac: np.ndarray       # 1 for every basis column but the s_i^2 / 2, 1/2 there

    def jet(self, vals: np.ndarray) -> Polynomial2D:
        """The least-squares jet, from the normal equations G theta = A^T vals,
        which a ball inside the square keeps well conditioned, solved as
        theta = V (V^T A^T vals) / w with the eigenpairs of G."""
        n = self.n
        w, V = self.eig
        rhs = self.fac * _moments(self.mask, self.cols, vals).ravel()[self.pos]
        theta = V @ ((V.T @ rhs) / w)
        q = theta[1 + n :] / self.unit**2
        M = np.diag(q[:n])
        M[self.upper] = M[self.upper[::-1]] = q[n:]
        return Polynomial2D(float(theta[0]), theta[1 : 1 + n] / self.unit, SymMatrix(n, M))

    def constrained_jet(self, vals: np.ndarray, op: OperatorSpec, x0) -> Polynomial2D:
        """The least-squares jet, then M <- M + a Id with a = root_correct.
        An operator whose dimension differs from the grid's raises ConfigError."""
        if op.n != self.n:
            raise ConfigError(f"a {op.n}-D operator cannot audit a {self.n}-D field")
        jet = self.jet(vals)
        return Polynomial2D(jet.c, jet.b, jet.M.add_identity(root_correct(op, jet.M, x0)))

    def sup_residual(self, vals: np.ndarray, jet: Polynomial2D) -> float:
        """sup |u - P| over the ball nodes: the jet evaluated on the box,
        subtracted from vals, masked by the bool mask, and maximized, one
        ``fields.row_blocks`` block of 2^16 nodes at a time."""
        M = jet.M.matrix
        quad = np.concatenate((np.diag(M), M[self.upper]))
        theta = np.concatenate(([jet.c], self.unit * jet.b, self.unit**2 * quad))
        C = np.zeros(3**self.n)
        C[self.pos] = self.fac * theta
        sup = 0.0
        for blk in row_blocks(self.mask.shape):
            res = _on_box(C, (self.cols[0][blk],) + self.cols[1:])
            np.subtract(vals[blk], res, out=res)
            np.abs(res, out=res)
            res *= self.mask[blk]
            sup = np.maximum(sup, res.max())   # NaN propagates, as in one max
        return float(sup)


def _fit_operator(r: float, window, h: float) -> _FitOperator:
    """The fit operator of a ball of radius r on a grid of spacing h, from
    its ``fields.ball_window`` (box, axes, mask), after the guards every fit
    must pass (``ball_window`` refuses the rest).

    A radius below 3h or fewer than 15 nodes raise DomainError.  A Gram
    matrix whose smallest eigenvalue is at most m eps times its largest
    (lstsq's relative rank test max(m, p) eps for m nodes, p < m
    coefficients, applied to G, whose rounding floor is eps |G|) raises
    NumericsError.
    """
    box, axes, mask = window
    if r < 3.0 * h:
        raise DomainError("fit radius below 3h is not resolvable")
    m = int(np.count_nonzero(mask))
    if m < 15:   # more nodes than the 6 or 10 coefficients of a 2-D or 3-D jet
        raise DomainError(f"only {m} nodes in the fit ball; need >= 15")
    n = len(axes)
    unit = 0.0   # the largest coordinate displacement of a ball node
    for a, t in enumerate(axes):
        held = mask.any(axis=tuple(b for b in range(n) if b != a))   # positions with a node
        unit = max(unit, float(np.max(np.abs(t[held]))))
    powers = [(t / unit)[:, None] ** np.arange(5) for t in axes]   # 1, s, .., s^4
    e = np.eye(n, dtype=int)
    upper = np.triu_indices(n, 1)
    p = np.concatenate([np.zeros((1, n), dtype=int), e, 2 * e, e[upper[0]] + e[upper[1]]])
    fac = np.concatenate([np.ones(1 + n), np.full(n, 0.5), np.ones(len(upper[0]))])
    # G[i, j] = fac_i fac_j sum over the ball of s^(p_i + p_j)
    pair = np.ravel_multi_index(tuple(np.moveaxis(p[:, None] + p[None], -1, 0)), (5,) * n)
    G = np.outer(fac, fac) * _moments(mask, powers).ravel()[pair]
    w, V = np.linalg.eigh(G)   # one decomposition guards the rank and solves
    if w[0] <= m * np.finfo(float).eps * w[-1]:
        raise NumericsError("rank-deficient quadratic fit (degenerate node set)")
    cols = tuple(np.ascontiguousarray(c[:, :3]) for c in powers)
    return _FitOperator(r, n, box, mask, cols, unit, (w, V), upper,
                        np.ravel_multi_index(tuple(p.T), (3,) * n), fac)


def sup_residual(u: GridField, jet: Polynomial2D, x0_idx, r: float) -> float:
    """sup |u - P| over the nodes of B_r(x0), a ball a fit would accept."""
    fop = _fit_operator(r, ball_window(u, x0_idx, r), u.h)
    return fop.sup_residual(u.values[fop.box], jet)


def constrained_quadratic_fit(u: GridField, op: OperatorSpec, rho: float,
                              x0_idx) -> Polynomial2D:
    """Least-squares quadratic jet over B_rho(x0), then M <- M + a Id with
    a = root_correct, so the operator vanishes on the fitted Hessian.

    The least-squares fit solves the normal equations of the scaled basis
    with the eigendecomposition of their matrix (see ``_FitOperator``) over
    B_rho(x0), which must lie inside the square; a flatness search builds
    each ball's operator once.
    Least squares replaces sup-norm fitting; the sup residual is still
    measured exactly afterwards, so audits stay sound.
    """
    fop = _fit_operator(rho, ball_window(u, x0_idx, rho), u.h)
    return fop.constrained_jet(u.values[fop.box], op, u.node_coords(x0_idx))


# -- the dyadic audit ---------------------------------------------------------


@dataclass(frozen=True)
class ScaleRecord:
    k: int
    radius: float
    jet: Polynomial2D
    sup_residual: float
    normalized_ratio: float
    hessian_increment: Optional[float]   # None at k = 0
    increment_ratio: Optional[float]

    def row(self) -> dict:
        return {
            "k": self.k,
            "r": self.radius,
            "sup_residual": self.sup_residual,
            "normalized_ratio": self.normalized_ratio,
            "increment_ratio": self.increment_ratio,
        }


@dataclass(frozen=True)
class DecayAudit:
    rho0: float
    delta: float
    mod: Modulus
    records: list
    K_max: int
    truncated: bool
    fitted_C0: float            # reported under both fitted_C0 and fitted_psi_seminorm
    cauchy_ok: bool
    x0_idx: tuple               # the audited centre; not part of describe()

    def ratios(self) -> list:
        return [rec.normalized_ratio for rec in self.records]

    def table(self) -> list:
        return [rec.row() for rec in self.records]

    def describe(self) -> dict:
        return {
            "rho0": self.rho0,
            "delta": self.delta,
            "modulus": self.mod.describe(),
            "K_max": self.K_max,
            "truncated": bool(self.truncated),
            "fitted_C0": self.fitted_C0,
            "fitted_psi_seminorm": self.fitted_C0,
            "cauchy_ok": bool(self.cauchy_ok),
            "records": self.table(),
        }


@dataclass(frozen=True)
class _Ladder:
    """What an audit needs besides the field values: a fit operator, tau
    and psi at each resolvable radius r0 rho0^k, for one grid and centre."""

    rho0: float
    mod: Modulus
    x0_idx: tuple
    fits: list
    taus: list
    psis: list
    truncated: bool


def _ladder(u: GridField, mod: Modulus, rho0: float, K: int, x0_idx) -> _Ladder:
    if not 0.0 < rho0 <= 0.5:
        raise ConfigError("rho0 must lie in (0, 1/2]")
    if K < 0:
        raise ConfigError(f"K must be nonnegative, got {K}")
    # the slack keeps r0 = 1 at an origin that sits 1 ulp off 0
    r0 = min(1.0, mod.domain_cap)
    room = u.L - float(np.max(np.abs(u.node_coords(x0_idx))))
    if room < r0 - 1e-12:
        r0 = room
    fits = []
    for k in range(K + 1):
        r = r0 * rho0**k
        try:
            fits.append(_fit_operator(r, ball_window(u, x0_idx, r), u.h))
        except DomainError:
            break
    if not fits:
        raise DomainError("no scale was resolvable on this grid")
    taus = [mod.evaluate(f.r) for f in fits]
    if min(taus) <= 0.0:   # tau and psi >= tau divide every ratio
        raise DegenerateModulusError(f"modulus vanishes at audited radius r={fits[-1].r}")
    return _Ladder(rho0, mod, x0_idx, fits, taus, [psi_transform(mod, f.r) for f in fits],
                   len(fits) <= K)


def decay_audit(u: GridField, op: OperatorSpec, mod: Modulus, rho0: float = 0.5,
                K: int = 4, delta: float = 1.0, x0_idx=None) -> DecayAudit:
    """Fit corrected jets at radii r0 rho0^k, k = 0..K, and measure decay.

    The ladder starts at r0 = min(1, mod.domain_cap, room to the edge), so
    log-type moduli, defined only on (0, cap], are audited from their cap
    down, and every ball lies inside the square.
    normalized_ratio is sup_{B_r}|u - P_k| / (delta r^2 tau(r)), and the
    Hessian increment to scale k is normalized by delta tau(r_{k-1}).  The
    audit truncates with a flag (not an error) once a ball has too few
    nodes to fit.  Each scale is fitted independently; its fit operator
    is built once and serves the fit and both sup residuals.  A negative K
    raises ConfigError, and a modulus that vanishes at an audited radius
    DegenerateModulusError.
    """
    x0_idx = u.origin_index() if x0_idx is None else tuple(int(i) for i in x0_idx)
    return _audit(u, op, delta, _ladder(u, mod, rho0, K, x0_idx))


def _audit(u: GridField, op: OperatorSpec, delta: float, lad: _Ladder) -> DecayAudit:
    """decay_audit of u on a prepared ladder, which may be shared."""
    if not delta > 0.0:   # refuses NaN too, whose ratios no gate could judge
        raise ConfigError("delta must be positive")
    x0 = u.node_coords(lad.x0_idx)
    records = []
    for k, (fop, tau) in enumerate(zip(lad.fits, lad.taus)):
        v = u.values[fop.box]
        jet = fop.constrained_jet(v, op, x0)
        sup = fop.sup_residual(v, jet)
        ratio = sup / (delta * fop.r**2 * tau)
        if not records:
            inc = inc_ratio = None
        else:
            inc = float(np.linalg.norm(jet.M.matrix - records[-1].jet.M.matrix))
            inc_ratio = inc / (delta * lad.taus[k - 1])
        records.append(ScaleRecord(k, fop.r, jet, sup, ratio, inc, inc_ratio))
    C0, cauchy = _final_jet_decay(u, records, lad)
    return DecayAudit(lad.rho0, delta, lad.mod, records, len(records) - 1, lad.truncated,
                      C0, cauchy, lad.x0_idx)


def _final_jet_decay(u: GridField, records, lad: _Ladder):
    """Residual decay of the last jet against r^2 psi(r) over each record's
    ball, plus the Cauchy check that Hessian increments shrink like tau at
    the audited scales (see ``c2psi_seminorm``).  ``lad``'s scales run along
    ``records``."""
    last = records[-1].jet
    worst = 0.0
    for rec, ball, psi in zip(records, lad.fits, lad.psis):
        worst = max(worst, ball.sup_residual(u.values[ball.box], last) / (rec.radius**2 * psi))
    incs = [rec.hessian_increment for rec in records[1:]]
    ratios = [rec.increment_ratio for rec in records[1:]]
    cauchy = len(incs) < 2 or max(incs) <= 1e-12 or max(ratios) <= 4.0 * ratios[0]
    return worst, cauchy


def c2psi_seminorm(u: GridField, audit: DecayAudit):
    """Max over audited radii of sup_{B_r}|u - P_final| / (r^2 psi(r)).

    Returns (value, cauchy_ok).  cauchy_ok is False when an increment ratio
    |D2P_k - D2P_{k-1}| / (delta tau(r_{k-1})) exceeds 4 times the first, so
    the increments do not shrink like tau and the limit jet is untrustworthy
    against this modulus; fewer than 2 increments, or all <= 1e-12, pass.
    So cauchy_ok cannot see a defect that scaling leaves unchanged: every
    ball's jet of a field homogeneous of degree 2, C^{1,1} but not C^2
    (r^2 cos 4 theta), is the same quadratic, its increments are round-off
    (about 1e-16), and it passes while its ratios and value grow.
    """
    if audit.K_max < 3:
        raise ConfigError("seminorm needs an audit of depth K >= 3")
    lad = _ladder(u, audit.mod, audit.rho0, audit.K_max, audit.x0_idx)
    if lad.truncated:
        raise ConfigError("the audit's scales do not all resolve on this field")
    return _final_jet_decay(u, audit.records, lad)


# -- scale equivariance --------------------------------------------------------


def rescale_field(u: GridField, audit: DecayAudit, k: int = 1) -> GridField:
    """The renormalized field v(x) = (u - P_k)(rho0^k x) / (rho0^{2k} tau(rho0^k)).

    Built by exact subgrid restriction: the v-grid nodes coincide with
    u-grid nodes, so auditing v reproduces the u audit shifted by k
    indices (exactly for power moduli, which satisfy
    tau(a) tau(b) = tau(ab)).  Requires rho0 = 1/2, k = 1, audits at the
    origin whose ladder starts at r = 1, and N = 1 mod 4.
    """
    if audit.rho0 != 0.5 or k != 1:
        raise ConfigError("exact rescaling is implemented for rho0 = 1/2, k = 1")
    if audit.records[0].radius != 1.0:
        raise ConfigError("exact rescaling needs an audit ladder starting at r = 1")
    if (u.N - 1) % 4 != 0:
        raise ConfigError("exact rescaling needs N = 1 (mod 4)")
    if audit.x0_idx != u.origin_index():
        raise ConfigError("exact rescaling needs an audit at the origin")
    if len(audit.records) <= k:
        raise ConfigError("audit too shallow to rescale")
    jet = audit.records[k].jet
    rho = audit.rho0
    scale = rho ** (2 * k) * audit.mod.evaluate(rho**k)
    quarter = (u.N - 1) // 4
    Np = (u.N - 1) // 2 + 1
    sub = (slice(quarter, u.N - quarter),) * u.n
    c = u.axis_coords()[sub[0]]
    pts = np.stack(np.meshgrid(*([c] * u.n), indexing="ij"), axis=-1)
    vals = (u.values[sub] - jet(pts)) / scale
    return GridField(u.n, Np, u.L, vals)


# -- flatness threshold ---------------------------------------------------------


@dataclass(frozen=True)
class FlatnessSearch:
    delta_star: Optional[float]
    table: list          # rows {delta, passed, worst_ratio}
    refinements: int

    @property
    def monotone(self) -> bool:
        """False when some amplitude passes above one that fails."""
        passed = [row["passed"] for row in sorted(self.table, key=lambda r: r["delta"])]
        return passed == sorted(passed, reverse=True)

    def describe(self) -> dict:
        return {
            "delta_star": self.delta_star,
            "monotone": self.monotone,
            "refinements": self.refinements,
            "table": list(self.table),
        }


def flatness_threshold_search(field_family: Callable[[float], GridField],
                              op: OperatorSpec, mod: Modulus,
                              deltas: Sequence[float],
                              rho0: float = 0.5, K: int = 4,
                              refine_steps: int = 8) -> FlatnessSearch:
    """Largest amplitude delta at which normalized ratios stay <= 1.

    ``field_family(delta)`` must return the exact-solution field with sup
    norm delta.  After sweeping the sampled amplitudes, the bracket
    between the first fail and the last pass below it is bisected
    ``refine_steps`` times (a negative count raises ConfigError); with no
    pass below the first fail, delta_star is None.  Every probe is the
    origin ``decay_audit`` of its field, and probes on one grid share the
    ladder's fit operators, tau and psi.  An empirical analogue of a
    smallness threshold, not a proof constant.
    """
    deltas = sorted(float(d) for d in deltas)
    if not deltas:
        raise ConfigError("need at least one amplitude")
    if refine_steps < 0:
        raise ConfigError(f"refine_steps must be nonnegative, got {refine_steps}")
    ladders = {}   # one per grid: the family's fields differ only in their values
    table = []

    def probe(delta: float) -> bool:
        """Audit the family at delta, append its row, and return whether it passed."""
        field = field_family(delta)
        grid = (field.n, field.N, field.L)
        if grid not in ladders:
            ladders[grid] = _ladder(field, mod, rho0, K, field.origin_index())
        worst = max(_audit(field, op, delta, ladders[grid]).ratios())
        passed = bool(worst <= 1.0)
        table.append({"delta": delta, "passed": passed, "worst_ratio": worst})
        return passed

    for d in deltas:
        probe(d)

    hi = min((row["delta"] for row in table if not row["passed"]), default=None)
    passes = [row["delta"] for row in table
              if row["passed"] and (hi is None or row["delta"] < hi)]
    lo = max(passes, default=None)
    refinements = 0 if lo is None or hi is None else refine_steps
    for _ in range(refinements):
        mid = 0.5 * (lo + hi)
        if probe(mid):
            lo = mid
        else:
            hi = mid
    return FlatnessSearch(lo, sorted(table, key=lambda r: r["delta"]), refinements)


# -- decay exponent --------------------------------------------------------------


@dataclass(frozen=True)
class ExponentFit:
    alpha_hat: Optional[float]
    r2: Optional[float]
    defined: bool
    scales_used: int

    def describe(self) -> dict:
        return {
            "alpha_hat": self.alpha_hat,
            "r2": self.r2,
            "defined": bool(self.defined),
            "scales_used": self.scales_used,
        }


_RESIDUAL_FLOOR = 1e-13   # sup residuals at or below this are round-off


def fit_decay_exponent(audit: DecayAudit) -> ExponentFit:
    """Least-squares slope of log(sup_residual / r^2) against log r.

    Flagged undefined on perfect quadratics (all residuals at round-off).
    """
    pts = [(rec.radius, rec.sup_residual) for rec in audit.records
           if rec.sup_residual > _RESIDUAL_FLOOR]
    if len(pts) < 4:
        return ExponentFit(None, None, False, len(pts))
    x = np.log([r for r, _ in pts])
    y = np.log([s / r**2 for r, s in pts])
    slope, intercept = np.polyfit(x, y, 1)
    fit = slope * x + intercept
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return ExponentFit(float(slope), r2, True, len(pts))
