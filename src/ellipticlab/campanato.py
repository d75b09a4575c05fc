"""Dyadic quadratic-approximation audits for grid fields.

At each scale r_k = rho0^k a quadratic jet is fitted to the field over
the ball B_{r_k}(x0) by least squares, then corrected by a multiple of
the identity so the operator vanishes on its Hessian.  The audit records
residual decay against delta * r^2 tau(r), Hessian increments between
consecutive scales, an empirical second-order seminorm against the
transform psi(t) = tau(t) + int_0^t tau(s)/s ds, a flatness-threshold
search over solution amplitudes, and a decay-exponent fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, DomainError, NumericsError
from .fields import GridField, Polynomial2D, ball_nodes
from .moduli import Modulus, psi_transform
from .operators import OperatorSpec, SymMatrix


@dataclass(frozen=True)
class QuadraticJet(Polynomial2D):
    """P(x) = c + b.(x - x0) + (x - x0)^T M (x - x0) / 2, centered at x0."""

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        if b.shape != (self.M.n,):
            raise ConfigError("jet gradient length must match the matrix dimension")
        if not (np.isfinite(self.c) and np.all(np.isfinite(b))):
            raise DomainError("jet entries must be finite")
        object.__setattr__(self, "b", b)

    def evaluate(self, d: np.ndarray) -> np.ndarray:
        """Evaluate on displacements d = x - x0, stacked (..., n)."""
        return self(d)

    def shift_identity(self, a: float) -> "QuadraticJet":
        return QuadraticJet(self.c, self.b, self.M.add_identity(a))

    def describe(self) -> dict:
        return {
            "c": float(self.c),
            "b": [float(v) for v in self.b],
            "M": self.M.matrix.tolist(),
        }


# -- identity-direction root correction -------------------------------------


def root_correct(op: OperatorSpec, Mbar: SymMatrix, x0=None,
                 tol: Optional[float] = None, max_iter: int = 200) -> float:
    """The a with F(Mbar + a Id, x0) = 0, by bisection.

    Uniform ellipticity pins the root inside [-|F|/(n lam), |F|/(n lam)]
    because the increment in the identity direction is squeezed between
    n lam t and n Lam t.  A bracket violation means the operator is not
    elliptic as declared.
    """
    F0 = op.evaluate(Mbar, x0)
    if tol is None:
        tol = 1e-10 * (1.0 + abs(F0))
    if abs(F0) <= tol:
        return 0.0
    # widened a hair: for linear F the exact root sits on the endpoint and
    # round-off could flip its sign there
    half = abs(F0) / (op.n * op.pair.lam) * (1.0 + 1e-9)
    lo, hi = -half, half
    f_lo = op.evaluate(Mbar.add_identity(lo), x0)
    f_hi = op.evaluate(Mbar.add_identity(hi), x0)
    if f_lo > tol or f_hi < -tol:
        raise NumericsError(
            "identity-direction bracket failed; operator is not elliptic as declared"
        )
    if f_lo > 0.0:
        return lo
    if f_hi < 0.0:
        return hi
    for _ in range(max_iter):
        if hi - lo <= 4e-16 * half:
            break
        mid = 0.5 * (lo + hi)
        f_mid = op.evaluate(Mbar.add_identity(mid), x0)
        if f_mid == 0.0:
            return mid
        if f_mid > 0.0:
            hi = mid
        else:
            lo = mid
    a = 0.5 * (lo + hi)
    if abs(op.evaluate(Mbar.add_identity(a), x0)) > tol:
        raise NumericsError("identity-direction bisection did not reach tolerance")
    return a


# -- ball fits ----------------------------------------------------------------


def sup_residual(u: GridField, jet: QuadraticJet, x0_idx, r: float) -> float:
    d, vals = ball_nodes(u, x0_idx, r)
    if len(vals) == 0:
        raise DomainError("ball contains no grid nodes")
    return float(np.max(np.abs(vals - jet.evaluate(d))))


def _quadratic_basis(d: np.ndarray) -> np.ndarray:
    n = d.shape[-1]
    cols = [np.ones(len(d))]
    cols += [d[:, i] for i in range(n)]
    cols += [0.5 * d[:, i] ** 2 for i in range(n)]
    cols += [d[:, i] * d[:, j] for i in range(n) for j in range(i + 1, n)]
    return np.stack(cols, axis=1)


def constrained_quadratic_fit(u: GridField, op: OperatorSpec, rho: float,
                              x0_idx) -> QuadraticJet:
    """Least-squares quadratic jet over B_rho(x0), then M <- M + a Id with
    a = root_correct, so the operator vanishes on the fitted Hessian.

    Least squares replaces sup-norm fitting; the sup residual is still
    measured exactly afterwards, so audits stay sound.
    """
    if rho < 3.0 * u.h:
        raise DomainError("fit radius below 3h is not resolvable")
    d, vals = ball_nodes(u, x0_idx, rho)
    n = u.n
    n_basis = 1 + n + n * (n + 1) // 2
    if len(vals) < max(15, n_basis):
        raise DomainError(f"only {len(vals)} nodes in the fit ball; need >= 15")
    A = _quadratic_basis(d)
    coef, _, rank, _ = np.linalg.lstsq(A, vals, rcond=None)
    if rank < n_basis:
        raise NumericsError("rank-deficient quadratic fit (degenerate node set)")
    c = float(coef[0])
    b = coef[1 : 1 + n]
    M = np.diag(coef[1 + n : 1 + 2 * n])
    upper = np.triu_indices(n, 1)   # the order of the basis' cross columns
    M[upper] = M[upper[::-1]] = coef[1 + 2 * n :]
    jet = QuadraticJet(c, b, SymMatrix(n, M))
    x0 = u.node_coords(x0_idx)
    a = root_correct(op, jet.M, x0)
    return jet.shift_identity(a)


# -- the dyadic audit ---------------------------------------------------------


@dataclass(frozen=True)
class ScaleRecord:
    k: int
    radius: float
    jet: QuadraticJet
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
    fitted_C0: float
    fitted_psi_seminorm: float  # the same fit as fitted_C0; reports carry both keys
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
            "fitted_psi_seminorm": self.fitted_psi_seminorm,
            "cauchy_ok": bool(self.cauchy_ok),
            "records": self.table(),
        }


def decay_audit(u: GridField, op: OperatorSpec, mod: Modulus, rho0: float = 0.5,
                K: int = 4, delta: float = 1.0, x0_idx=None) -> DecayAudit:
    """Fit corrected jets at radii rho0^k, k = 0..K, and measure decay.

    normalized_ratio is sup_{B_r}|u - P_k| / (delta r^2 tau(r)); the
    audit truncates with a flag (not an error) once a ball has too few
    nodes to fit.  Each scale is fitted independently.
    """
    if not 0.0 < rho0 <= 0.5:
        raise ConfigError("rho0 must lie in (0, 1/2]")
    if delta <= 0.0:
        raise ConfigError("delta must be positive")
    x0_idx = u.origin_index() if x0_idx is None else tuple(int(i) for i in x0_idx)
    records = []
    truncated = False
    prev_M = None
    for k in range(K + 1):
        r = rho0**k
        try:
            jet = constrained_quadratic_fit(u, op, r, x0_idx)
        except DomainError:
            truncated = True
            break
        sup = sup_residual(u, jet, x0_idx, r)
        tau = mod.evaluate(r)
        ratio = sup / (delta * r**2 * tau)
        if prev_M is None:
            inc = inc_ratio = None
        else:
            inc = float(np.linalg.norm(jet.M.matrix - prev_M))
            inc_ratio = inc / (delta * mod.evaluate(rho0 ** (k - 1)))
        records.append(ScaleRecord(k, r, jet, sup, ratio, inc, inc_ratio))
        prev_M = jet.M.matrix
    if not records:
        raise DomainError("no scale was resolvable on this grid")
    C0, cauchy = _final_jet_decay(u, mod, records, x0_idx)
    return DecayAudit(rho0, delta, mod, records, len(records) - 1, truncated,
                      C0, C0, cauchy, x0_idx)


def _final_jet_decay(u: GridField, mod: Modulus, records, x0_idx):
    """Residual decay of the last jet against r^2 psi(r), plus the Cauchy
    check that Hessian increments shrink like tau at the audited scales."""
    last = records[-1].jet
    worst = 0.0
    for rec in records:
        sup = sup_residual(u, last, x0_idx, rec.radius)
        psi = psi_transform(mod, rec.radius)
        worst = max(worst, sup / (rec.radius**2 * psi))
    incs = [rec.hessian_increment for rec in records if rec.hessian_increment is not None]
    taus = [mod.evaluate(records[k].radius) for k in range(len(records) - 1)]
    scale = max([abs(v) for v in incs], default=0.0)
    if len(incs) >= 2 and scale > 1e-12:
        bound = max(i / t for i, t in zip(incs, taus))
        cauchy = all(i <= 4.0 * bound * t for i, t in zip(incs, taus))
    else:
        cauchy = True
    return worst, cauchy


def c2psi_seminorm(u: GridField, audit: DecayAudit, mod: Optional[Modulus] = None):
    """Max over audited radii of sup_{B_r}|u - P_final| / (r^2 psi(r)).

    Returns (value, cauchy_ok); cauchy_ok is False when the Hessian
    increments fail to shrink with tau at the audited scales, meaning
    the limit jet is untrustworthy against this modulus.
    """
    if audit.K_max < 3:
        raise ConfigError("seminorm needs an audit of depth K >= 3")
    if mod is None:
        mod = audit.mod
    return _final_jet_decay(u, mod, audit.records, audit.x0_idx)


# -- scale equivariance --------------------------------------------------------


def rescale_field(u: GridField, audit: DecayAudit, k: int = 1) -> GridField:
    """The renormalized field v(x) = (u - P_k)(rho0^k x) / (rho0^{2k} tau(rho0^k)).

    Built by exact subgrid restriction: the v-grid nodes coincide with
    u-grid nodes, so auditing v reproduces the u audit shifted by k
    indices (exactly for power moduli, which satisfy
    tau(a) tau(b) = tau(ab)).  Requires rho0 = 1/2, k = 1, audits at the
    origin, and N = 1 mod 4.
    """
    if audit.rho0 != 0.5 or k != 1:
        raise ConfigError("exact rescaling is implemented for rho0 = 1/2, k = 1")
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
    pts = np.stack(u.meshgrid(), axis=-1)[sub]
    vals = (u.values[sub] - jet.evaluate(pts)) / scale
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
    between the first fail and the last pass below it is bisected; with
    no pass below the first fail, delta_star is None.  An empirical
    analogue of a smallness threshold, not a proof constant.
    """
    deltas = sorted(float(d) for d in deltas)
    if not deltas:
        raise ConfigError("need at least one amplitude")

    def probe(delta: float):
        field = field_family(delta)
        audit = decay_audit(field, op, mod, rho0=rho0, K=K, delta=delta)
        worst = max(audit.ratios())
        return worst <= 1.0, worst

    table = []
    for d in deltas:
        ok, worst = probe(d)
        table.append({"delta": d, "passed": bool(ok), "worst_ratio": worst})

    hi = min((row["delta"] for row in table if not row["passed"]), default=None)
    passes = [row["delta"] for row in table
              if row["passed"] and (hi is None or row["delta"] < hi)]
    if not passes:
        return FlatnessSearch(None, table, 0)
    lo = max(passes)
    if hi is None:
        return FlatnessSearch(lo, table, 0)
    steps = 0
    for _ in range(refine_steps):
        mid = 0.5 * (lo + hi)
        ok, worst = probe(mid)
        table.append({"delta": mid, "passed": bool(ok), "worst_ratio": worst})
        steps += 1
        if ok:
            lo = mid
        else:
            hi = mid
    return FlatnessSearch(lo, sorted(table, key=lambda r: r["delta"]), steps)


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


def fit_decay_exponent(audit: DecayAudit, floor: float = 1e-13) -> ExponentFit:
    """Least-squares slope of log(sup_residual / r^2) against log r.

    Flagged undefined on perfect quadratics (all residuals at round-off).
    """
    pts = [(rec.radius, rec.sup_residual) for rec in audit.records
           if rec.sup_residual > floor]
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
