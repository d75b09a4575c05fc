"""Modulus-of-continuity algebra.

Evaluation of the built-in modulus families, singular Dini integrals,
the psi-transform, and finite certification of the structural conditions
used by the decay audits (nullity conditions, the limiting-compatibility
ratio, and Hölder comparisons).

All suprema and limits are evaluated on explicit finite geometric grids;
certificates carry the raw profiles so a reader can re-judge them.  The
built-in families additionally carry analytic override flags with the
known asymptotic verdicts, so an inconclusive finite sample never
silently contradicts analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DivergentIntegralError,
    DomainError,
)

LN2 = math.log(2.0)

_FAMILIES = ("power", "power_log", "power_ln_z", "inverse_log", "table")


@dataclass(frozen=True)
class Modulus:
    """A named, evaluable modulus of continuity on (0, domain_cap].

    ``params`` holds the family parameters by name.  Evaluation returns
    exactly 0 at r = 0 and raises :class:`DomainError` outside
    [0, domain_cap].  For the log-bearing families the cap is kept small
    enough that the modulus is nondecreasing on its whole domain.
    """

    family: str
    params: dict
    domain_cap: float
    # table family only: interpolation knots
    table_r: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    table_tau: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ConfigError(f"unknown modulus family {self.family!r}")
        if not 0.0 < self.domain_cap <= 1.0:
            raise ConfigError("domain_cap must lie in (0, 1]")

    # -- evaluation ------------------------------------------------------

    def eval_neglog(self, t):
        """Evaluate tau(e^{-t}) for t >= -log(domain_cap).

        This is the underflow-safe primitive: every family has a closed
        form in t, so radii far below the float range of e^{-t} are fine.
        """
        t = np.asarray(t, dtype=float)
        p = self.params
        if self.family == "power":
            return np.exp(-p["alpha"] * t)
        if self.family == "power_log":
            return np.exp(-p["alpha"] * t) / t ** p["beta"]
        if self.family == "power_ln_z":
            return np.exp(-p["kappa"] * t) * t ** p["zeta"]
        if self.family == "inverse_log":
            return t ** (-p["gamma"])
        # table: fall back to direct interpolation (bounded radii only)
        r = np.exp(-t)
        return self._interp_table(r)

    def log_eval_neglog(self, t):
        """log tau(e^{-t}); ratio-safe far past the underflow range of tau."""
        t = np.asarray(t, dtype=float)
        p = self.params
        if self.family == "power":
            return -p["alpha"] * t
        if self.family == "power_log":
            return -p["alpha"] * t - p["beta"] * np.log(t)
        if self.family == "power_ln_z":
            return -p["kappa"] * t + p["zeta"] * np.log(t)
        if self.family == "inverse_log":
            return -p["gamma"] * np.log(t)
        # table: tau is linear below the first knot, where e^{-t} and tau
        # underflow long before their logarithms do
        r0, tau0 = self.table_r[0], self.table_tau[0]
        with np.errstate(divide="ignore"):
            knots = np.log(self._interp_table(np.exp(-t)))
            return np.where(t > -np.log(r0), np.log(tau0 / r0) - t, knots)

    def _interp_table(self, r):
        rs, taus = self.table_r, self.table_tau
        out = np.interp(r, rs, taus)
        # linear extension through tau(0) = 0 below the first knot
        below = r < rs[0]
        if np.any(below):
            out = np.where(below, taus[0] * r / rs[0], out)
        return out

    def evaluate(self, r):
        """Return tau(r) for r in [0, domain_cap]."""
        r_arr = np.asarray(r, dtype=float)
        if np.any(r_arr < 0) or np.any(r_arr > self.domain_cap * (1 + 1e-12)):
            raise DomainError(
                f"modulus argument outside [0, {self.domain_cap}]: {r!r}"
            )
        pos = r_arr > 0
        t_fill = -math.log(self.domain_cap) + 1.0
        t = np.where(pos, -np.log(np.where(pos, r_arr, 1.0)), t_fill)
        out = np.where(pos, self.eval_neglog(t), 0.0)
        if np.isscalar(r) or r_arr.ndim == 0:
            return float(out)
        return out

    def __call__(self, r):
        return self.evaluate(r)

    # -- analytic knowledge ---------------------------------------------

    def a4_override(self, alpha0: float) -> Optional[tuple]:
        """Known asymptotic nullity-condition verdicts, or None for table moduli."""
        p = self.params
        if self.family == "power":
            a = p["alpha"]
            return ("pass", "pass" if a < alpha0 else "fail")
        if self.family == "power_log":
            return ("pass", "pass" if p["alpha"] < alpha0 else "fail")
        if self.family == "power_ln_z":
            return ("pass", "pass" if p["kappa"] < alpha0 else "fail")
        if self.family == "inverse_log":
            # ratio tau(rs)/tau(r) tends to 1 as r -> 0 for every fixed s
            return ("fail", "pass")
        return None

    def describe(self) -> dict:
        d = {"family": self.family, "domain_cap": self.domain_cap}
        d.update(self.params)
        if self.family == "table":
            d["table_r"] = [float(v) for v in self.table_r]
            d["table_tau"] = [float(v) for v in self.table_tau]
        return d


# -- constructors --------------------------------------------------------


def power(alpha: float, domain_cap: float = 1.0) -> Modulus:
    """tau(r) = r^alpha, the Hölder scale."""
    if not 0.0 < alpha <= 1.0:
        raise ConfigError("power modulus needs alpha in (0, 1]")
    return Modulus("power", {"alpha": float(alpha)}, domain_cap)


def power_log(alpha: float, beta: float, domain_cap: Optional[float] = None) -> Modulus:
    """tau(r) = r^alpha / |log r|^beta.

    The default cap keeps tau nondecreasing: the family turns over at
    r = e^{-beta/alpha}, and |log r| must stay positive, so the cap is
    min(1/2, e^{-beta/alpha}).
    """
    if alpha <= 0:
        raise ConfigError("power_log modulus needs alpha > 0")
    if beta < 0:
        raise ConfigError("power_log modulus needs beta >= 0")
    if domain_cap is None:
        domain_cap = min(0.5, math.exp(-beta / alpha)) if beta > 0 else 0.5
    if domain_cap > 0.5:
        raise ConfigError("power_log requires domain_cap <= 1/2")
    return Modulus("power_log", {"alpha": float(alpha), "beta": float(beta)}, domain_cap)


def power_ln_z(kappa: float, zeta: float, domain_cap: Optional[float] = None) -> Modulus:
    """tau(r) = r^kappa * ln^zeta(1/r)."""
    if kappa <= 0:
        raise ConfigError("power_ln_z modulus needs kappa > 0")
    if domain_cap is None:
        domain_cap = min(0.5, math.exp(-zeta / kappa)) if zeta > 0 else 0.5
    if domain_cap > 0.5:
        raise ConfigError("power_ln_z requires domain_cap <= 1/2")
    return Modulus(
        "power_ln_z", {"kappa": float(kappa), "zeta": float(zeta)}, domain_cap
    )


def inverse_log(gamma: float, domain_cap: float = 0.5) -> Modulus:
    """tau(r) = |log r|^{-gamma}; Dini for gamma > 1, never Hölder."""
    if gamma <= 0:
        raise ConfigError("inverse_log modulus needs gamma > 0")
    if domain_cap > 0.5:
        raise ConfigError("inverse_log requires domain_cap <= 1/2")
    return Modulus("inverse_log", {"gamma": float(gamma)}, domain_cap)


def from_table(rs: Sequence[float], taus: Sequence[float]) -> Modulus:
    """Piecewise-linear modulus through user-supplied (r, tau) pairs."""
    rs = np.asarray(rs, dtype=float)
    taus = np.asarray(taus, dtype=float)
    if rs.ndim != 1 or rs.shape != taus.shape or rs.size < 1:
        raise ConfigError("table modulus needs matching 1-d r and tau arrays")
    order = np.argsort(rs)
    rs, taus = rs[order], taus[order]
    if rs[0] <= 0 or np.any(np.diff(rs) <= 0):
        raise ConfigError("table radii must be positive and strictly increasing")
    if np.any(taus < 0) or np.any(np.diff(taus) < 0):
        raise ConfigError("table values must be nonnegative and nondecreasing")
    return Modulus(
        "table", {}, float(min(rs[-1], 1.0)), table_r=rs, table_tau=taus
    )


def from_dict(d: dict) -> Modulus:
    """Rebuild a modulus from its ``describe()`` dictionary."""
    d = dict(d)
    fam = d.pop("family", None)
    cap = d.pop("domain_cap", None)
    builders: dict[str, Callable] = {
        "power": lambda: power(d["alpha"], cap if cap is not None else 1.0),
        "power_log": lambda: power_log(d["alpha"], d["beta"], cap),
        "power_ln_z": lambda: power_ln_z(d["kappa"], d["zeta"], cap),
        "inverse_log": lambda: inverse_log(d["gamma"], cap if cap is not None else 0.5),
        "table": lambda: from_table(d["table_r"], d["table_tau"]),
    }
    if fam not in builders:
        raise ConfigError(f"unknown modulus family {fam!r}")
    try:
        return builders[fam]()
    except KeyError as exc:
        raise ConfigError(f"missing modulus parameter {exc} for family {fam!r}")


# -- singular quadrature -------------------------------------------------


class DiniResult(NamedTuple):
    value: float
    converged: bool
    levels: int
    tail_estimate: float


_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(32)


def _gauss_panel(f, a: float, b: float) -> float:
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * float(np.dot(_GAUSS_WEIGHTS, f(mid + half * _GAUSS_NODES)))


def _integrate_window(f, a: float, b: float) -> float:
    """Composite Gauss over [a, b] with scale-aware panel widths."""
    width = min(b - a, max(1.0, a / 8.0)) if a > 0 else min(b - a, 1.0)
    n_panels = max(1, math.ceil((b - a) / width))
    edges = np.linspace(a, b, n_panels + 1)
    return sum(_gauss_panel(f, lo, hi) for lo, hi in zip(edges[:-1], edges[1:]))


def _neglog_tail_integral(
    mod: Modulus, t_start: float, rel_tol: float, max_levels: int = 60
) -> DiniResult:
    """Integrate tau(e^{-t}) dt from t_start to infinity.

    This equals the Dini integral of tau over (0, e^{-t_start}] after the
    substitution r = e^{-t}, which removes the 1/r singularity exactly.
    Windows expand dyadically; convergence or divergence is declared from
    geometric extrapolation of the window increments.
    """
    f = mod.eval_neglog
    total = 0.0
    prev_inc = None
    stall = 0
    boundary = t_start
    for level in range(max_levels):
        next_boundary = t_start + (2.0 ** (level + 1) - 1.0)
        inc = _integrate_window(f, boundary, next_boundary)
        total += inc
        boundary = next_boundary
        if prev_inc is not None:
            if inc <= 0.0 and prev_inc <= 0.0:
                return DiniResult(total, True, level + 1, 0.0)
            q = inc / prev_inc if prev_inc > 0 else 0.0
            if q < 0.95:
                tail = inc * q / (1.0 - q)
                if tail <= rel_tol * max(abs(total), 1e-300):
                    return DiniResult(total + tail, True, level + 1, tail)
                stall = 0
            else:
                stall += 1
                if stall >= 8:
                    return DiniResult(total, False, level + 1, math.inf)
        prev_inc = inc
    return DiniResult(total, False, max_levels, math.inf)


def dini_integral(mod: Modulus, rel_tol: float = 1e-8) -> DiniResult:
    """Integrate tau(r)/r over (0, domain_cap].

    Returns (value, converged, ...); ``converged=False`` flags a tail that
    keeps growing across refinement levels, i.e. a divergent integral.
    """
    if rel_tol <= 0:
        raise ConfigError("rel_tol must be positive")
    t_start = -math.log(mod.domain_cap)
    return _neglog_tail_integral(mod, t_start, rel_tol)


def psi_transform(mod: Modulus, t: float, rel_tol: float = 1e-8) -> float:
    """psi(t) = tau(t) + integral_0^t tau(s)/s ds, for Dini moduli."""
    if not 0.0 < t <= mod.domain_cap * (1 + 1e-12):
        raise DomainError(f"psi argument must lie in (0, {mod.domain_cap}]")
    res = _neglog_tail_integral(mod, -math.log(t), rel_tol)
    if not res.converged:
        raise DivergentIntegralError(
            "psi-transform requires a Dini modulus; tail integral diverges"
        )
    return mod.evaluate(min(t, mod.domain_cap)) + res.value


# -- finite certification plans -----------------------------------------


@dataclass(frozen=True)
class A4Plan:
    """Geometric sample grids for the nullity conditions."""

    s_exponent_max: int = 40   # s = 2^-j, j = 1..s_exponent_max
    r_exponent_max: int = 60   # r = 2^-i, i restricted to r <= min(1/2, cap)
    k_max: int = 50
    threshold: float = 1e-3

    def describe(self) -> dict:
        return {
            "s_grid": f"2^-j, j=1..{self.s_exponent_max}",
            "r_grid": f"2^-i, i<={self.r_exponent_max}, r <= min(1/2, cap)",
            "k_range": f"1..{self.k_max}",
            "threshold": self.threshold,
        }


@dataclass(frozen=True)
class RatioPlan:
    """Geometric grid t = 2^-j plus a monotone-tail acceptance window."""

    exponent_max: int = 60
    window: int = 12
    bound: float = 1e3        # "unbounded" proxy for growing ratios
    threshold: float = 1e-3   # "vanishing" proxy for decaying ratios

    def describe(self) -> dict:
        return {
            "grid": f"2^-j, j=1..{self.exponent_max}",
            "window": self.window,
            "bound": self.bound,
            "threshold": self.threshold,
        }


@dataclass(frozen=True)
class A4Certificate:
    """Raw profiles plus verdicts for both nullity conditions.

    ``numeric_verdict_*`` reflect the finite sample alone ("pass" when the
    profile at the smallest sampled s falls below the threshold, otherwise
    "inconclusive": a finite grid cannot prove a positive liminf).  The
    final ``verdict_*`` apply the family's analytic override when the
    numerics are inconclusive.
    """

    alpha0: float
    cond_i_profile: list
    cond_ii_profile: list
    numeric_verdict_i: str
    numeric_verdict_ii: str
    verdict_i: str
    verdict_ii: str
    override: Optional[dict]
    plan: dict

    def describe(self) -> dict:
        return {
            "alpha0": self.alpha0,
            "verdict_i": self.verdict_i,
            "verdict_ii": self.verdict_ii,
            "numeric_verdict_i": self.numeric_verdict_i,
            "numeric_verdict_ii": self.numeric_verdict_ii,
            "override": self.override,
            "plan": self.plan,
            "cond_i_profile": [[float(s), float(v)] for s, v in self.cond_i_profile],
            "cond_ii_profile": [[float(s), float(v)] for s, v in self.cond_ii_profile],
        }


def check_A4(mod: Modulus, alpha0: float, plan: A4Plan = A4Plan()) -> A4Certificate:
    """Certify the nullity conditions on finite geometric grids.

    Condition (i): liminf over s of sup_{r} tau(rs)/tau(r) = 0 with r
    ranging over (0, 1/2].  Condition (ii): liminf over s of
    sup_k s^{alpha0} tau(s^k)/tau(s^{k+1}) = 0.
    """
    if not 0.0 < alpha0 <= 1.0:
        raise ConfigError("alpha0 must lie in (0, 1]")
    if plan.s_exponent_max < 1 or plan.r_exponent_max < 1 or plan.k_max < 1:
        raise ConfigError("empty A4 sample plan")

    cap = min(0.5, mod.domain_cap)
    i_min = max(1, math.ceil(-math.log2(cap) - 1e-9))
    r_t = np.arange(i_min, plan.r_exponent_max + 1) * LN2   # t = -log r

    # ratios in log space: the raw tau values underflow long before the
    # ratios become degenerate
    profile_i = []
    for j in range(1, plan.s_exponent_max + 1):
        s_t = j * LN2
        log_ratios = mod.log_eval_neglog(r_t + s_t) - mod.log_eval_neglog(r_t)
        profile_i.append((2.0 ** (-j), float(np.exp(np.max(log_ratios)))))

    profile_ii = []
    ks = np.arange(1, plan.k_max + 1)
    for j in range(1, plan.s_exponent_max + 1):
        s_t = j * LN2
        log_vals = (
            -alpha0 * s_t
            + mod.log_eval_neglog(ks * s_t)
            - mod.log_eval_neglog((ks + 1) * s_t)
        )
        if mod.domain_cap >= 1.0:
            # k = 0 term: tau(1)/tau(s), evaluable only when cap = 1
            log_vals = np.append(
                log_vals,
                -alpha0 * s_t + math.log(mod.evaluate(1.0)) - mod.log_eval_neglog(s_t),
            )
        top = float(np.max(log_vals))
        profile_ii.append((2.0 ** (-j), math.exp(min(top, 700.0))))

    def numeric_verdict(profile):
        return "pass" if profile[-1][1] <= plan.threshold else "inconclusive"

    nv_i = numeric_verdict(profile_i)
    nv_ii = numeric_verdict(profile_ii)
    override = mod.a4_override(alpha0)
    if override is not None:
        v_i = nv_i if nv_i == "pass" else override[0]
        v_ii = nv_ii if nv_ii == "pass" else override[1]
        override_note = {"condition_i": override[0], "condition_ii": override[1]}
    else:
        v_i, v_ii = nv_i, nv_ii
        override_note = None
    return A4Certificate(
        alpha0=alpha0,
        cond_i_profile=profile_i,
        cond_ii_profile=profile_ii,
        numeric_verdict_i=nv_i,
        numeric_verdict_ii=nv_ii,
        verdict_i=v_i,
        verdict_ii=v_ii,
        override=override_note,
        plan=plan.describe(),
    )


@dataclass(frozen=True)
class RatioCheck:
    """Verdict for a sampled limiting ratio, with the raw sequence."""

    passed: bool
    grid: np.ndarray
    values: np.ndarray
    plan: dict
    what: str

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def describe(self) -> dict:
        return {
            "check": self.what,
            "verdict": self.verdict,
            "plan": self.plan,
            "grid": [float(v) for v in self.grid],
            "values": [float(v) for v in self.values],
        }


def _geometric_grid(mod: Modulus, exponent_max: int):
    j_min = max(1, math.ceil(-math.log2(mod.domain_cap) - 1e-9))
    js = np.arange(j_min, exponent_max + 1)
    return js, 2.0 ** (-js.astype(float))


def check_LCC(mod: Modulus, plan: RatioPlan = RatioPlan()) -> RatioCheck:
    """Pass iff tau(t)/t grows without bound along the sampled grid."""
    js, ts = _geometric_grid(mod, plan.exponent_max)
    ratios = mod.eval_neglog(js * LN2) / ts
    w = min(plan.window, len(ratios) - 1)
    tail_monotone = bool(np.all(np.diff(ratios[-w - 1:]) > 0)) if w > 0 else False
    passed = tail_monotone and ratios[-1] > plan.bound
    return RatioCheck(passed, ts, ratios, plan.describe(), "tau(t)/t -> infinity")


def check_s_over_tau(mod: Modulus, plan: RatioPlan = RatioPlan()) -> RatioCheck:
    """Pass iff s/tau(s) decays to zero along the sampled grid."""
    js, ss = _geometric_grid(mod, plan.exponent_max)
    ratios = ss / mod.eval_neglog(js * LN2)
    w = min(plan.window, len(ratios) - 1)
    tail_monotone = bool(np.all(np.diff(ratios[-w - 1:]) < 0)) if w > 0 else False
    passed = tail_monotone and ratios[-1] < plan.threshold
    return RatioCheck(passed, ss, ratios, plan.describe(), "s/tau(s) -> 0")


@dataclass(frozen=True)
class HolderReport:
    is_gamma_holder_near_0: str     # "pass" (Hölder) or "fail" (not Hölder)
    gamma: float
    witness: Optional[np.ndarray]
    ratios: np.ndarray
    grid: np.ndarray
    plan: dict

    def describe(self) -> dict:
        return {
            "gamma": self.gamma,
            "is_gamma_holder_near_0": self.is_gamma_holder_near_0,
            "witness": None
            if self.witness is None
            else [float(v) for v in self.witness],
            "plan": self.plan,
        }


def holder_witness(
    mod: Modulus, gamma: float, plan: RatioPlan = RatioPlan(exponent_max=200, window=12)
) -> HolderReport:
    """Decide gamma-Hölder behaviour of tau near 0 on a geometric grid.

    Non-Hölder when tau(r)/r^gamma keeps increasing along the tail of the
    sampled r -> 0 sequence and has grown well past its minimum; the
    witness is the tail of the r-sequence realizing the growth.
    """
    if not 0.0 < gamma <= 1.0:
        raise ConfigError("gamma must lie in (0, 1]")
    js, rs = _geometric_grid(mod, plan.exponent_max)
    ratios = mod.eval_neglog(js * LN2) / rs ** gamma
    w = min(plan.window, len(ratios) - 1)
    tail_increasing = bool(np.all(np.diff(ratios[-w - 1:]) > 0)) if w > 0 else False
    grew = ratios[-1] >= 10.0 * np.min(ratios)
    non_holder = tail_increasing and grew
    return HolderReport(
        is_gamma_holder_near_0="fail" if non_holder else "pass",
        gamma=gamma,
        witness=rs[-w - 1:] if non_holder else None,
        ratios=ratios,
        grid=rs,
        plan=plan.describe(),
    )
