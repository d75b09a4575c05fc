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
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConfigError, DegenerateModulusError, DivergentIntegralError, DomainError

LN2 = math.log(2.0)


def _table_tau(p, t):
    r, rs, taus = np.exp(-t), p["table_r"], p["table_tau"]
    # linear extension through tau(0) = 0 below the first knot
    return np.where(r < rs[0], taus[0] * r / rs[0], np.interp(r, rs, taus))


def _table_log_tau(p, t):
    # tau is linear below the first knot, where e^{-t} and tau underflow
    # long before their logarithms do
    r0, tau0 = p["table_r"][0], p["table_tau"][0]
    with np.errstate(divide="ignore"):
        return np.where(t > -np.log(r0), np.log(tau0 / r0) - t, np.log(_table_tau(p, t)))


# family -> (tau(e^{-t}), log tau(e^{-t}), the known asymptotic A4 verdicts
# (condition i, condition ii) at alpha0, or None when none are known), each
# a function of the params.
_FAMILIES = {
    "power": (
        lambda p, t: np.exp(-p["alpha"] * t),
        lambda p, t: -p["alpha"] * t,
        lambda p, alpha0: ("pass", "pass" if p["alpha"] < alpha0 else "fail"),
    ),
    "power_log": (
        lambda p, t: np.exp(-p["alpha"] * t) / t ** p["beta"],
        lambda p, t: -p["alpha"] * t - p["beta"] * np.log(t),
        lambda p, alpha0: ("pass", "pass" if p["alpha"] < alpha0 else "fail"),
    ),
    "power_ln_z": (
        lambda p, t: np.exp(-p["kappa"] * t) * t ** p["zeta"],
        lambda p, t: -p["kappa"] * t + p["zeta"] * np.log(t),
        lambda p, alpha0: ("pass", "pass" if p["kappa"] < alpha0 else "fail"),
    ),
    "inverse_log": (
        lambda p, t: t ** (-p["gamma"]),
        lambda p, t: -p["gamma"] * np.log(t),
        # ratio tau(rs)/tau(r) tends to 1 as r -> 0 for every fixed s
        lambda p, alpha0: ("fail", "pass"),
    ),
    # piecewise linear through the knots p["table_r"], p["table_tau"]
    "table": (_table_tau, _table_log_tau, lambda p, alpha0: None),
}


@dataclass(frozen=True)
class Modulus:
    """A named, evaluable modulus of continuity on (0, domain_cap].

    ``params`` holds the family parameters by name.  Evaluation returns
    exactly 0 at r = 0 and raises :class:`DomainError` outside
    [0, domain_cap].  The cap lies in (0, 1], and in (0, 1/2] for the
    log-bearing families, whose constructors keep it small enough that the
    modulus is nondecreasing on its whole domain.  A non-finite parameter
    (a table knot included) raises ConfigError.
    """

    family: str
    params: dict
    domain_cap: float

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ConfigError(f"unknown modulus family {self.family!r}")
        for key, value in self.params.items():
            if not np.all(np.isfinite(value)):
                raise ConfigError(f"modulus parameter {key!r} must be finite, got {value!r}")
        cap_max = 0.5 if self.family in ("power_log", "power_ln_z", "inverse_log") else 1.0
        if not 0.0 < self.domain_cap <= cap_max:
            raise ConfigError(f"a {self.family} modulus needs domain_cap in (0, {cap_max:g}]")

    # -- evaluation ------------------------------------------------------

    def eval_neglog(self, t):
        """Evaluate tau(e^{-t}) for t >= -log(domain_cap).

        This is the underflow-safe primitive: every family has a closed
        form in t, so radii far below the float range of e^{-t} are fine.
        """
        return _FAMILIES[self.family][0](self.params, np.asarray(t, dtype=float))

    def log_eval_neglog(self, t):
        """log tau(e^{-t}); ratio-safe far past the underflow range of tau."""
        return _FAMILIES[self.family][1](self.params, np.asarray(t, dtype=float))

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

    # -- analytic knowledge ---------------------------------------------

    def a4_override(self, alpha0: float) -> Optional[tuple]:
        """Known asymptotic nullity-condition verdicts, or None for table moduli."""
        return _FAMILIES[self.family][2](self.params, alpha0)

    def describe(self) -> dict:
        d = {"family": self.family, "domain_cap": self.domain_cap}
        d.update(self.params)
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
    return Modulus("power_log", {"alpha": float(alpha), "beta": float(beta)}, domain_cap)


def power_ln_z(kappa: float, zeta: float, domain_cap: Optional[float] = None) -> Modulus:
    """tau(r) = r^kappa * ln^zeta(1/r)."""
    if kappa <= 0:
        raise ConfigError("power_ln_z modulus needs kappa > 0")
    if domain_cap is None:
        domain_cap = min(0.5, math.exp(-zeta / kappa)) if zeta > 0 else 0.5
    return Modulus(
        "power_ln_z", {"kappa": float(kappa), "zeta": float(zeta)}, domain_cap
    )


def inverse_log(gamma: float, domain_cap: float = 0.5) -> Modulus:
    """tau(r) = |log r|^{-gamma}; Dini for gamma > 1, never Hölder."""
    if gamma <= 0:
        raise ConfigError("inverse_log modulus needs gamma > 0")
    return Modulus("inverse_log", {"gamma": float(gamma)}, domain_cap)


def from_table(rs: Sequence[float], taus: Sequence[float]) -> Modulus:
    """Piecewise-linear modulus through user-supplied (r, tau) pairs."""
    rs = np.asarray(rs, dtype=float)
    taus = np.asarray(taus, dtype=float)
    if rs.ndim != 1 or rs.shape != taus.shape or rs.size < 1:
        raise ConfigError("table modulus needs matching 1-d r and tau arrays")
    order = np.argsort(rs)
    rs, taus = rs[order], taus[order]
    if rs[0] <= 0:
        raise ConfigError("table radii must be positive and strictly increasing")
    mod = Modulus("table", {"table_r": rs.tolist(), "table_tau": taus.tolist()},
                  float(min(rs[-1], 1.0)))   # refuses non-finite knots before np.diff meets them
    if np.any(np.diff(rs) <= 0):
        raise ConfigError("table radii must be positive and strictly increasing")
    if np.any(taus < 0) or np.any(np.diff(taus) < 0):
        raise ConfigError("table values must be nonnegative and nondecreasing")
    return mod


# -- singular quadrature -------------------------------------------------


class DiniResult(NamedTuple):
    value: float
    converged: bool
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


_REL_TOL = 1e-8     # a tail below this fraction of the total counts as converged
_MAX_LEVELS = 60    # dyadic windows, out to t_start + 2^60 - 1


def _neglog_tail_integral(mod: Modulus, t_start: float) -> DiniResult:
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
    for level in range(_MAX_LEVELS):
        next_boundary = t_start + (2.0 ** (level + 1) - 1.0)
        inc = _integrate_window(f, boundary, next_boundary)
        total += inc
        boundary = next_boundary
        if prev_inc is not None:
            if inc <= 0.0 and prev_inc <= 0.0:
                return DiniResult(total, True, 0.0)
            q = inc / prev_inc if prev_inc > 0 else 0.0
            if q < 0.95:
                tail = inc * q / (1.0 - q)
                if tail <= _REL_TOL * max(abs(total), 1e-300):
                    return DiniResult(total + tail, True, tail)
                stall = 0
            else:
                stall += 1
                if stall >= 8:
                    return DiniResult(total, False, math.inf)
        prev_inc = inc
    return DiniResult(total, False, math.inf)


def dini_integral(mod: Modulus) -> DiniResult:
    """Integrate tau(r)/r over (0, domain_cap].

    Returns (value, converged, tail_estimate); ``converged=False`` flags a
    tail that keeps growing across refinement levels, i.e. a divergent
    integral.
    """
    return _neglog_tail_integral(mod, -math.log(mod.domain_cap))


def psi_transform(mod: Modulus, t: float) -> float:
    """psi(t) = tau(t) + integral_0^t tau(s)/s ds, for Dini moduli."""
    if not 0.0 < t <= mod.domain_cap * (1 + 1e-12):
        raise DomainError(f"psi argument must lie in (0, {mod.domain_cap}]")
    res = _neglog_tail_integral(mod, -math.log(t))
    if not res.converged:
        raise DivergentIntegralError(
            "psi-transform requires a Dini modulus; tail integral diverges"
        )
    return mod.evaluate(min(t, mod.domain_cap)) + res.value


# -- finite certification grids ------------------------------------------

# nullity conditions: s = 2^-j, j = 1..40; r = 2^-i, i <= 60 with
# r <= min(1/2, cap); k = 1..50
_A4_S_MAX, _A4_R_MAX, _A4_K_MAX = 40, 60, 50
_THRESHOLD = 1e-3   # "vanishing" proxy for decaying profiles and ratios
_RATIO_MAX = 60     # limiting ratios sample t = 2^-j, j <= 60
_HOLDER_MAX = 200   # the Hölder witness samples r = 2^-j, j <= 200
_WINDOW = 12        # monotone-tail acceptance window
_BOUND = 1e3        # "unbounded" proxy for growing ratios


def _ratio_plan(exponent_max: int) -> dict:
    return {
        "grid": f"2^-j, j=1..{exponent_max}",
        "window": _WINDOW,
        "bound": _BOUND,
        "threshold": _THRESHOLD,
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


def check_A4(mod: Modulus, alpha0: float) -> A4Certificate:
    """Certify the nullity conditions on finite geometric grids.

    Condition (i): liminf over s of sup_{r} tau(rs)/tau(r) = 0 with r
    ranging over (0, 1/2].  Condition (ii): liminf over s of
    sup_k s^{alpha0} tau(s^k)/tau(s^{k+1}) = 0.  A tau that vanishes at
    the smallest sampled radius raises DegenerateModulusError.
    """
    if not 0.0 < alpha0 <= 1.0:
        raise ConfigError("alpha0 must lie in (0, 1]")
    j_max = max(_A4_R_MAX + _A4_S_MAX, (_A4_K_MAX + 1) * _A4_S_MAX)   # smallest radius 2^-j_max
    if not mod.log_eval_neglog(j_max * LN2) > -np.inf:   # a nondecreasing tau is least there
        raise DegenerateModulusError(f"modulus vanishes at sampled radius r=2^-{j_max}")
    r_t = _geometric_grid(mod, _A4_R_MAX)[0] * LN2   # t = -log r

    # ratios in log space: the raw tau values underflow long before the
    # ratios become degenerate
    profile_i = []
    for j in range(1, _A4_S_MAX + 1):
        s_t = j * LN2
        log_ratios = mod.log_eval_neglog(r_t + s_t) - mod.log_eval_neglog(r_t)
        profile_i.append((2.0 ** (-j), float(np.exp(np.max(log_ratios)))))

    profile_ii = []
    ks = np.arange(1, _A4_K_MAX + 1)
    for j in range(1, _A4_S_MAX + 1):
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
        return "pass" if profile[-1][1] <= _THRESHOLD else "inconclusive"

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
        plan={
            "s_grid": f"2^-j, j=1..{_A4_S_MAX}",
            "r_grid": f"2^-i, i<={_A4_R_MAX}, r <= min(1/2, cap)",
            "k_range": f"1..{_A4_K_MAX}",
            "threshold": _THRESHOLD,
        },
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


def _tail_moves(ratios: np.ndarray, sign: float) -> bool:
    """Whether each of the last ``_WINDOW`` steps of ``ratios`` (each step,
    when there are fewer) has the sign of ``sign``; False for one sample."""
    return len(ratios) > 1 and bool(np.all(sign * np.diff(ratios[-_WINDOW - 1:]) > 0))


def _geometric_grid(mod: Modulus, exponent_max: int):
    j_min = max(1, math.ceil(-math.log2(mod.domain_cap) - 1e-9))
    js = np.arange(j_min, exponent_max + 1)
    return js, 2.0 ** (-js.astype(float))


def check_LCC(mod: Modulus) -> RatioCheck:
    """Pass iff tau(t)/t grows without bound along the sampled grid."""
    js, ts = _geometric_grid(mod, _RATIO_MAX)
    ratios = mod.eval_neglog(js * LN2) / ts
    passed = _tail_moves(ratios, 1.0) and ratios[-1] > _BOUND
    return RatioCheck(passed, ts, ratios, _ratio_plan(_RATIO_MAX), "tau(t)/t -> infinity")


def check_s_over_tau(mod: Modulus) -> RatioCheck:
    """Pass iff s/tau(s) decays to zero along the sampled grid.  A tau that
    vanishes at the smallest sampled radius raises DegenerateModulusError."""
    if not mod.log_eval_neglog(_RATIO_MAX * LN2) > -np.inf:   # a nondecreasing tau is least there
        raise DegenerateModulusError(f"modulus vanishes at sampled radius r=2^-{_RATIO_MAX}")
    js, ss = _geometric_grid(mod, _RATIO_MAX)
    ratios = ss / mod.eval_neglog(js * LN2)
    passed = _tail_moves(ratios, -1.0) and ratios[-1] < _THRESHOLD
    return RatioCheck(passed, ss, ratios, _ratio_plan(_RATIO_MAX), "s/tau(s) -> 0")


@dataclass(frozen=True)
class HolderReport:
    is_gamma_holder_near_0: str     # "pass" (Hölder) or "fail" (not Hölder)
    gamma: float
    witness: Optional[np.ndarray]
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


def holder_witness(mod: Modulus, gamma: float) -> HolderReport:
    """Decide gamma-Hölder behaviour of tau near 0 on a geometric grid.

    Non-Hölder when tau(r)/r^gamma keeps increasing along the tail of the
    sampled r -> 0 sequence and has grown well past its minimum; the
    witness is the tail of the r-sequence realizing the growth.
    """
    if not 0.0 < gamma <= 1.0:
        raise ConfigError("gamma must lie in (0, 1]")
    js, rs = _geometric_grid(mod, _HOLDER_MAX)
    ratios = mod.eval_neglog(js * LN2) / rs ** gamma
    non_holder = _tail_moves(ratios, 1.0) and ratios[-1] >= 10.0 * np.min(ratios)
    return HolderReport(
        is_gamma_holder_near_0="fail" if non_holder else "pass",
        gamma=gamma,
        witness=rs[-_WINDOW - 1:] if non_holder else None,
        plan=_ratio_plan(_HOLDER_MAX),
    )
