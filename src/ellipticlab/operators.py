"""Symmetric-matrix algebra and the fully nonlinear operator layer.

Pucci extremal operators with a frame-sampling oracle, uniform-ellipticity
verification against the Pucci envelope, Gâteaux derivatives with
Richardson extrapolation, the elliptic scaling family and its tangential
(linearized) limit, coefficient-oscillation estimates, and the convexity /
homogeneity / sub-differential structure checks.

Matrix norms are Frobenius throughout; every report records this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DomainError, NonDifferentiableError, NumericsError

MATRIX_NORM = "frobenius"


@dataclass(frozen=True)
class SymMatrix:
    """A real symmetric n x n matrix, stored as a read-only n x n array."""

    n: int
    matrix: np.ndarray

    def __post_init__(self):
        if not 2 <= self.n <= 4:
            raise ConfigError("SymMatrix supports dimensions 2..4")
        mat = np.array(self.matrix, dtype=float)
        if mat.shape != (self.n, self.n):
            raise ConfigError("SymMatrix needs an n x n array")
        if not np.all(np.isfinite(mat)):
            raise DomainError("SymMatrix entries must be finite")
        if not (mat == mat.T).all():
            raise ConfigError("SymMatrix needs a symmetric array")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_matrix(cls, arr) -> "SymMatrix":
        """The symmetric part (A + A^T) / 2 of a square array."""
        arr = np.asarray(arr, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ConfigError("expected a square matrix")
        return cls(arr.shape[0], 0.5 * (arr + arr.T))

    @classmethod
    def identity(cls, n: int) -> "SymMatrix":
        return cls(n, np.eye(n))

    @classmethod
    def zero(cls, n: int) -> "SymMatrix":
        return cls(n, np.zeros((n, n)))

    @classmethod
    def diagonal(cls, entries) -> "SymMatrix":
        return cls.from_matrix(np.diag(np.asarray(entries, dtype=float)))

    # -- views -----------------------------------------------------------

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    def frobenius(self) -> float:
        return float(np.linalg.norm(self.matrix))

    def trace(self) -> float:
        return float(np.trace(self.matrix))

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "SymMatrix") -> "SymMatrix":
        return SymMatrix(self.n, self.matrix + other.matrix)

    def __sub__(self, other: "SymMatrix") -> "SymMatrix":
        return SymMatrix(self.n, self.matrix - other.matrix)

    def __mul__(self, c: float) -> "SymMatrix":
        return SymMatrix(self.n, self.matrix * float(c))

    __rmul__ = __mul__

    def __neg__(self) -> "SymMatrix":
        return SymMatrix(self.n, -self.matrix)

    def add_identity(self, a: float) -> "SymMatrix":
        return SymMatrix(self.n, self.matrix + a * np.eye(self.n))


@dataclass(frozen=True)
class EllipticityPair:
    """Ellipticity constants 0 < lambda <= Lambda."""

    lam: float
    Lam: float

    def __post_init__(self):
        if not 0.0 < self.lam <= self.Lam:
            raise ConfigError("ellipticity pair needs 0 < lambda <= Lambda")

    def describe(self) -> dict:
        return {"lambda": self.lam, "Lambda": self.Lam}


# -- Pucci extremal operators -------------------------------------------


def _as_matrix_batch(M) -> np.ndarray:
    if isinstance(M, SymMatrix):
        return M.matrix
    return np.asarray(M, dtype=float)


def _pucci(M, up: float, down: float):
    """up * sum e_i^+ - down * sum e_i^- over the eigenvalues of M, batched
    over leading axes."""
    eigs = np.linalg.eigvalsh(_as_matrix_batch(M))
    val = up * np.sum(np.maximum(eigs, 0.0), axis=-1) - down * np.sum(
        np.maximum(-eigs, 0.0), axis=-1
    )
    return float(val) if np.ndim(val) == 0 else val


def pucci_plus(M, pair: EllipticityPair):
    """P^+(M) = Lambda * sum e_i^+ - lambda * sum e_i^-, batched over leading axes."""
    return _pucci(M, pair.Lam, pair.lam)


def pucci_minus(M, pair: EllipticityPair):
    """P^-(M) = lambda * sum e_i^+ - Lambda * sum e_i^-."""
    return _pucci(M, pair.lam, pair.Lam)


def pucci_sup_sampled(
    M,
    pair: EllipticityPair,
    n_samples: int = 10_000,
    seed: int = 0,
    refine_rounds: int = 3,
) -> float:
    """Sampled sup of tr(A M) over admissible A, independent of eigensolves.

    Random orthonormal frames Q are drawn (QR of Gaussians); for each
    frame the optimal admissible diagonal is taken entrywise, so every
    candidate A = Q diag(d) Q^T lies in the class.  A few rounds of local
    frame refinement around the incumbent sharpen the lower bound.  The
    result is always <= the closed-form Pucci value.
    """
    mat = _as_matrix_batch(M)
    n = mat.shape[-1]
    rng = np.random.default_rng(seed)
    budget = max(n_samples // (refine_rounds + 1), 1)

    def frame_values(qs: np.ndarray) -> np.ndarray:
        diag = np.einsum("kij,jl,kil->ki", qs, mat, qs)
        d = np.where(diag > 0, pair.Lam, pair.lam)
        return np.sum(d * diag, axis=1)

    qs = np.linalg.qr(rng.standard_normal((budget, n, n)))[0]
    qs[0] = np.eye(n)
    vals = frame_values(qs)
    best_val = float(np.max(vals))
    best_q = qs[int(np.argmax(vals))]

    spread = 0.3
    for _ in range(refine_rounds):
        skews = rng.standard_normal((budget, n, n)) * spread
        skews = 0.5 * (skews - np.swapaxes(skews, 1, 2))
        perturbed = np.linalg.qr(best_q[None] + best_q[None] @ skews)[0]
        vals = frame_values(perturbed)
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val = float(vals[k])
            best_q = perturbed[k]
        spread *= 0.2
    return best_val


# -- operator descriptors -----------------------------------------------

# kind -> (F on stacked matrices (..., n, n), the field describe() reports)
_KINDS = {
    "linear_trace": (lambda op, H: np.einsum("...ij,ij->...", H, op.matrix.matrix), "matrix"),
    "pucci_plus": (lambda op, H: pucci_plus(H, op.pair), None),
    "pucci_minus": (lambda op, H: pucci_minus(H, op.pair), None),
    # the grouping of the perturbation is part of the reported values
    "perturbed_trace": (lambda op, H: np.trace(H, axis1=-2, axis2=-1) + op.eps * (
        np.sin(H[..., 0, 0]) * (1.0 - np.cos(H[..., 1, 1]))), "eps"),
    "extension": (lambda op, H: op.callback(H), "callback_id"),
}


@dataclass(frozen=True)
class OperatorSpec:
    """A fully nonlinear operator F(M, x) with declared ellipticity pair.

    ``x_dependence`` is an optional scalar coefficient field a(x)
    (vectorized over points) applied multiplicatively, which preserves
    the normalization F(0, x) = 0.
    """

    kind: str
    n: int
    pair: EllipticityPair
    matrix: Optional[SymMatrix] = None          # linear_trace
    eps: float = 0.0                            # perturbed_trace
    callback: Optional[Callable] = field(default=None, compare=False)  # extension
    callback_id: Optional[str] = None
    x_dependence: Optional[Callable] = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown operator kind {self.kind!r}")
        if not 2 <= self.n <= 4:
            raise ConfigError("operator dimension must be 2..4")
        if self.kind == "linear_trace" and self.matrix is None:
            raise ConfigError("linear_trace needs a coefficient matrix")
        if self.kind == "extension" and self.callback is None:
            raise ConfigError("extension needs a callback")

    # -- evaluation ------------------------------------------------------

    def evaluate_batch(self, mats: np.ndarray, xs: Optional[np.ndarray] = None):
        """Evaluate F over stacked matrices (..., n, n) at points (..., n)."""
        mats = np.asarray(mats, dtype=float)
        vals = _KINDS[self.kind][0](self, mats)
        if self.x_dependence is not None:
            if xs is None:
                xs = np.zeros(mats.shape[:-2] + (self.n,))
            vals = vals * np.asarray(self.x_dependence(np.asarray(xs, dtype=float)))
        return vals

    def evaluate(self, M, x=None) -> float:
        mat = _as_matrix_batch(M)
        xs = None if x is None else np.asarray(x, dtype=float)
        return float(self.evaluate_batch(mat, xs))

    def __call__(self, M, x=None) -> float:
        return self.evaluate(M, x)

    def describe(self) -> dict:
        d = {"kind": self.kind, "n": self.n, "matrix_norm": MATRIX_NORM}
        d.update(self.pair.describe())
        reported = _KINDS[self.kind][1]
        if reported is not None:
            value = getattr(self, reported)
            d[reported] = value.matrix.tolist() if isinstance(value, SymMatrix) else value
        if self.x_dependence is not None:
            d["x_dependence"] = getattr(self.x_dependence, "__name__", "callable")
        return d


# -- factories -----------------------------------------------------------


def linear_trace(A, pair: Optional[EllipticityPair] = None, x_dependence=None) -> OperatorSpec:
    """F(M) = tr(A M); the pair defaults to A's eigenvalue range."""
    A = A if isinstance(A, SymMatrix) else SymMatrix.from_matrix(A)
    if pair is None:
        eigs = A.eigenvalues()
        if eigs[0] <= 0:
            raise ConfigError("linear_trace coefficient matrix must be positive definite")
        pair = EllipticityPair(float(eigs[0]), float(eigs[-1]))
    return OperatorSpec("linear_trace", A.n, pair, matrix=A, x_dependence=x_dependence)


def pucci_plus_op(pair: EllipticityPair, n: int = 2) -> OperatorSpec:
    return OperatorSpec("pucci_plus", n, pair)


def pucci_minus_op(pair: EllipticityPair, n: int = 2) -> OperatorSpec:
    return OperatorSpec("pucci_minus", n, pair)


def perturbed_trace(eps: float, n: int = 2, pair: Optional[EllipticityPair] = None) -> OperatorSpec:
    """F(M) = tr(M) + eps * sin(M_11) (1 - cos(M_22)).

    The perturbation vanishes to second order at the origin, so the
    tangential linearization is the Laplacian.  Its increments obey
    |dg| <= 2 N_11 + N_22 for N >= 0, hence the default declared pair
    (1 - 2 eps, 1 + 2 eps), floored away from zero for large eps.
    """
    if eps < 0:
        raise ConfigError("perturbed_trace needs eps >= 0")
    if pair is None:
        pair = EllipticityPair(max(1.0 - 2.0 * eps, 1e-2), 1.0 + 2.0 * eps)
    return OperatorSpec("perturbed_trace", n, pair, eps=float(eps))


def extension(callback: Callable, pair: EllipticityPair, n: int = 2,
              callback_id: str = "custom") -> OperatorSpec:
    return OperatorSpec("extension", n, pair, callback=callback, callback_id=callback_id)


# -- sampling plans ------------------------------------------------------


@dataclass(frozen=True)
class SamplePlan:
    """Seeded mixture of symmetric-matrix samples for sampled suprema."""

    seed: int = 0
    count: int = 400
    scales: tuple = (0.1, 1.0, 10.0)
    ray_t_max: float = 1e3
    tolerance: float = 1e-8

    def describe(self) -> dict:
        return {
            "seed": self.seed,
            "count": self.count,
            "scales": list(self.scales),
            "ray_t_max": self.ray_t_max,
            "tolerance": self.tolerance,
            "matrix_norm": MATRIX_NORM,
        }


def sample_symmetric(rng: np.random.Generator, n: int, count: int,
                     scales=(0.1, 1.0, 10.0)) -> np.ndarray:
    """Gaussian symmetric matrices, rank-one rays, and scaled identities."""
    per_scale = max(count // (len(scales) + 2), 1)
    blocks = []
    for s in scales:
        g = rng.standard_normal((per_scale, n, n))
        blocks.append(s * 0.5 * (g + np.swapaxes(g, 1, 2)))
    v = rng.standard_normal((per_scale, n))
    t = rng.uniform(-2.0, 2.0, size=per_scale)[:, None, None]
    blocks.append(t * np.einsum("ki,kj->kij", v, v))
    blocks.append(rng.uniform(-2.0, 2.0, size=per_scale)[:, None, None] * np.eye(n))
    return np.concatenate(blocks, axis=0)


def _sample_psd(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    g = rng.standard_normal((count, n, n))
    psd = np.einsum("kij,klj->kil", g, g) / n
    scale = rng.uniform(0.05, 3.0, size=count)[:, None, None]
    return psd * scale


@dataclass(frozen=True)
class EllipticityReport:
    passed: bool
    max_lower_violation: float
    max_upper_violation: float
    samples: int
    plan: dict

    def describe(self) -> dict:
        return {
            "check": "uniform ellipticity vs Pucci envelope",
            "passed": bool(self.passed),
            "max_lower_violation": self.max_lower_violation,
            "max_upper_violation": self.max_upper_violation,
            "samples": self.samples,
            "plan": self.plan,
        }


def verify_ellipticity(op: OperatorSpec, plan: SamplePlan = SamplePlan()) -> EllipticityReport:
    """Sampled check of P^-(N) <= F(M+N, x) - F(M, x) <= P^+(N) for N >= 0."""
    rng = np.random.default_rng(plan.seed)
    n = op.n
    mats = sample_symmetric(rng, n, plan.count, plan.scales)
    psd = _sample_psd(rng, n, len(mats))
    xs = rng.uniform(-0.7, 0.7, size=(len(mats), n))
    diff = op.evaluate_batch(mats + psd, xs) - op.evaluate_batch(mats, xs)
    lo = pucci_minus(psd, op.pair)
    hi = pucci_plus(psd, op.pair)
    lower_viol = float(np.max(lo - diff))
    upper_viol = float(np.max(diff - hi))
    worst = max(lower_viol, upper_viol)
    return EllipticityReport(
        passed=worst <= plan.tolerance,
        max_lower_violation=lower_viol,
        max_upper_violation=upper_viol,
        samples=len(mats),
        plan=plan.describe(),
    )


# -- Gâteaux derivatives and the tangential limit ------------------------


def gateaux(op: OperatorSpec, X0: SymMatrix, M: SymMatrix, x=None, h: float = 1e-4) -> float:
    """Central-difference directional derivative of F at X0 in direction M."""
    if h <= 0:
        raise ConfigError("step h must be positive")
    return (op.evaluate(X0 + h * M, x) - op.evaluate(X0 - h * M, x)) / (2.0 * h)


def scaling_family(op: OperatorSpec, sigma: float, X: SymMatrix, x=None) -> float:
    """G_sigma(X) = F(sigma X, x) / sigma."""
    if sigma <= 0:
        raise ConfigError("sigma must be positive")
    return op.evaluate(sigma * X, x) / sigma


_H_LADDER = (1e-2, 1e-3, 1e-4)


def _directional_derivative(op: OperatorSpec, direction: SymMatrix, x,
                            rich_tol: float = 1e-7) -> float:
    """Richardson-extrapolated derivative at the zero matrix, with
    one-sided consistency check."""
    d = [gateaux(op, SymMatrix.zero(op.n), direction, x, h) for h in _H_LADDER]
    extr = [(100.0 * d[k + 1] - d[k]) / 99.0 for k in range(len(d) - 1)]
    if abs(extr[-1] - extr[-2]) > rich_tol * (1.0 + abs(extr[-1])):
        raise NonDifferentiableError(
            "Richardson extrapolation of the Gateaux derivative did not settle"
        )
    h = _H_LADDER[-1]
    zero = SymMatrix.zero(op.n)
    f0 = op.evaluate(zero, x)
    fwd = (op.evaluate(h * direction, x) - f0) / h
    bwd = (f0 - op.evaluate((-h) * direction, x)) / h
    if abs(fwd - bwd) > 1e-3 * (1.0 + abs(extr[-1])):
        raise NonDifferentiableError(
            "one-sided derivatives disagree at the zero matrix"
        )
    return extr[-1]


def tangential_limit(op: OperatorSpec, x=None, seed: int = 0,
                     bracket_tol: float = 1e-6) -> SymMatrix:
    """Coefficient matrix of the linearization of F at the zero matrix.

    Assembles tr(A0 M) = DF(0)(M) over the symmetric basis with Richardson
    extrapolation, then cross-checks linearity on random directions.
    Raises NonDifferentiableError when no linearization exists (e.g. pure
    Pucci operators, which are 1-homogeneous but not linear).
    """
    n = op.n
    A0 = np.zeros((n, n))
    for i, j in zip(*np.triu_indices(n)):
        e = np.zeros((n, n))
        e[i, j] = e[j, i] = 1.0
        # an off-diagonal direction carries the entry twice
        weight = 1.0 if i == j else 0.5
        A0[i, j] = A0[j, i] = weight * _directional_derivative(op, SymMatrix(n, e), x)
    rng = np.random.default_rng(seed)
    for _ in range(4):
        g = rng.standard_normal((n, n))
        direction = SymMatrix.from_matrix(0.5 * (g + g.T))
        lin = float(np.sum(A0 * direction.matrix))
        actual = _directional_derivative(op, direction, x)
        if abs(lin - actual) > 1e-5 * (1.0 + direction.frobenius()):
            raise NonDifferentiableError(
                "directional derivatives are not linear in the direction"
            )
    eigs = np.linalg.eigvalsh(A0)
    if eigs[0] < op.pair.lam - bracket_tol or eigs[-1] > op.pair.Lam + bracket_tol:
        raise NumericsError(
            "tangential coefficient matrix escapes the declared ellipticity bracket"
        )
    return SymMatrix.from_matrix(A0)


# -- coefficient oscillation ---------------------------------------------


def oscillation_theta(op: OperatorSpec, x, x0, plan: SamplePlan = SamplePlan()) -> float:
    """Sampled sup of |F(X,x) - F(X,x0)| / (1 + ||X||_F).

    A lower bound of the true supremum; the sample mixes the standard
    matrix mixture with large-norm rays t * Xhat, t up to plan.ray_t_max,
    which is where the sup is approached for coefficient-type operators.
    """
    rng = np.random.default_rng(plan.seed)
    n = op.n
    mats = sample_symmetric(rng, n, plan.count, plan.scales)
    rays = sample_symmetric(rng, n, max(plan.count // 4, 8), (1.0,))
    ts = np.geomspace(1.0, plan.ray_t_max, 12)
    ray_mats = (ts[:, None, None, None] * rays[None]).reshape(-1, n, n)
    mats = np.concatenate([mats, ray_mats], axis=0)
    x = np.asarray(x, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    vals_x = op.evaluate_batch(mats, np.broadcast_to(x, (len(mats), n)))
    vals_x0 = op.evaluate_batch(mats, np.broadcast_to(x0, (len(mats), n)))
    norms = np.linalg.norm(mats, axis=(1, 2))
    return float(np.max(np.abs(vals_x - vals_x0) / (1.0 + norms)))


# -- structural checks ----------------------------------------------------


@dataclass(frozen=True)
class StructureReport:
    """Verdicts for the convexity / sub-differential structure of F."""

    convex: bool
    zero_at_origin: bool
    trace_minorant: bool
    differentiable_at_origin: bool
    one_homogeneous: bool
    convexity_witness: Optional[np.ndarray]
    plan: dict

    def describe(self) -> dict:
        return {
            "convex": self.convex,
            "zero_at_origin": self.zero_at_origin,
            "trace_minorant": self.trace_minorant,
            "differentiable_at_origin": self.differentiable_at_origin,
            "one_homogeneous": self.one_homogeneous,
            "plan": self.plan,
        }


def check_SC(op: OperatorSpec, plan: SamplePlan = SamplePlan()) -> StructureReport:
    """Sampled structure checks for x-independent operators.

    Convexity by the midpoint test, the normalization F(0) = 0, the trace
    minorant tr(X) <= F(X), differentiability at the origin via the
    tangential limit, and positive 1-homogeneity.
    """
    rng = np.random.default_rng(plan.seed)
    n = op.n
    mats = sample_symmetric(rng, n, plan.count, plan.scales)
    vals = op.evaluate_batch(mats)
    tol = plan.tolerance

    pairs_a = mats[: len(mats) // 2]
    pairs_b = mats[len(mats) // 2 : 2 * (len(mats) // 2)]
    mid_vals = op.evaluate_batch(0.5 * (pairs_a + pairs_b))
    gap = mid_vals - 0.5 * (
        op.evaluate_batch(pairs_a) + op.evaluate_batch(pairs_b)
    )
    k = int(np.argmax(gap))
    convex = bool(np.max(gap) <= tol)
    witness = None if convex else np.stack([pairs_a[k], pairs_b[k]])

    zero_at_origin = abs(op.evaluate(SymMatrix.zero(n))) <= tol
    trace_minorant = bool(
        np.max(np.trace(mats, axis1=1, axis2=2) - vals) <= tol
    )

    try:
        tangential_limit(op)
        differentiable = True
    except (NonDifferentiableError, NumericsError):
        differentiable = False

    mus = np.array([0.25, 0.5, 2.0, 7.5])
    scaled = (mus[:, None, None, None] * mats[None, : 64]).reshape(-1, n, n)
    homog_gap = np.abs(
        op.evaluate_batch(scaled).reshape(len(mus), -1)
        - mus[:, None] * vals[None, : 64]
    )
    one_homog = bool(np.max(homog_gap) <= tol * np.max(1.0 + np.abs(vals[:64])))

    return StructureReport(
        convex=convex,
        zero_at_origin=zero_at_origin,
        trace_minorant=trace_minorant,
        differentiable_at_origin=differentiable,
        one_homogeneous=one_homog,
        convexity_witness=witness,
        plan=plan.describe(),
    )
