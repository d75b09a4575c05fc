"""Symmetric-matrix algebra and the fully nonlinear operator layer.

Pucci extremal operators with a frame-sampling oracle, uniform-ellipticity
verification against the Pucci envelope, the linearization DF(M, x), which
also gives the solver its Jacobian, the elliptic scaling family and its
tangential limit DF(0, 0), coefficient-oscillation estimates, and the
convexity / homogeneity / sub-differential structure checks.

Matrix norms are Frobenius throughout; every report records this.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import BracketError, ConfigError, DomainError, NonDifferentiableError

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
        if not np.all(np.isfinite(arr)):
            raise DomainError("SymMatrix entries must be finite")
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

    def trace(self) -> float:
        return float(np.trace(self.matrix))

    # -- arithmetic ------------------------------------------------------

    def __mul__(self, c: float) -> "SymMatrix":
        return SymMatrix(self.n, self.matrix * float(c))

    __rmul__ = __mul__

    def add_identity(self, a: float) -> "SymMatrix":
        return SymMatrix(self.n, self.matrix + a * np.eye(self.n))


@dataclass(frozen=True)
class EllipticityPair:
    """Finite ellipticity constants 0 < lambda <= Lambda."""

    lam: float
    Lam: float

    def __post_init__(self):
        if not 0.0 < self.lam <= self.Lam < np.inf:   # refuses NaN too
            raise ConfigError("ellipticity pair needs finite 0 < lambda <= Lambda")

    def describe(self) -> dict:
        return {"lambda": self.lam, "Lambda": self.Lam}


# -- Pucci extremal operators -------------------------------------------


def _as_matrix_batch(M) -> np.ndarray:
    if isinstance(M, SymMatrix):
        return M.matrix
    return np.asarray(M, dtype=float)


# A 3 x 3 matrix whose 1 - |r| in Smith's formula is below this goes to
# LAPACK.  Its eigenvalues nearly repeat, and acos(r) there amplifies the
# round-off of r: over adversarial families (pairs straddling 0 with gaps
# from 1e-10 to 1) the worst error is 94 eps max|M| at 1e-4, 37 at 1e-3
# and 26, LAPACK's own level, at 2e-3.  About 0.2 % of Gaussian matrices
# fall below it.
_NEAR_REPEATED = 2e-3


def _pucci_from_eigenvalues(eigs, up: float, down: float):
    return up * np.sum(np.maximum(eigs, 0.0), axis=-1) - down * np.sum(
        np.maximum(-eigs, 0.0), axis=-1)


def _smith3(mat: np.ndarray):
    """Eigenvalues of stacked 3 x 3 matrices mat (m, 9) by O. K. Smith's
    trigonometric formula (Comm. ACM 4, 1961), read from the lower triangle.

    Each matrix M is first scaled to B = 2^-k M with max|B| in [1/2, 1), so
    no product overflows and none that matters underflows.  With q = tr B / 3,
    p^2 = ||B - q I||_F^2 / 6 and r = det((B - q I) / p) / 2 clipped to [-1, 1],
    the eigenvalues are q + 2p cos(phi) and q + 2p cos(phi + 2 pi / 3),
    phi = acos(r) / 3, and the middle one is 3q minus those two; p = 0 gives q
    exactly.

    Returns ``(eigs, k, near, lower)``: eigs (m, 3), B's eigenvalues in
    ascending order (NaN where M has a non-finite entry); k (m,); near (m,),
    true where 1 - |r| < ``_NEAR_REPEATED`` (nearly repeated eigenvalues,
    J. Kopp, Int. J. Mod. Phys. C 19, 2008), where the caller is to take
    LAPACK's instead; and lower (6, m), B's entries (0,0), (1,1), (2,2),
    (1,0), (2,0), (2,1), zero where M is not finite.
    """
    lower = mat.T[[0, 4, 8, 3, 6, 7]]   # rows a, b, c and d, e, f below them
    size = np.max(np.abs(lower), axis=0)
    finite = np.isfinite(size)
    lower[:, ~finite] = size[~finite] = 0.0
    _, k = np.frexp(size)
    lower = np.ldexp(lower, -k)
    a, b, c, d, e, f = lower
    q = (a + b + c) / 3.0
    a, b, c = a - q, b - q, c - q
    p = np.sqrt((a * a + b * b + c * c + 2.0 * (d * d + e * e + f * f)) / 6.0)
    spread = p > 0.0
    a, b, c, d, e, f = (v / np.where(spread, p, 1.0) for v in (a, b, c, d, e, f))
    r = np.clip(0.5 * (a * (b * c - f * f) - d * (d * c - e * f) + e * (d * f - b * e)),
                -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    hi = q + 2.0 * p * np.cos(phi)
    lo = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)   # both q where p = 0
    eigs = np.stack([lo, np.where(spread, 3.0 * q - hi - lo, q), hi], axis=-1)
    eigs[~finite] = np.nan
    return eigs, k, spread & (1.0 - np.abs(r) < _NEAR_REPEATED), lower


def _pucci3(mat: np.ndarray, up: float, down: float):
    """``_pucci`` of stacked 3 x 3 matrices by ``_smith3``'s eigenvalues of
    B = 2^-k M: Pucci's positive 1-homogeneity gives M's value as 2^k times
    B's, exactly.  The nearly repeated ones go to ``np.linalg.eigvalsh`` as
    one sub-stack.  A matrix with a non-finite entry gives NaN.
    """
    batch = mat.shape[:-2]
    mat = mat.reshape(-1, 9)
    eigs, k, near, _ = _smith3(mat)
    if np.any(near):
        eigs[near] = np.linalg.eigvalsh(np.ldexp(mat[near].reshape(-1, 3, 3),
                                                 -k[near, None, None]))
    return np.ldexp(_pucci_from_eigenvalues(eigs, up, down), k).reshape(batch)[()]


def _hypot2(mat: np.ndarray):
    """m, d = (a - c)/2, b and r = hypot(d, b) of stacked 2 x 2 matrices,
    read from the lower triangle: the eigenvalues are m -+ r."""
    a, b, c = mat[..., 0, 0], mat[..., 1, 0], mat[..., 1, 1]
    d = 0.5 * (a - c)
    return 0.5 * (a + c), d, b, np.hypot(d, b)


def _pucci(M, up: float, down: float):
    """up * sum e_i^+ - down * sum e_i^- over the eigenvalues of M, batched
    over leading axes.

    2 x 2 eigenvalues take ``_hypot2``'s closed form, read from the lower
    triangle like ``np.linalg.eigvalsh``: it skips LAPACK's per-matrix
    overhead and agrees with it to a few eps * max|M|.  3 x 3 matrices take
    ``_pucci3``'s closed form, within 64 eps * max|M| of the value from
    LAPACK's eigenvalues (32 measured).  4 x 4 matrices go through LAPACK.
    """
    mat = _as_matrix_batch(M)
    if mat.shape[-1] == 2:
        m, _, _, r = _hypot2(mat)
        lo, hi = m - r, m + r
        return up * (np.maximum(lo, 0.0) + np.maximum(hi, 0.0)) + down * (
            np.minimum(lo, 0.0) + np.minimum(hi, 0.0))
    if mat.shape[-1] == 3:
        return _pucci3(mat, up, down)
    return _pucci_from_eigenvalues(np.linalg.eigvalsh(mat), up, down)


def _coefficient(mu, up: float, down: float):
    """The coefficient ``_pucci`` puts on an eigenvalue mu: up for mu >= 0,
    down otherwise."""
    return np.where(mu >= 0.0, up, down)


def _pucci_linearization(mat: np.ndarray, up: float, down: float) -> np.ndarray:
    """DF = V diag(c) V^T of ``_pucci`` at stacked matrices (..., n, n), from
    LAPACK's eigenvectors V, c the ``_coefficient`` of each eigenvalue."""
    mu, V = np.linalg.eigh(mat)
    return (V * _coefficient(mu, up, down)[..., None, :]) @ np.swapaxes(V, -1, -2)


def _pucci_slopes(H: np.ndarray, up: float, down: float) -> np.ndarray:
    """The entry slopes (see ``entry_slopes``) of ``_pucci`` at stacked
    matrices H (..., n, n), in closed form: those of DF = sum_i c_i v_i v_i^T
    over H's eigenpairs (mu_i, v_i), c_i = ``_coefficient(mu_i)``.

    Away from the kinks this is F's derivative.  At a kink, an eigenvalue
    mu_i = 0, F has none, and the rule takes the slope along +v_i v_i^T,
    up: so DF's eigenvalues are always up or down, inside the declared
    pair, and at H = 0 DF is up times the identity.

    Where every c_i is the same, DF = c I.  Otherwise one eigenvalue mu is
    alone in its sign class, and DF = c I + (c_mu - c) P, with c the other
    eigenvalues' coefficient and P mu's spectral projector.  2 x 2: mu is
    m -+ r of ``_hypot2`` and P = (I -+ [[d, b], [b, -d]] / r) / 2, with no
    LAPACK.  3 x 3: ``_smith3``'s eigenvalues of B = 2^-k H (DF is
    0-homogeneous) and P = (B - mu_a I)(B - mu_b I) / ((mu - mu_a)(mu - mu_b))
    over the other two, except where they nearly repeat, so that a gap is
    small: those matrices, like every 4 x 4 one, take
    ``_pucci_linearization``.
    """
    n = H.shape[-1]
    if n == 2:
        m, d, b, r = _hypot2(H)
        c = _coefficient(m - r, up, down)
        half = 0.5 * (_coefficient(m + r, up, down) - c)   # nonzero only where r > 0
        rr = np.where(r > 0.0, r, 1.0)
        t = half * (d / rr)
        return np.stack([c + half + t, 2.0 * half * (b / rr), c + half - t])
    if n == 4:
        return _to_entry_slopes(_pucci_linearization(H, up, down), n)
    batch = H.shape[:-2]
    mat = H.reshape(-1, 9)
    eigs, k, near, (a, b, c, d, e, f) = _smith3(mat)
    lo, mid, hi = eigs.T
    mid_up = mid >= 0.0   # hi >= mid >= lo, so lo is alone if anything is, else hi
    mu, o = np.where(mid_up, lo, hi), np.where(mid_up, hi, lo)
    cm = _coefficient(mid, up, down)
    w = _coefficient(mu, up, down) - cm
    # the gaps are at least 0.07 p unless near, where LAPACK's DF replaces these
    g = w / np.where((w == 0.0) | near, 1.0, (mu - mid) * (mu - o))
    s = mid + o
    out = np.stack([cm + g * ((a - mid) * (a - o) + d * d + e * e),
                    2.0 * g * (d * (a + b - s) + e * f),
                    2.0 * g * (e * (a + c - s) + d * f),
                    cm + g * ((b - mid) * (b - o) + d * d + f * f),
                    2.0 * g * (f * (b + c - s) + d * e),
                    cm + g * ((c - mid) * (c - o) + e * e + f * f)])
    out[:, np.isnan(lo)] = np.nan
    if np.any(near):
        out[:, near] = _to_entry_slopes(_pucci_linearization(
            np.ldexp(mat[near].reshape(-1, 3, 3), -k[near, None, None]), up, down), 3)
    return out.reshape((6,) + batch)


def pucci_plus(M, pair: EllipticityPair):
    """P^+(M) = Lambda * sum e_i^+ - lambda * sum e_i^-, batched over leading axes."""
    return _pucci(M, pair.Lam, pair.lam)


def pucci_minus(M, pair: EllipticityPair):
    """P^-(M) = lambda * sum e_i^+ - Lambda * sum e_i^-."""
    return _pucci(M, pair.lam, pair.Lam)


_REFINE_ROUNDS = 3   # local frame refinements in pucci_sup_sampled


def pucci_sup_sampled(M, pair: EllipticityPair, n_samples: int = 10_000,
                      seed: int = 0) -> float:
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
    budget = max(n_samples // (_REFINE_ROUNDS + 1), 1)

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
    for _ in range(_REFINE_ROUNDS):
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


@dataclass(frozen=True)
class OperatorSpec:
    """A fully nonlinear operator F(M, x) with declared ellipticity pair.

    ``core`` is F on stacked matrices (..., n, n); ``params`` is what
    ``describe()`` reports of it, named as in ``Modulus.params``: ``kind``
    plus that kind's ``matrix`` (nested lists), ``eps`` or ``callback_id``.
    The factories below build both.  ``x_dependence`` is an optional scalar
    coefficient field a(x) (vectorized over points) applied
    multiplicatively, which preserves the normalization F(0, x) = 0.
    ``slopes`` is core's entry slopes on stacked matrices in closed form,
    shaped as ``entry_slopes`` returns them (so an operator whose core is
    replaced needs its slopes replaced too); every factory but
    ``extension``, whose callback has no derivative, sets it.  A ``pair``
    that is not an ``EllipticityPair`` raises ConfigError.
    """

    n: int
    pair: EllipticityPair
    core: Callable = field(compare=False)
    params: dict
    x_dependence: Optional[Callable] = field(default=None, compare=False)
    slopes: Optional[Callable] = field(default=None, compare=False)

    def __post_init__(self):
        if not 2 <= self.n <= 4:
            raise ConfigError("operator dimension must be 2..4")
        if not isinstance(self.pair, EllipticityPair):
            raise ConfigError(f"an operator's pair must be an EllipticityPair, got {self.pair!r}")

    # -- evaluation ------------------------------------------------------

    def _times_coefficient(self, vals, xs, batch: tuple):
        """vals (..., *batch) times a(x) at points xs (*batch, n), or at
        x = 0 when xs is None, for an operator with ``x_dependence``."""
        if self.x_dependence is None:
            return vals
        if xs is None:
            xs = np.zeros(batch + (self.n,))
        return vals * np.asarray(self.x_dependence(np.asarray(xs, dtype=float)))

    def evaluate_batch(self, mats: np.ndarray, xs: Optional[np.ndarray] = None):
        """Evaluate F over stacked matrices (..., n, n) at points (..., n)."""
        mats = np.asarray(mats, dtype=float)
        return self._times_coefficient(self.core(mats), xs, mats.shape[:-2])

    def evaluate(self, M, x=None) -> float:
        mat = _as_matrix_batch(M)
        xs = None if x is None else np.asarray(x, dtype=float)
        return float(self.evaluate_batch(mat, xs))

    def describe(self) -> dict:
        d = {"kind": self.params["kind"], "n": self.n, "matrix_norm": MATRIX_NORM}
        d.update(self.pair.describe())
        d.update(self.params)
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
    return OperatorSpec(A.n, pair, lambda H: np.einsum("...ij,ij->...", H, A.matrix),
                        {"kind": "linear_trace", "matrix": A.matrix.tolist()}, x_dependence,
                        lambda H: _to_entry_slopes(np.broadcast_to(A.matrix, H.shape), A.n))


def pucci_plus_op(pair: EllipticityPair, n: int = 2) -> OperatorSpec:
    return OperatorSpec(n, pair, lambda H: pucci_plus(H, pair), {"kind": "pucci_plus"},
                        slopes=lambda H: _pucci_slopes(H, pair.Lam, pair.lam))


def pucci_minus_op(pair: EllipticityPair, n: int = 2) -> OperatorSpec:
    return OperatorSpec(n, pair, lambda H: pucci_minus(H, pair), {"kind": "pucci_minus"},
                        slopes=lambda H: _pucci_slopes(H, pair.lam, pair.Lam))


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
    eps = float(eps)

    def core(H):   # the grouping of the perturbation is part of the reported values
        # the trace as np.trace sums it, 0 + H_11 + H_22 (+ ...) left to
        # right, bit for bit, without its strided diagonal reduction
        return sum(H[..., a, a] for a in range(H.shape[-1])) + eps * (
            np.sin(H[..., 0, 0]) * (1.0 - np.cos(H[..., 1, 1])))

    def slopes(H):   # 1 on the diagonal, 0 off it, plus the perturbation's
        out = np.zeros((n * (n + 1) // 2,) + H.shape[:-2])
        rows, cols = np.triu_indices(n)
        out[rows == cols] = 1.0
        h11, h22 = H[..., 0, 0], H[..., 1, 1]
        out[0] += eps * (np.cos(h11) * (1.0 - np.cos(h22)))
        out[n] += eps * (np.sin(h11) * np.sin(h22))   # E_22 follows row 0's n entries
        return out

    return OperatorSpec(n, pair, core, {"kind": "perturbed_trace", "eps": eps}, slopes=slopes)


def extension(callback: Callable, pair: EllipticityPair, n: int = 2,
              callback_id: str = "custom") -> OperatorSpec:
    return OperatorSpec(n, pair, callback, {"kind": "extension", "callback_id": callback_id})


# -- sampling plans ------------------------------------------------------


_SCALES = (0.1, 1.0, 10.0)   # Gaussian sample scales
_RAY_T_MAX = 1e3             # largest ray multiple in oscillation_theta
_SAMPLE_TOL = 1e-8           # slack of the sampled ellipticity and structure checks


@dataclass(frozen=True)
class SamplePlan:
    """Seeded mixture of symmetric-matrix samples for sampled suprema; the
    seed must be a whole number >= 0 and the count one >= 1 (ConfigError)."""

    seed: int = 0
    count: int = 400

    def __post_init__(self):
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ConfigError(f"sample seed must be a whole number >= 0, got {self.seed!r}")
        if not (isinstance(self.count, numbers.Integral) and self.count >= 1):
            raise ConfigError(f"sample count must be a whole number >= 1, got {self.count!r}")

    def describe(self) -> dict:
        return {
            "seed": self.seed,
            "count": self.count,
            "scales": list(_SCALES),
            "ray_t_max": _RAY_T_MAX,
            "tolerance": _SAMPLE_TOL,
            "matrix_norm": MATRIX_NORM,
        }


def sample_symmetric(rng: np.random.Generator, n: int, count: int,
                     scales=_SCALES) -> np.ndarray:
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
    mats = sample_symmetric(rng, n, plan.count)
    psd = _sample_psd(rng, n, len(mats))
    xs = rng.uniform(-0.7, 0.7, size=(len(mats), n))
    diff = op.evaluate_batch(mats + psd, xs) - op.evaluate_batch(mats, xs)
    lo = pucci_minus(psd, op.pair)
    hi = pucci_plus(psd, op.pair)
    lower_viol = float(np.max(lo - diff))
    upper_viol = float(np.max(diff - hi))
    worst = max(lower_viol, upper_viol)
    return EllipticityReport(
        passed=worst <= _SAMPLE_TOL,
        max_lower_violation=lower_viol,
        max_upper_violation=upper_viol,
        samples=len(mats),
        plan=plan.describe(),
    )


# -- the linearization DF(M, x) and the tangential limit -----------------


def _entry_directions(n: int) -> np.ndarray:
    """E_ab + E_ba (E_aa if a = b) for a <= b in triu order, stacked (k, n, n)."""
    rows, cols = np.triu_indices(n)
    E = np.eye(n)[rows, :, None] * np.eye(n)[cols, None, :]   # E_ab
    return np.maximum(E, np.swapaxes(E, 1, 2))


def _to_entry_slopes(A: np.ndarray, n: int) -> np.ndarray:
    """The slopes (n(n+1)/2, ...) of X -> tr(A X) along the entry directions,
    for matrices A (..., n, n): A_aa, and 2 A_ab off the diagonal."""
    rows, cols = np.triu_indices(n)
    return np.moveaxis(A[..., rows, cols] * np.where(rows == cols, 1.0, 2.0), -1, 0)


def _from_entry_slopes(slopes: np.ndarray, n: int) -> np.ndarray:
    """Matrices A (..., n, n) with tr(A D_k) = slopes[k] for the entry
    directions D_k; an off-diagonal D_k carries its entry twice."""
    rows, cols = np.triu_indices(n)
    vals = np.moveaxis(slopes, 0, -1) * np.where(rows == cols, 1.0, 0.5)
    A = np.empty(vals.shape[:-1] + (n, n))
    A[..., rows, cols] = A[..., cols, rows] = vals
    return A


def _slopes(op: OperatorSpec, H: np.ndarray, D: np.ndarray, s, x=None,
            base=None) -> np.ndarray:
    """(F(H + s D_k, x) - F(H, x)) / s at matrices H (..., n, n) along each
    direction D_k of a stack (k, n, n), shaped (k, ...).  The step s is one
    per matrix (...) or a signed scalar; ``base`` is F(H, x) when the caller
    has it.  Every difference of F is taken here.

    The stack of H + s D_k is k copies of H, each incremented by s D_k[a, b]
    at D_k's nonzero entries only: the values of H + s D_k bit for bit,
    without the (k, ...) product s D_k."""
    s = np.asarray(s, dtype=float)
    S = np.repeat(H[None], len(D), 0)
    for j, a, b in zip(*np.nonzero(D)):
        S[j, ..., a, b] += s * D[j, a, b]
    if base is None:
        base = op.evaluate_batch(H, x)
    return (op.evaluate_batch(S, x) - base) / s


def entry_slopes(op: OperatorSpec, H, x=None, base=None) -> np.ndarray:
    """The slopes of F at stacked H (..., n, n) and points x (..., n), or
    x = 0, along the entry directions E_ab + E_ba (E_aa if a = b), a <= b
    in triu order: shaped (n(n+1)/2, ...).  An operator with ``slopes``
    gives them in closed form, times its ``x_dependence`` at x.  For one
    without (an ``extension``) they are one-sided differences with step
    1e-6 (1 + ||H||_F) per matrix, and ``base``, when given, is taken as
    F(H, x) (a caller that has just evaluated F at H passes it) and spares
    that evaluation.  An H not shaped (..., n, n) for the operator raises
    ConfigError."""
    H = np.asarray(H, dtype=float)
    if H.shape[-2:] != (op.n, op.n):
        raise ConfigError(f"linearize needs (..., {op.n}, {op.n}) matrices, got {H.shape}")
    if op.slopes is not None:
        return op._times_coefficient(op.slopes(H), x, H.shape[:-2])
    # ||H||_F as np.linalg.norm sums it, without its conjugate copy of H
    step = 1e-6 * (1.0 + np.sqrt(np.add.reduce(H * H, axis=(-2, -1))))
    return _slopes(op, H, _entry_directions(op.n), step, x, base)


def linearize(op: OperatorSpec, H, x=None, base=None) -> np.ndarray:
    """DF(H, x): matrices A (..., n, n) with F(H + X, x) - F(H, x) ~ tr(A X)
    at stacked H (..., n, n) and points x (..., n), or x = 0, from
    ``entry_slopes`` (same arguments): A_aa is the slope along E_aa, and
    A_ab = A_ba half the slope along E_ab + E_ba."""
    return _from_entry_slopes(entry_slopes(op, H, x, base), op.n)


def scaling_family(op: OperatorSpec, sigma: float, X: SymMatrix) -> float:
    """G_sigma(X) = F(sigma X, 0) / sigma."""
    if sigma <= 0:
        raise ConfigError("sigma must be positive")
    return op.evaluate(sigma * X) / sigma


_H_LADDER = (1e-2, 1e-3, 1e-4)
_RICH_TOL = 1e-7      # relative agreement of the last two Richardson values
_BRACKET_TOL = 1e-6   # slack of the tangential matrix against the declared pair


def tangential_limit(op: OperatorSpec, seed: int = 0) -> SymMatrix:
    """Coefficient matrix A0 of the linearization of F at M = 0 and x = 0.

    Richardson-extrapolates the central slopes at +-h, h in ``_H_LADDER``,
    along the entry directions, which give A0, and four seeded random ones,
    which must be linear in A0.  Raises NonDifferentiableError when no
    linearization exists (e.g. pure Pucci operators, which are
    1-homogeneous but not linear), and BracketError when A0 escapes the
    declared ellipticity pair.
    """
    n = op.n
    basis = _entry_directions(n)
    g = np.random.default_rng(seed).standard_normal((4, n, n))
    dirs = np.concatenate([basis, 0.5 * (g + np.swapaxes(g, 1, 2))])
    fwd, bwd = ([_slopes(op, np.zeros((n, n)), dirs, s * h) for h in _H_LADDER] for s in (1, -1))
    d = [0.5 * (f + b) for f, b in zip(fwd, bwd)]
    extr = [(100.0 * d[k + 1] - d[k]) / 99.0 for k in range(len(d) - 1)]
    slope, A0 = extr[-1], _from_entry_slopes(extr[-1][: len(basis)], n)
    for k, D in enumerate(dirs):
        if abs(slope[k] - extr[-2][k]) > _RICH_TOL * (1.0 + abs(slope[k])):
            raise NonDifferentiableError(
                "Richardson extrapolation of the Gateaux derivative did not settle")
        if abs(fwd[-1][k] - bwd[-1][k]) > 1e-3 * (1.0 + abs(slope[k])):
            raise NonDifferentiableError("one-sided derivatives disagree at the zero matrix")
        if k >= len(basis) and abs(np.sum(A0 * D) - slope[k]) > 1e-5 * (1.0 + np.linalg.norm(D)):
            raise NonDifferentiableError("directional derivatives are not linear in the direction")
    eigs = np.linalg.eigvalsh(A0)
    if eigs[0] < op.pair.lam - _BRACKET_TOL or eigs[-1] > op.pair.Lam + _BRACKET_TOL:
        raise BracketError(
            "tangential coefficient matrix escapes the declared ellipticity bracket")
    return SymMatrix.from_matrix(A0)


# -- coefficient oscillation ---------------------------------------------


def oscillation_theta(op: OperatorSpec, x, x0, plan: SamplePlan = SamplePlan()) -> float:
    """Sampled sup of |F(X,x) - F(X,x0)| / (1 + ||X||_F).

    A lower bound of the true supremum; the sample mixes the standard
    matrix mixture with large-norm rays t * Xhat, t up to 1e3,
    which is where the sup is approached for coefficient-type operators.
    An x or x0 that is not n finite numbers raises ConfigError.
    """
    n = op.n
    x = np.asarray(x, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if x.shape != (n,) or x0.shape != (n,) or not np.all(np.isfinite([x, x0])):
        raise ConfigError(f"x and x0 must each be {n} finite numbers, one per dimension")
    rng = np.random.default_rng(plan.seed)
    mats = sample_symmetric(rng, n, plan.count)
    rays = sample_symmetric(rng, n, max(plan.count // 4, 8), (1.0,))
    ts = np.geomspace(1.0, _RAY_T_MAX, 12)
    ray_mats = (ts[:, None, None, None] * rays[None]).reshape(-1, n, n)
    mats = np.concatenate([mats, ray_mats], axis=0)
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
    mats = sample_symmetric(rng, n, plan.count)
    vals = op.evaluate_batch(mats)

    half = len(mats) // 2
    pairs_a, pairs_b = mats[:half], mats[half : 2 * half]
    # batches evaluate elementwise, so the ends' values are slices of vals
    mid_vals = op.evaluate_batch(0.5 * (pairs_a + pairs_b))
    gap = mid_vals - 0.5 * (vals[:half] + vals[half : 2 * half])
    k = int(np.argmax(gap))
    convex = bool(np.max(gap) <= _SAMPLE_TOL)
    witness = None if convex else np.stack([pairs_a[k], pairs_b[k]])

    zero_at_origin = abs(op.evaluate(SymMatrix.zero(n))) <= _SAMPLE_TOL
    trace_minorant = bool(
        np.max(np.trace(mats, axis1=1, axis2=2) - vals) <= _SAMPLE_TOL
    )

    try:
        tangential_limit(op, plan.seed)
        differentiable = True
    except NonDifferentiableError:
        differentiable = False
    except BracketError:   # the limit exists, outside the declared pair
        differentiable = True

    mus = np.array([0.25, 0.5, 2.0, 7.5])
    scaled = (mus[:, None, None, None] * mats[None, : 64]).reshape(-1, n, n)
    homog_gap = np.abs(
        op.evaluate_batch(scaled).reshape(len(mus), -1)
        - mus[:, None] * vals[None, : 64]
    )
    one_homog = bool(np.max(homog_gap) <= _SAMPLE_TOL * np.max(1.0 + np.abs(vals[:64])))

    return StructureReport(
        convex=convex,
        zero_at_origin=zero_at_origin,
        trace_minorant=trace_minorant,
        differentiable_at_origin=differentiable,
        one_homogeneous=one_homog,
        convexity_witness=witness,
        plan=plan.describe(),
    )
