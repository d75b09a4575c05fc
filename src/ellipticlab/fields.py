"""Grid-sampled fields on squares containing the unit ball.

Scalar fields (solutions, sources) and n-component fields (drifts) live
on a uniform grid over [-L, L]^n with an odd node count per side, so the
origin is always a node.  The module provides L^p ball-averaged norms,
modulus-constant estimation from those averages, the central-difference
stencil table behind every jet (and behind the solver's residual and
Jacobian), and a plain-text file format with bit-exact round trips.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DegenerateModulusError, DomainError
from .moduli import Modulus
from .operators import SymMatrix


@dataclass(frozen=True)
class GridField:
    """Values sampled on a uniform grid over the square [-L, L]^n.

    ``values`` has shape (N,)*n for scalars and (N,)*n + (components,)
    otherwise, indexed so that axis k runs over coordinate x_k with
    x = -L + i*h, h = 2L/(N-1).
    """

    n: int
    N: int
    L: float
    values: np.ndarray
    components: int = 1

    def __post_init__(self):
        if self.n not in (2, 3):
            raise ConfigError("GridField supports n = 2 or 3")
        if self.N < 3 or self.N % 2 == 0:
            raise ConfigError("node count N must be odd and >= 3")
        if self.L < 1.0:
            raise ConfigError("half-width L must be >= 1")
        if self.components < 1:
            raise ConfigError("components must be >= 1")
        vals = np.asarray(self.values, dtype=float)
        want = (self.N,) * self.n + (() if self.components == 1 else (self.components,))
        if vals.shape != want:
            raise ConfigError(f"values shape {vals.shape} does not match grid {want}")
        if not np.all(np.isfinite(vals)):
            raise DomainError("field values must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def h(self) -> float:
        return 2.0 * self.L / (self.N - 1)

    def axis_coords(self) -> np.ndarray:
        return -self.L + self.h * np.arange(self.N)

    def meshgrid(self) -> tuple:
        c = self.axis_coords()
        return np.meshgrid(*([c] * self.n), indexing="ij")

    def node_coords(self, idx) -> np.ndarray:
        idx = tuple(int(i) for i in idx)
        if len(idx) != self.n or any(not 0 <= i < self.N for i in idx):
            raise DomainError(f"node index {idx} outside grid")
        return -self.L + self.h * np.asarray(idx, dtype=float)

    def origin_index(self) -> tuple:
        return ((self.N - 1) // 2,) * self.n

    def value_at(self, idx):
        idx = tuple(int(i) for i in idx)
        v = self.values[idx]
        return float(v) if self.components == 1 else np.asarray(v)

    def scale(self, c: float) -> "GridField":
        return GridField(self.n, self.N, self.L, self.values * float(c), self.components)


def sample_function(f: Callable, n: int = 2, N: int = 65, L: float = 1.0,
                    components: int = 1) -> GridField:
    """Evaluate ``f`` nodewise.  The callback receives stacked coordinates
    of shape (..., n) and must return (...,) or (..., components)."""
    dummy = GridField(n, N, L, np.zeros((N,) * n + (() if components == 1 else (components,))),
                      components)
    pts = np.stack(dummy.meshgrid(), axis=-1)
    try:
        vals = np.asarray(f(pts), dtype=float)
    except Exception as exc:  # pragma: no cover - message plumbing
        raise DomainError(f"field evaluation failed on the grid: {exc}") from exc
    want = pts.shape[:-1] + (() if components == 1 else (components,))
    if vals.shape != want:
        vals = np.broadcast_to(vals, want).copy()
    bad = np.argwhere(~np.isfinite(vals))
    if len(bad):
        raise DomainError(f"non-finite field value at node index {tuple(bad[0])}")
    return GridField(n, N, L, vals, components)


# -- ball-averaged L^p norms ----------------------------------------------


def ball_nodes(field: GridField, x0_idx, r: float):
    """Displacements x - x0, shape (m, n), and field values at the m grid
    nodes of the closed ball B_r(x0), in row-major node order."""
    x0 = field.node_coords(x0_idx)
    d = np.stack(field.meshgrid(), axis=-1) - x0
    mask = np.linalg.norm(d, axis=-1) <= r + 1e-12
    return d[mask], field.values[mask]


def ball_average_lp(field: GridField, x0_idx, r: float, p0: float | None = None) -> float:
    """(average over nodes in B_r(x0) of |f - f(x0)|^p0)^(1/p0).

    Equal node weights, no partial-cell corrections.  For n-component
    fields the pointwise difference uses the Euclidean norm.
    """
    if p0 is None:
        p0 = 2 * field.n + 1
    if p0 <= field.n:
        raise ConfigError("p0 must exceed the dimension n")
    x0 = field.node_coords(x0_idx)
    if np.any(np.abs(x0) + r > field.L + 1e-12):
        raise DomainError("ball extends outside the grid square")
    if r < 2.0 * field.h:
        raise DomainError("radius must be at least 2h")
    mag = _ball_increments(field, x0_idx, r)
    return float(np.mean(mag ** p0) ** (1.0 / p0))


def _ball_increments(field: GridField, x0_idx, r: float) -> np.ndarray:
    """|f - f(x0)| at the nodes of B_r(x0); Euclidean norm for n-component fields."""
    _, vals = ball_nodes(field, x0_idx, r)
    if len(vals) == 0:
        raise DomainError("ball contains no grid nodes")
    diff = vals - field.values[tuple(int(i) for i in x0_idx)]
    return np.abs(diff) if field.components == 1 else np.linalg.norm(diff, axis=-1)


@dataclass(frozen=True)
class DiniConstantReport:
    C_fit: float
    table: list  # rows (center_idx, r, average, tau, ratio)
    p0: float

    def describe(self) -> dict:
        return {
            "C_fit": self.C_fit,
            "p0": self.p0,
            "table": [
                {"center": list(c), "r": r, "average": a, "tau": t, "ratio": q}
                for c, r, a, t, q in self.table
            ],
        }


def dini_lp_constant(field: GridField, mod: Modulus, centers: Sequence,
                     radii: Sequence[float], p0: float | None = None) -> DiniConstantReport:
    """Fit the smallest C with ball_average_lp(x0, r) <= C tau(r).

    Returns the max ratio together with the full ratio table so the user
    sees where the bound binds.
    """
    if p0 is None:
        p0 = 2 * field.n + 1
    table = []
    worst = 0.0
    for c in centers:
        for r in radii:
            tau = mod.evaluate(r)
            if tau <= 0.0:
                raise DegenerateModulusError(f"modulus vanishes at sampled radius r={r}")
            avg = ball_average_lp(field, c, r, p0)
            ratio = avg / tau
            worst = max(worst, ratio)
            table.append((tuple(int(i) for i in c), float(r), avg, float(tau), ratio))
    return DiniConstantReport(C_fit=worst, table=table, p0=float(p0))


# -- finite-difference jets -----------------------------------------------


def _require_interior(field: GridField, idx, ring: int = 1):
    idx = tuple(int(i) for i in idx)
    if any(i < ring or i > field.N - 1 - ring for i in idx):
        raise DomainError(f"node {idx} is within {ring} ring(s) of the boundary")
    return idx


class StencilEntry(NamedTuple):
    """One jet entry: the derivative along the axes in ``index`` (one axis
    for a gradient component, two for a Hessian entry) is
    sum_k weights[k] * u(x + h offsets[k]) / (c h^p), p = len(index)."""

    index: tuple
    offsets: tuple
    weights: tuple
    c: float

    @property
    def p(self) -> int:
        return len(self.index)


def central_stencil(n: int) -> list:
    """Second-order central differences for the Hessian (diagonal entries,
    then the 4-point cross for a < b) and the gradient.

    Exact on quadratics up to round-off.  The offset order is part of the
    contract: it fixes the floating-point summation order of every jet.
    """
    e = np.eye(n, dtype=int)
    rows = [StencilEntry((a, a), (e[a], 0 * e[a], -e[a]), (1.0, -2.0, 1.0), 1.0)
            for a in range(n)]
    rows += [StencilEntry((a, b), (e[a] + e[b], e[a] - e[b], e[b] - e[a], -e[a] - e[b]),
                        (1.0, -1.0, -1.0, 1.0), 4.0)
             for a in range(n) for b in range(a + 1, n)]
    rows += [StencilEntry((a,), (e[a], -e[a]), (1.0, -1.0), 2.0) for a in range(n)]
    return rows


def shifted_interior(vals: np.ndarray, offset) -> np.ndarray:
    """vals at the interior nodes moved by ``offset``, shape (N-2,)*n."""
    N = vals.shape[0]
    return vals[tuple(slice(1 + o, N - 1 + o) for o in offset)]


def interior_jets(vals: np.ndarray, n: int, h: float):
    """Hessians (..., n, n) and gradients (..., n) at all interior nodes
    of a grid-shaped array (N,)*n, from ``central_stencil(n)``."""
    shape = (vals.shape[0] - 2,) * n
    H = np.zeros(shape + (n, n))
    G = np.zeros(shape + (n,))
    for entry in central_stencil(n):
        terms = [w * shifted_interior(vals, off) for off, w in zip(entry.offsets, entry.weights)]
        d = sum(terms[1:], terms[0]) / (entry.c * h**entry.p)
        if entry.p == 1:
            G[..., entry.index[0]] = d
        else:
            a, b = entry.index
            H[..., a, b] = H[..., b, a] = d
    return H, G


def _node_jets(field: GridField, idx):
    if field.components != 1:
        raise ConfigError("jets are defined for scalar fields")
    idx = _require_interior(field, idx)
    block = field.values[tuple(slice(i - 1, i + 2) for i in idx)]
    H, G = interior_jets(block, field.n, field.h)
    return H.reshape(field.n, field.n), G.reshape(field.n)


def gradient_central(field: GridField, idx) -> np.ndarray:
    """Second-order central-difference gradient at an interior node."""
    return _node_jets(field, idx)[1]


def hessian_central(field: GridField, idx) -> SymMatrix:
    """Central-difference Hessian; the 4-point cross stencil off-diagonal.

    Exact on quadratics up to round-off.
    """
    return SymMatrix.from_matrix(_node_jets(field, idx)[0])


# -- file I/O --------------------------------------------------------------


def save_field(field: GridField, path) -> None:
    """Write `n N L components` header then row-major values, 17 significant
    digits, so load_field(save_field(f)) reproduces f bit for bit."""
    flat = field.values.reshape(-1)
    with open(path, "w") as fh:
        fh.write(f"{field.n} {field.N} {field.L:.17g} {field.components}\n")
        for start in range(0, len(flat), 8):
            fh.write(" ".join(f"{v:.17g}" for v in flat[start : start + 8]) + "\n")


def load_field(path) -> GridField:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 4:
            raise ConfigError(f"malformed field header in {path}")
        n, N = int(header[0]), int(header[1])
        L, components = float(header[2]), int(header[3])
        flat = np.fromstring(fh.read(), sep=" ")
    shape = (N,) * n + (() if components == 1 else (components,))
    if flat.size != int(np.prod(shape)):
        raise ConfigError(f"field body in {path} has {flat.size} values, expected {np.prod(shape)}")
    return GridField(n, N, L, flat.reshape(shape), components)


# -- analytic test profiles -------------------------------------------------


@dataclass(frozen=True)
class Polynomial2D:
    """c + b.x + x^T M x / 2 with exact jets, for manufactured solutions."""

    c: float
    b: np.ndarray
    M: SymMatrix

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        quad = 0.5 * np.einsum("...i,ij,...j->...", pts, self.M.matrix, pts)
        return self.c + pts @ np.asarray(self.b, dtype=float) + quad

    def gradient(self, pts) -> np.ndarray:
        """Gradients (..., n) at stacked points (..., n)."""
        return np.asarray(self.b, dtype=float) + np.asarray(pts, dtype=float) @ self.M.matrix

    def hessian(self, pts) -> np.ndarray:
        """The constant Hessian broadcast to (..., n, n) over stacked points."""
        mat = self.M.matrix
        return np.broadcast_to(mat, np.shape(pts)[:-1] + mat.shape).copy()


def radial_power(power: float, coeff: float = 1.0) -> Callable:
    """coeff * ||x||^power; the workhorse for fractional-regularity fields."""

    def f(pts: np.ndarray) -> np.ndarray:
        r = np.linalg.norm(np.asarray(pts, dtype=float), axis=-1)
        return coeff * r**power

    f.__name__ = f"radial_power_{power:g}"
    return f


def harmonic_cubic(pts: np.ndarray) -> np.ndarray:
    """x1^3 - 3 x1 x2^2, harmonic with Hessian modulus O(r)."""
    pts = np.asarray(pts, dtype=float)
    return pts[..., 0] ** 3 - 3.0 * pts[..., 0] * pts[..., 1] ** 2


PROFILES = {
    "zero": lambda pts: np.zeros(np.asarray(pts).shape[:-1]),
    "half_norm_sq": lambda pts: 0.5 * np.sum(np.asarray(pts, dtype=float) ** 2, axis=-1),
    "harmonic_cubic": harmonic_cubic,
    "radial_5_2": radial_power(2.5),
    "radial_1_2": radial_power(0.5),
}


def profile(name: str) -> Callable:
    try:
        return PROFILES[name]
    except KeyError:
        raise ConfigError(f"unknown profile {name!r}; known: {sorted(PROFILES)}")
