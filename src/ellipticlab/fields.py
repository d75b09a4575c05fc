"""Grid-sampled fields on squares containing the unit ball.

Scalar fields (solutions, sources) and n-component fields (drifts) live
on a uniform grid over [-L, L]^n with an odd node count per side, so the
origin is always a node.  The module provides balls as bool masks on their
index boxes (``ball_window``, the one way a ball's nodes are read), L^p
ball-averaged norms, modulus-constant estimation from those averages, the
central-difference stencil table behind every jet (and behind the solver's
residual and Jacobian), a text file format of hex words with bit-exact
round trips, written and read in blocks of 2^16 values so that no copy of
the whole body is held, and the analytic profiles and exact solutions
(with their derivatives) behind manufactured-solution studies.  Sampling
and ball masks, like the audit's fit moments and sup residuals, run over
the grid in ``row_blocks`` of 2^16 nodes, whole rows along the first axis,
so no float temporary the size of the grid is held; the solver's residuals
and Jacobians run over their interior Hessian stacks in blocks of 2^16
values, so that a block's temporaries stay in cache.
"""

from __future__ import annotations

import math
import os
import stat
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DegenerateModulusError, DomainError, EllipticLabError
from .moduli import Modulus
from .operators import SymMatrix


def check_grid(n: int, N: int, L: float, components: int = 1) -> None:
    """Raise ConfigError unless (n, N, L, components) describe a GridField;
    callers check before they allocate (N,)*n arrays."""
    if n not in (2, 3):
        raise ConfigError("GridField supports n = 2 or 3")
    if N < 3 or N % 2 == 0:
        raise ConfigError("node count N must be odd and >= 3")
    if not 1.0 <= L < math.inf:
        raise ConfigError("half-width L must be finite and >= 1")
    if components < 1:
        raise ConfigError("components must be >= 1")


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
        check_grid(self.n, self.N, self.L, self.components)
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

    def scale(self, c: float) -> "GridField":
        return GridField(self.n, self.N, self.L, self.values * float(c), self.components)


# Nodes per block of a full-grid pass, and values per block of a field file's
# body (8192 lines, 1.1 MB of text).  A multiple of 8, so that every block of
# a body but the last ends a line.
_CHUNK_VALUES = 2**16


def row_blocks(shape) -> list:
    """Slices of the first axis of an array of ``shape``: runs of whole rows
    (slabs in 3-D) of about ``_CHUNK_VALUES`` values each (nodes, for a
    grid's own shape; 16k nodes of an (N-2,)*2 + (2, 2) Hessian stack at
    N=257), at least one row, in order.  Full-grid passes run block by
    block over them, so that no temporary the size of the grid is held."""
    rows = max(1, _CHUNK_VALUES // max(1, math.prod(shape[1:])))
    return [slice(i, min(i + rows, shape[0])) for i in range(0, shape[0], rows)]


def sample_function(f: Callable, n: int = 2, N: int = 65, L: float = 1.0,
                    components: int = 1) -> GridField:
    """Evaluate ``f`` nodewise.  The callback receives stacked coordinates
    of shape (..., n) and must return real values that broadcast to (...,)
    or (..., components); anything else, or a non-finite value, raises
    DomainError, but a package error the callback raises keeps its class.
    It is called once per ``row_blocks`` block of the grid."""
    check_grid(n, N, L, components)
    tail = () if components == 1 else (components,)
    form = "(...,)" if components == 1 else f"(..., {components})"
    # all zeros, so it passes GridField's checks; each block is checked as
    # it is filled in place
    field = GridField(n, N, L, np.zeros((N,) * n + tail), components)
    c = field.axis_coords()
    for blk in row_blocks((N,) * n):
        pts = np.stack(np.meshgrid(c[blk], *([c] * (n - 1)), indexing="ij"), axis=-1)
        want = pts.shape[:-1] + tail
        expected = f"{want}, {form} for points {pts.shape}"
        try:
            out = np.asarray(f(pts))
            if not np.iscomplexobj(out):
                out = np.asarray(out, dtype=float)
        except EllipticLabError:   # keeps its class: mms_generate's ConfigError
            raise
        except Exception as exc:  # pragma: no cover - message plumbing
            raise DomainError(f"field evaluation failed on the grid: {exc}") from exc
        if np.iscomplexobj(out):
            raise DomainError(f"field values must be real, of shape {expected}; got complex ones")
        try:
            field.values[blk] = np.broadcast_to(out, want)
        except ValueError:
            raise DomainError(f"field values of shape {out.shape} do not broadcast to "
                              f"{expected}") from None
        bad = np.argwhere(~np.isfinite(field.values[blk]))
        if len(bad):
            idx = (blk.start + int(bad[0][0]),) + tuple(int(i) for i in bad[0][1:])
            raise DomainError(f"non-finite field value at node index {idx}")
    return field


# -- ball-averaged L^p norms ----------------------------------------------


def ball_window(field: GridField, x0_idx, r: float):
    """The closed ball B_r(x0) as a mask on its index box: ``box`` holds one
    slice per axis, ``axes`` each axis's displacements x_a - x0_a over its
    slice, and ``mask`` (C-contiguous bool, the box's shape) marks the ball's
    nodes, so ``field.values[box][mask]`` are its values in row-major order.

    A ball that leaves the square, |x0_i| + r > L on some axis (NaN r
    included), raises DomainError.  The box is x0_idx +- (floor(r/h) + 1),
    clipped to the grid, so the cost is O((r/h)^n), not O(N^n); on a ball
    touching the edge the box overshoots the grid by one node.  The mask is
    sqrt(sq) <= r + 1e-12 on squared distances sq summed axis by axis, in
    np.linalg.norm's order, filled one ``row_blocks`` block of the box at a
    time.
    """
    x0 = field.node_coords(x0_idx)
    if not np.all(np.abs(x0) + r <= field.L + 1e-12):
        raise DomainError("ball extends outside the grid square")
    reach = math.floor(r / field.h) + 1
    box = tuple(slice(max(int(i) - reach, 0), int(i) + reach + 1) for i in x0_idx)
    c = field.axis_coords()
    axes = [c[w] - x0[a] for a, w in enumerate(box)]
    shape = tuple(len(t) for t in axes)
    mask = np.empty(shape, dtype=bool)
    for blk in row_blocks(shape):
        sq = 0.0
        for a, t in enumerate([axes[0][blk]] + axes[1:]):
            sq = sq + (t * t).reshape((-1,) + (1,) * (field.n - 1 - a))
        mask[blk] = np.sqrt(sq) <= r + 1e-12
    return box, axes, mask


def ball_average_lp(field: GridField, x0_idx, r: float, p0: float | None = None) -> float:
    """(average over nodes in B_r(x0) of |f - f(x0)|^p0)^(1/p0).

    Equal node weights, no partial-cell corrections.  For n-component
    fields the pointwise difference uses the Euclidean norm.
    """
    if p0 is None:
        p0 = 2 * field.n + 1
    if p0 <= field.n:
        raise ConfigError("p0 must exceed the dimension n")
    if r < 2.0 * field.h:
        raise DomainError("radius must be at least 2h")
    box, _, mask = ball_window(field, x0_idx, r)
    vals = field.values[box][mask]
    diff = vals - field.values[tuple(int(i) for i in x0_idx)]
    mag = np.abs(diff) if field.components == 1 else np.linalg.norm(diff, axis=-1)
    return float(np.mean(mag ** p0) ** (1.0 / p0))


@dataclass(frozen=True)
class DiniConstantReport:
    C_fit: float
    table: list  # rows (center_idx, r, average, tau, ratio)
    p0: float


def dini_lp_constant(field: GridField, mod: Modulus, centers: Sequence,
                     radii: Sequence[float]) -> DiniConstantReport:
    """Fit the smallest C with ball_average_lp(x0, r) <= C tau(r), p0 = 2n + 1.

    Returns the max ratio together with the full ratio table so the user
    sees where the bound binds.
    """
    table = []
    worst = 0.0
    for c in centers:
        for r in radii:
            tau = mod.evaluate(r)
            if tau <= 0.0:
                raise DegenerateModulusError(f"modulus vanishes at sampled radius r={r}")
            avg = ball_average_lp(field, c, r)
            ratio = avg / tau
            worst = max(worst, ratio)
            table.append((tuple(int(i) for i in c), float(r), avg, float(tau), ratio))
    return DiniConstantReport(C_fit=worst, table=table, p0=float(2 * field.n + 1))


# -- finite-difference jets -----------------------------------------------


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
    """vals at its interior nodes moved by ``offset``: a view shaped
    (m_k - 2) along each axis k of length m_k, so a slab of whole rows
    with one halo row each side gives the jets of its inner rows."""
    return vals[tuple(slice(1 + o, m - 1 + o) for m, o in zip(vals.shape, offset))]


def interior_jets(vals: np.ndarray, n: int, h: float):
    """Hessians (..., n, n) and gradients (..., n) at the interior nodes of
    an array whose first n axes are grid axes, from ``central_stencil(n)``:
    all of a grid-shaped (N,)*n array, or the inner rows of a slab of rows.

    Each entry sums its terms in stencil order, adding a term of weight 1
    and subtracting one of weight -1 instead of multiplying by the weight;
    since x + (-y) is x - y in IEEE arithmetic, the jets are bit for bit
    those of sum_k weights[k] * u(x + h offsets[k]) / (c h^p)."""
    shape = tuple(m - 2 for m in vals.shape[:n])
    H = np.empty(shape + (n, n))
    G = np.empty(shape + (n,))
    for entry in central_stencil(n):
        d = None
        for off, w in zip(entry.offsets, entry.weights):
            t = shifted_interior(vals, off)
            t = t if abs(w) == 1.0 else abs(w) * t
            d = (t if w > 0 else -t) if d is None else (d + t if w > 0 else d - t)
        d = d / (entry.c * h**entry.p)
        if entry.p == 1:
            G[..., entry.index[0]] = d
        else:
            a, b = entry.index
            H[..., a, b] = H[..., b, a] = d
    return H, G


# -- file I/O --------------------------------------------------------------


# The bytes bytes.fromhex skips between hex pairs: ASCII whitespace.
_SPACE = b" \t\n\v\f\r"


def save_field(field: GridField, path) -> None:
    """Write the `n N L components` header, then the row-major values as hex
    words, each the 16 lowercase hex digits of the value's big-endian binary64
    bit pattern (1.0 is 3ff0000000000000), space-separated and 8 to a line,
    so load_field(save_field(f)) reproduces f bit for bit.  The body is
    formatted and written ``_CHUNK_VALUES`` values at a time."""
    flat = field.values.reshape(-1)
    with open(path, "wb") as fh:
        fh.write(f"{field.n} {field.N} {field.L:.17g} {field.components}\n".encode())
        for start in range(0, flat.size, _CHUNK_VALUES):
            block = flat[start : start + _CHUNK_VALUES].astype(">f8").tobytes()
            text = bytearray(block.hex(" ", 8), "ascii")
            np.frombuffer(text, np.uint8)[135::136] = ord("\n")   # every 8th separator
            fh.write(text)
            fh.write(b"\n")


def _pair_boundary(text: bytes) -> int:
    """The length of the longest prefix of ``text`` that bytes.fromhex parses
    exactly as it would the whole: up to the last whitespace byte, or, with
    none, the even part of one run of digits.  ``text`` must start between
    hex pairs."""
    # a line break is almost always near the end: look for it alone first
    cut = text.rfind(b"\n") + 1 or max(map(text.rfind, _SPACE)) + 1
    return cut or len(text) & ~1


def load_field(path) -> GridField:
    """The field saved at ``path``.  A file that cannot be opened, a
    malformed header, or a body that is not exactly one hex word per value
    (such as the decimal body of older versions) raises ConfigError.  Any
    ASCII whitespace may stand between hex pairs, as bytes.fromhex allows.

    The body is read and decoded about ``_CHUNK_VALUES`` values at a time,
    each block cut between hex pairs and the rest carried to the next, into
    one preallocated buffer of 8 bytes per value, which becomes the field's
    values once its words are byte-swapped in place.  A file too short to hold
    16 bytes per value is decoded and counted without storing, so a header
    that claims more values than its body holds allocates nothing."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ConfigError(f"cannot read field file {path}: {exc}") from None
    with fh:
        line = fh.readline()
        header = line.split()
        if len(header) != 4:
            raise ConfigError(f"malformed field header in {path}")
        try:
            n, N = int(header[0]), int(header[1])
            L, components = float(header[2]), int(header[3])
        except ValueError:
            raise ConfigError(f"malformed field header in {path}") from None
        check_grid(n, N, L, components)
        shape = (N,) * n + (() if components == 1 else (components,))
        count = math.prod(shape)
        # a body under 16 bytes a value cannot fill the buffer: count it
        # without one (a pipe's size is unknown, so it gets the buffer)
        st = os.fstat(fh.fileno())
        fits = not stat.S_ISREG(st.st_mode) or st.st_size - len(line) >= 16 * count
        raw, size, carry = bytearray(8 * count if fits else 0), 0, b""
        while True:
            chunk = fh.read(17 * _CHUNK_VALUES)
            text = carry + chunk
            cut = _pair_boundary(text) if chunk else len(text)
            try:
                block = bytes.fromhex(text[:cut].decode("ascii"))
            except ValueError:   # UnicodeDecodeError included
                raise ConfigError(f"field body in {path} is not hex words; regenerate the "
                                  "file with this version of save_field") from None
            if size + len(block) <= len(raw):
                raw[size : size + len(block)] = block
            size += len(block)
            carry = text[cut:]
            if not chunk:
                break
    if size != 8 * count:
        raise ConfigError(f"field body in {path} has {size} bytes, expected {count} values "
                          f"of 8 bytes")
    vals = np.frombuffer(raw, ">f8")
    if not vals.dtype.isnative:   # swapped in place, not copied
        vals = vals.byteswap(inplace=True).view(vals.dtype.newbyteorder())
    return GridField(n, N, L, vals.reshape(shape), components)


# -- analytic test profiles -------------------------------------------------


@dataclass(frozen=True)
class Polynomial2D:
    """c + b.x + x^T M x / 2 with exact jets: a manufactured solution, or the
    jet an audit fits in the displacement from its ball's centre.  ``b``
    must have M.n entries; a non-finite c or b raises DomainError."""

    c: float
    b: np.ndarray
    M: SymMatrix

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        if b.shape != (self.M.n,):
            raise ConfigError(f"quadratic gradient b must have {self.M.n} entries, one per axis")
        if not (np.isfinite(self.c) and np.all(np.isfinite(b))):
            raise DomainError("quadratic coefficients c and b must be finite")
        object.__setattr__(self, "b", b)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        quad = 0.5 * np.einsum("...i,ij,...j->...", pts, self.M.matrix, pts)
        return self.c + pts @ self.b + quad

    def gradient(self, pts) -> np.ndarray:
        """Gradients (..., n) at stacked points (..., n)."""
        return self.b + np.asarray(pts, dtype=float) @ self.M.matrix

    def hessian(self, pts) -> np.ndarray:
        """The constant Hessian broadcast to (..., n, n) over stacked points."""
        mat = self.M.matrix
        return np.broadcast_to(mat, np.shape(pts)[:-1] + mat.shape).copy()

    def describe(self) -> dict:
        return {"c": float(self.c), "b": [float(v) for v in self.b], "M": self.M.matrix.tolist()}


@dataclass(frozen=True)
class AnalyticSolution:
    """A twice-differentiable profile with vectorized exact derivatives.

    Each callable maps stacked points (..., n) to values (...,),
    gradients (..., n), and Hessians (..., n, n).
    """

    value: Callable
    gradient: Callable
    hessian: Callable


def quadratic_solution(c: float, b, M: SymMatrix) -> AnalyticSolution:
    q = Polynomial2D(c, b, M)
    return AnalyticSolution(q, q.gradient, q.hessian)


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

    return AnalyticSolution(val, grad, hess)


def radial_power(power: float) -> Callable:
    """||x||^power; the workhorse for fractional-regularity fields."""

    def f(pts: np.ndarray) -> np.ndarray:
        r = np.linalg.norm(np.asarray(pts, dtype=float), axis=-1)
        return r**power

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
