import dataclasses
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ellipticlab import operators as ops
from ellipticlab.errors import BracketError, ConfigError, DomainError, NonDifferentiableError

PAIR = ops.EllipticityPair(1.0, 2.0)


def random_sym(rng, n, scale=1.0):
    g = rng.standard_normal((n, n))
    return ops.SymMatrix.from_matrix(scale * 0.5 * (g + g.T))


class TestSymMatrix:
    def test_packed_round_trip(self):
        A = np.array([[1.0, 2.0], [2.0, -3.0]])
        M = ops.SymMatrix.from_matrix(A)
        np.testing.assert_array_equal(M.matrix, A)

    def test_symmetrizes(self):
        M = ops.SymMatrix.from_matrix([[0.0, 1.0], [3.0, 0.0]])
        assert M.matrix[0, 1] == M.matrix[1, 0] == 2.0

    def test_dimension_guard(self):
        with pytest.raises(ConfigError):
            ops.SymMatrix.from_matrix(np.eye(5))

    def test_arithmetic(self):
        M = ops.SymMatrix.diagonal([1.0, 2.0])
        np.testing.assert_allclose(M.add_identity(-1.0).matrix, np.diag([0.0, 1.0]))

    def test_rejects_bad_arrays(self):
        with pytest.raises(ConfigError):
            ops.SymMatrix(2, [[0.0, 1.0], [3.0, 0.0]])   # not symmetric
        with pytest.raises(ConfigError):
            ops.SymMatrix(2, np.zeros(3))                 # packed-length vector
        with pytest.raises(ConfigError):
            ops.SymMatrix(3, np.eye(2))
        with pytest.raises(ConfigError):
            ops.SymMatrix.from_matrix(np.zeros((2, 3)))
        with pytest.raises(DomainError):
            ops.SymMatrix(2, [[np.inf, 0.0], [0.0, 1.0]])
        with pytest.raises(DomainError):   # mirrored infinities: inf + (-inf)
            ops.SymMatrix.from_matrix([[np.inf, -np.inf], [np.inf, 0.0]])

    def test_matrix_read_only_and_owned(self):
        A = np.eye(2)
        M = ops.SymMatrix(2, A)
        with pytest.raises(ValueError):
            M.matrix[0, 0] = 5.0
        A[0, 0] = 5.0   # the caller's array stays writable and detached
        assert M.matrix[0, 0] == 1.0


class TestPucci:
    def test_psd_matrix(self):
        # all eigenvalues positive: P+ = Lam * tr, P- = lam * tr
        M = ops.SymMatrix.diagonal([1.0, 3.0])
        assert ops.pucci_plus(M, PAIR) == pytest.approx(8.0)
        assert ops.pucci_minus(M, PAIR) == pytest.approx(4.0)

    def test_mixed_signs(self):
        M = ops.SymMatrix.diagonal([1.0, -1.0])
        assert ops.pucci_plus(M, PAIR) == pytest.approx(1.0)   # 2*1 - 1*1
        assert ops.pucci_minus(M, PAIR) == pytest.approx(-1.0)

    def test_duality(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 4):
            for _ in range(20):
                M = random_sym(rng, n, scale=3.0)
                assert ops.pucci_minus(M, PAIR) == pytest.approx(
                    -ops.pucci_plus(-1.0 * M, PAIR), abs=1e-12)

    def test_sampled_sup_never_exceeds_closed_form(self):
        rng = np.random.default_rng(1)
        for k in range(10):
            M = random_sym(rng, 2, scale=2.0)
            closed = ops.pucci_plus(M, PAIR)
            sampled = ops.pucci_sup_sampled(M, PAIR, n_samples=4000, seed=k)
            assert sampled <= closed + 1e-10
            assert sampled >= closed - 5e-2

    def test_batched(self):
        rng = np.random.default_rng(2)
        g = rng.standard_normal((7, 3, 3))
        mats = 0.5 * (g + np.swapaxes(g, 1, 2))
        vals = ops.pucci_plus(mats, PAIR)
        assert vals.shape == (7,)
        assert vals[3] == pytest.approx(ops.pucci_plus(
            ops.SymMatrix.from_matrix(mats[3]), PAIR))


# 2 x 2 symmetric matrices for the closed-form kernel: entries in [-1, 1]
# (zero or at least 1e-100 in size, so no product below underflows), a
# structure, and a scale 10^k for |k| <= 150.
_UNIT = st.floats(min_value=-1.0, max_value=1.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-100)


@st.composite
def sym2(draw, scaled=True):
    a, b, c = draw(_UNIT), draw(_UNIT), draw(_UNIT)
    shape = draw(st.sampled_from(["general", "diagonal", "a_eq_c", "zero"]))
    if shape == "diagonal":
        b = 0.0
    elif shape == "a_eq_c":
        c = a
    elif shape == "zero":
        a = b = c = 0.0
    scale = 10.0 ** draw(st.integers(min_value=-150, max_value=150)) if scaled else 1.0
    return np.array([[a, b], [b, c]]) * scale


def pucci_digits(M, up, down):
    """The Pucci value of a 2 x 2 float matrix in 60-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 60
        a, b, c = (Decimal(float(v)) for v in (M[0, 0], M[1, 0], M[1, 1]))
        m, r = (a + c) / 2, (((a - c) / 2) ** 2 + b * b).sqrt()
        return sum(Decimal(up if e > 0 else down) * e for e in (m - r, m + r))


def pucci_eigvalsh(M, up, down):
    eigs = np.linalg.eigvalsh(M)
    return up * np.sum(np.maximum(eigs, 0.0)) - down * np.sum(np.maximum(-eigs, 0.0))


_EPS = np.finfo(float).eps


@given(sym2())
@settings(max_examples=300, deadline=None)
def test_pucci_2x2_closed_form_matches_references(M):
    """Within 8 eps max|M| of the value in exact arithmetic.  LAPACK's own
    value is off by up to 6.7 eps max|M| on random [-1, 1] entries, so the
    eigvalsh-based reference is matched within twice that bound."""
    tol = 8.0 * _EPS * np.max(np.abs(M))
    for fn, up, down in ((ops.pucci_plus, PAIR.Lam, PAIR.lam),
                         (ops.pucci_minus, PAIR.lam, PAIR.Lam)):
        val = fn(M, PAIR)
        assert isinstance(val, float) and isinstance(fn(ops.SymMatrix(2, M), PAIR), float)
        assert abs(Decimal(val) - pucci_digits(M, up, down)) <= Decimal(tol)
        assert abs(val - pucci_eigvalsh(M, up, down)) <= 2.0 * tol
        np.testing.assert_array_equal(fn(np.stack([M, -M]), PAIR), [val, fn(-M, PAIR)])


def rotation3(alpha, beta, gamma):
    """The rotation R_z(alpha) R_y(beta) R_z(gamma)."""
    def rz(t):
        c, s = np.cos(t), np.sin(t)
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

    c, s = np.cos(beta), np.sin(beta)
    return rz(alpha) @ np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]]) @ rz(gamma)


_ANGLE = st.floats(min_value=0.0, max_value=2.0 * np.pi)
# a gap of 0 or 10^-k between two eigenvalues, either sign
_GAP = st.one_of(st.just(0.0), st.integers(1, 16).map(lambda k: 10.0**-k),
                 st.integers(1, 16).map(lambda k: -(10.0**-k)))


@st.composite
def sym3(draw):
    """3 x 3 symmetric matrices from ``_UNIT`` entries: a structure, then a
    scale 10^k, |k| <= 150.
    The spectral ones, Q diag(lambda) Q^T, have a pair of eigenvalues
    exactly or nearly repeated, around a value in [-1, 1] or straddling 0."""
    shape = draw(st.sampled_from(["general", "diagonal", "scalar", "zero", "rank_one",
                                  "repeated", "straddling"]))
    unit = [draw(_UNIT) for _ in range(6)]
    if shape == "general":
        M = np.array(unit)[[[0, 3, 4], [3, 1, 5], [4, 5, 2]]]
    elif shape == "diagonal":
        M = np.diag(unit[:3])
    elif shape == "scalar":
        M = unit[0] * np.eye(3)
    elif shape == "zero":
        M = np.zeros((3, 3))
    elif shape == "rank_one":
        M = unit[0] * np.outer(unit[1:4], unit[1:4])
    else:
        gap = draw(_GAP)
        if shape == "repeated":
            lam = [unit[0], unit[0] + gap, unit[1]]
        else:
            lam = [gap, -gap * abs(unit[0]), unit[1]]
        Q = rotation3(draw(_ANGLE), draw(_ANGLE), draw(_ANGLE))
        M = Q @ np.diag(lam) @ Q.T
        M = 0.5 * (M + M.T)
    return M * 10.0 ** draw(st.integers(min_value=-150, max_value=150))


@given(sym3())
@settings(max_examples=300, deadline=None)
def test_pucci_3x3_closed_form_matches_eigvalsh(M):
    """Within 64 eps max|M| of the value from LAPACK's eigenvalues (at most
    32 measured over adversarial families), batched and dual."""
    tol = 64.0 * _EPS * np.max(np.abs(M))
    for fn, up, down in ((ops.pucci_plus, PAIR.Lam, PAIR.lam),
                         (ops.pucci_minus, PAIR.lam, PAIR.Lam)):
        val = fn(M, PAIR)
        assert isinstance(val, float) and isinstance(fn(ops.SymMatrix(3, M), PAIR), float)
        assert abs(val - pucci_eigvalsh(M, up, down)) <= tol
        np.testing.assert_array_equal(fn(np.stack([M, -M]), PAIR), [val, fn(-M, PAIR)])
    assert abs(ops.pucci_minus(M, PAIR) + ops.pucci_plus(-M, PAIR)) <= tol


def test_pucci_3x3_sends_only_nearly_repeated_spectra_to_lapack(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def recorded(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    Q = rotation3(0.3, 1.1, -0.7)
    distinct, repeated = (Q @ np.diag(lam) @ Q.T for lam in ([1.0, -0.5, 0.3], [1.0, 1.0, -2.0]))
    mats = np.stack([distinct, repeated, 2.0 * np.eye(3), np.zeros((3, 3)), distinct])
    vals = ops.pucci_plus(mats, PAIR)
    assert calls == [(1, 3, 3)]   # the repeated one; q alone gives the scalar matrices
    np.testing.assert_allclose(vals, [2.1, 2.0, 12.0, 0.0, 2.1], rtol=1e-14)
    assert vals[2] == 12.0 and vals[3] == 0.0
    calls.clear()
    assert ops.pucci_minus(distinct, PAIR) == pytest.approx(0.3, rel=1e-14) and calls == []


def test_pucci_3x3_non_finite_matrix_is_nan():
    M = np.stack([np.diag([np.inf, 1.0, 2.0]), np.full((3, 3), np.nan), np.eye(3)])
    vals = ops.pucci_plus(M, PAIR)
    assert np.isnan(vals[:2]).all() and vals[2] == 6.0


@given(sym2(scaled=False), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_pucci_sampled_sup_below_2x2_closed_form(M, seed):
    assert ops.pucci_sup_sampled(M, PAIR, n_samples=2000, seed=seed) <= (
        ops.pucci_plus(M, PAIR) + 1e-12)


_ENTRY = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(allow_nan=False, allow_infinity=False,
                                                             min_value=-1e300, max_value=1e300))


@given(st.sampled_from([2, 3]), st.sampled_from([(), (1,), (4,), (3, 5)]), st.data(),
       st.floats(min_value=0.0, max_value=2.0))
@settings(max_examples=200, deadline=None)
def test_perturbed_trace_core_is_the_np_trace_formula(n, shape, data, eps):
    """The core sums the diagonal itself, bit for bit as np.trace does,
    signed zeros included."""
    H = np.array(data.draw(st.lists(_ENTRY, min_size=n * n * int(np.prod(shape)),
                                    max_size=n * n * int(np.prod(shape)))), dtype=float)
    H = H.reshape(shape + (n, n))
    want = np.trace(H, axis1=-2, axis2=-1) + eps * (
        np.sin(H[..., 0, 0]) * (1.0 - np.cos(H[..., 1, 1])))
    got = ops.perturbed_trace(eps, n).core(H)
    assert np.shape(got) == shape
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestOperatorSpec:
    def test_linear_trace(self):
        op = ops.linear_trace(np.diag([1.0, 2.0]))
        assert op.pair.lam == 1.0 and op.pair.Lam == 2.0
        M = ops.SymMatrix.from_matrix([[1.0, 5.0], [5.0, 1.0]])
        assert op.evaluate(M) == pytest.approx(3.0)

    def test_zero_normalization(self):
        for op in (ops.linear_trace(np.eye(2)), ops.pucci_plus_op(PAIR),
                   ops.perturbed_trace(0.3)):
            assert op.evaluate(ops.SymMatrix.zero(op.n)) == 0.0

    def test_perturbed_trace_formula(self):
        op = ops.perturbed_trace(0.2)
        M = ops.SymMatrix.diagonal([0.5, 1.5])
        want = 2.0 + 0.2 * np.sin(0.5) * (1.0 - np.cos(1.5))
        assert op.evaluate(M) == pytest.approx(want, rel=1e-14)

    def test_x_dependence_multiplicative(self):
        a = lambda xs: 1.0 + 0.5 * np.asarray(xs)[..., 0]
        op = ops.linear_trace(np.eye(2), x_dependence=a)
        M = ops.SymMatrix.identity(2)
        assert op.evaluate(M, [0.4, 0.0]) == pytest.approx(2.4)
        assert op.evaluate(ops.SymMatrix.zero(2), [0.4, 0.0]) == 0.0

    def test_extension_kind(self):
        op = ops.extension(lambda H: np.trace(H, axis1=-2, axis2=-1),
                           PAIR, callback_id="trace")
        assert op.evaluate(ops.SymMatrix.identity(2)) == pytest.approx(2.0)

    def test_describe_per_kind(self):
        def bump(xs):
            return 1.0 + np.asarray(xs)[..., 0] ** 2

        common = {"n": 2, "matrix_norm": "frobenius", "lambda": 1.0, "Lambda": 2.0}
        trace = lambda H: np.trace(H, axis1=-2, axis2=-1)
        cases = [
            (ops.linear_trace(np.diag([1.0, 2.0])), {"matrix": [[1.0, 0.0], [0.0, 2.0]]}),
            (ops.pucci_plus_op(PAIR), {}),
            (ops.pucci_minus_op(PAIR), {}),
            (ops.perturbed_trace(0.25, pair=PAIR), {"eps": 0.25}),
            (ops.extension(trace, PAIR, callback_id="trace"), {"callback_id": "trace"}),
            (ops.linear_trace(np.diag([1.0, 2.0]), x_dependence=bump),
             {"matrix": [[1.0, 0.0], [0.0, 2.0]], "x_dependence": "bump"}),
        ]
        for op, extra in cases:
            assert op.describe() == dict(common, kind=op.params["kind"], **extra)
        matrix = cases[0][0].describe()["matrix"]
        assert all(type(v) is float for row in matrix for v in row)

    def test_equality_compares_kind_and_params(self):
        A = np.diag([1.0, 2.0])
        assert ops.linear_trace(A) == ops.linear_trace(A)
        assert ops.linear_trace(A) != ops.linear_trace(np.diag([1.0, 3.0]), pair=PAIR)
        assert ops.linear_trace(A) != ops.pucci_plus_op(PAIR)
        assert ops.perturbed_trace(0.25) == ops.perturbed_trace(0.25)
        assert ops.perturbed_trace(0.25, pair=PAIR) != ops.perturbed_trace(0.5, pair=PAIR)
        assert ops.pucci_plus_op(PAIR) == ops.pucci_plus_op(PAIR)
        assert ops.pucci_plus_op(PAIR) != ops.pucci_minus_op(PAIR)

    @pytest.mark.parametrize("pair", [(1.0, 2.0), [1.0, 2.0], {"lambda": 1.0, "Lambda": 2.0},
                                      1.0, None], ids=["tuple", "list", "dict", "float", "None"])
    def test_pair_must_be_an_ellipticity_pair(self, pair):
        trace = lambda H: np.trace(H, axis1=-2, axis2=-1)
        builds = [lambda: ops.pucci_minus_op(pair), lambda: ops.pucci_plus_op(pair, 3),
                  lambda: ops.extension(trace, pair),
                  lambda: ops.pucci_minus_op(1, 2)]   # the pair's two numbers, not a pair
        if pair is not None:   # None asks for the default pair
            builds += [lambda: ops.linear_trace(np.eye(2), pair=pair),
                       lambda: ops.perturbed_trace(0.1, pair=pair)]
        for build in builds:
            with pytest.raises(ConfigError, match="EllipticityPair"):
                build()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_factory_but_extension_sets_slopes(self, n):
        for op in (ops.linear_trace(np.eye(n)), ops.pucci_plus_op(PAIR, n),
                   ops.pucci_minus_op(PAIR, n), ops.perturbed_trace(0.1, n)):
            assert callable(op.slopes), op.params["kind"]
        trace = lambda H: np.trace(H, axis1=-2, axis2=-1)
        assert ops.extension(trace, PAIR, n).slopes is None


class TestEllipticity:
    def test_linear_trace_passes(self):
        rep = ops.verify_ellipticity(ops.linear_trace(np.diag([1.2, 1.8]),
                                                      pair=ops.EllipticityPair(1.2, 1.8)))
        assert rep.passed

    def test_pucci_passes_its_own_envelope(self):
        assert ops.verify_ellipticity(ops.pucci_plus_op(PAIR)).passed
        assert ops.verify_ellipticity(ops.pucci_minus_op(PAIR)).passed

    def test_perturbed_trace_passes_with_widened_pair(self):
        assert ops.verify_ellipticity(ops.perturbed_trace(0.1)).passed

    def test_understated_pair_fails(self):
        # declaring the pure-trace pair (1,1) for the perturbed trace
        # ignores the perturbation's spread and must be caught
        op = ops.perturbed_trace(0.3, pair=ops.EllipticityPair(1.0, 1.0))
        rep = ops.verify_ellipticity(op)
        assert not rep.passed
        assert max(rep.max_lower_violation, rep.max_upper_violation) > 0.01

    def test_plan_block(self):
        assert ops.SamplePlan(seed=0).describe() == {
            "seed": 0,
            "count": 400,
            "scales": [0.1, 1.0, 10.0],
            "ray_t_max": 1e3,
            "tolerance": 1e-8,
            "matrix_norm": "frobenius",
        }

    def test_deterministic(self):
        r1 = ops.verify_ellipticity(ops.perturbed_trace(0.1))
        r2 = ops.verify_ellipticity(ops.perturbed_trace(0.1))
        assert r1.max_upper_violation == r2.max_upper_violation


def odd_extension(H):
    """Degree-1 homogeneous and odd: every one-sided slope agrees, but not
    linearly in the direction."""
    a, b, c = H[..., 0, 0], H[..., 1, 1], H[..., 0, 1]
    den = a * a + b * b + c * c
    return np.trace(H, axis1=-2, axis2=-1) + 0.1 * a * b * c / np.where(den > 0, den, 1.0)


def even_extension(H):
    """Degree-1 homogeneous and even: the entry directions see no kink, a
    random direction sees its two sides disagree."""
    a, b = H[..., 0, 0], H[..., 1, 1]
    den = np.sqrt(a * a + b * b)
    return np.trace(H, axis1=-2, axis2=-1) + 0.1 * a * b / np.where(den > 0, den, 1.0)


class TestDerivatives:
    @pytest.mark.parametrize("n", [2, 3])
    def test_linearize_linear_trace_is_its_matrix(self, n):
        rng = np.random.default_rng(3)
        A = random_sym(rng, n).matrix + n * np.eye(n)   # positive definite
        g = rng.standard_normal((4, 5, n, n))
        H = 2.0 * (g + np.swapaxes(g, -1, -2))
        DF = ops.linearize(ops.linear_trace(A), H)
        np.testing.assert_array_equal(DF, np.broadcast_to(A, H.shape))   # exact, no differences

        def a(x):
            return 1.0 + 0.5 * np.sin(x[..., 0]) * np.cos(x[..., -1])

        xs = rng.uniform(-1.0, 1.0, (4, 5, n))
        DF = ops.linearize(ops.linear_trace(A, x_dependence=a), H, xs)
        np.testing.assert_array_equal(DF, a(xs)[..., None, None] * A)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_linearize_pucci_minus_eigenvalues_in_pair(self, n):
        # DF = Q diag(lambda if e > 0 else Lambda) Q^T at H = Q diag(e) Q^T,
        # to round-off
        rng = np.random.default_rng(4)
        q = np.linalg.qr(rng.standard_normal((50, n, n)))[0]
        e = rng.choice([-1.0, 1.0], (50, n)) * rng.uniform(0.5, 2.0, (50, n))
        H = q @ (e[..., None] * np.swapaxes(q, 1, 2))
        DF = ops.linearize(ops.pucci_minus_op(PAIR, n), 0.5 * (H + np.swapaxes(H, 1, 2)))
        want = np.sort(np.where(e > 0, PAIR.lam, PAIR.Lam), axis=-1)
        np.testing.assert_allclose(np.linalg.eigvalsh(DF), want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("directions", ["entry", "random"])
    @pytest.mark.parametrize("step", ["per_matrix", 1e-3, -1e-3])
    def test_slopes_stack_is_the_broadcast_formula(self, n, directions, step):
        # an extension's entry directions with a step per matrix, and
        # tangential_limit's random ones at the zero matrix with a signed step
        rng = np.random.default_rng(n)
        g = rng.standard_normal((4, n, n))
        D = (ops._entry_directions(n) if directions == "entry"
             else 0.5 * (g + np.swapaxes(g, 1, 2)))
        if step == "per_matrix":
            g = rng.standard_normal((5, 4, n, n))
            H = g + np.swapaxes(g, -1, -2)
            s = 1e-6 * (1.0 + np.linalg.norm(H, axis=(-2, -1)))
        else:
            H, s = np.zeros((n, n)), np.asarray(step)
        xs = rng.uniform(-1.0, 1.0, H.shape[:-1])
        stacks = []
        for inner in (ops.pucci_minus_op(PAIR, n), ops.perturbed_trace(0.3, n)):
            def core(M, inner=inner):
                stacks.append(np.array(M))
                return inner.core(M)

            op = dataclasses.replace(ops.extension(core, PAIR, n),
                                     x_dependence=lambda x: 1.0 + x[..., 0]**2)
            Dk = D.reshape(D.shape[:1] + (1,) * (H.ndim - 2) + D.shape[1:])
            want_stack = H + s[..., None, None] * Dk
            want = (op.evaluate_batch(want_stack, xs) - op.evaluate_batch(H, xs)) / s
            stacks.clear()
            got = ops._slopes(op, H, D, s, xs)
            assert got.shape == (len(D),) + H.shape[:-2]
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(next(m for m in stacks if m.ndim == H.ndim + 1),
                                          want_stack)
            base = op.evaluate_batch(H, xs)
            np.testing.assert_array_equal(ops._slopes(op, H, D, s, xs, base), want)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("Lam", [2.0, 4.0, 8.0])
    @pytest.mark.parametrize("factory", [ops.pucci_minus_op, ops.pucci_plus_op],
                             ids=["pucci_minus", "pucci_plus"])
    def test_linearize_at_kinks_stays_in_pair(self, factory, Lam, n):
        # F has no derivative at the zero matrix, at rank-one H or at H with a
        # zero eigenvalue; DF there is still symmetric with eigenvalues in
        # [lambda, Lambda], which a one-sided difference across a kink is not
        pair = ops.EllipticityPair(1.0, Lam)
        rng = np.random.default_rng(n)
        q = np.linalg.qr(rng.standard_normal((20, n, n)))[0]
        t = rng.choice([-1.0, 1.0], 20) * rng.uniform(0.5, 2.0, 20)
        e = rng.choice([-1.0, 1.0], (20, n)) * rng.uniform(0.5, 2.0, (20, n))
        e[:, 0] = 0.0
        v = q[..., 0]
        H = np.concatenate([
            np.zeros((1, n, n)),
            t[:, None, None] * v[:, :, None] * v[:, None, :],   # rank one
            q @ (e[..., None] * np.swapaxes(q, 1, 2)),           # one zero eigenvalue
            [np.diag(d) for d in ([1.0] + [0.0] * (n - 1), [-1.0] + [0.0] * (n - 1),
                                  [-1.0, 0.0] + [2.0] * (n - 2))],
        ])
        DF = ops.linearize(factory(pair, n), 0.5 * (H + np.swapaxes(H, 1, 2)))
        np.testing.assert_array_equal(DF, np.swapaxes(DF, 1, 2))
        eigs = np.linalg.eigvalsh(DF)
        assert np.min(eigs) >= pair.lam - 1e-12 * pair.Lam
        assert np.max(eigs) <= pair.Lam + 1e-12 * pair.Lam

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_kink_rule_takes_the_up_coefficient_at_zero(self, n):
        # a zero eigenvalue gets the coefficient of the nonnegative side:
        # DF(0) = up I, and DF(diag(-1, 0, ..., 0)) = diag(down, up, ..., up)
        H = np.zeros((2, n, n))
        H[1, 0, 0] = -1.0
        for op, up, down in ((ops.pucci_minus_op(PAIR, n), PAIR.lam, PAIR.Lam),
                             (ops.pucci_plus_op(PAIR, n), PAIR.Lam, PAIR.lam)):
            DF = ops.linearize(op, H)
            np.testing.assert_array_equal(DF[0], up * np.eye(n))
            np.testing.assert_allclose(DF[1], np.diag([down] + [up] * (n - 1)),
                                       rtol=0, atol=1e-15)

    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(["linear_trace", "perturbed_trace", "pucci_plus",
                                 "pucci_minus"]),
           n=st.integers(2, 4), with_x=st.booleans(), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_closed_form_slopes_match_central_differences(self, kind, n, with_x, seed, data):
        # at H = Q diag(e) Q^T with every |e_i| >= 0.5 and gaps of at least
        # 0.25 between them, away from Pucci's kinks and its repeated
        # eigenvalues
        mags = data.draw(st.lists(st.floats(0.5, 3.0), min_size=n, max_size=n))
        signs = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
        e = np.array(mags) * np.array(signs)
        assume(np.min(np.diff(np.sort(e))) >= 0.25)
        rng = np.random.default_rng(seed)
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        H = q @ np.diag(e) @ q.T
        H = 0.5 * (H + H.T)
        g = rng.standard_normal((n, n))
        wide = ops.EllipticityPair(1.0, 4.0)
        op = {"linear_trace": lambda: ops.linear_trace(g @ g.T + n * np.eye(n)),
              "perturbed_trace": lambda: ops.perturbed_trace(0.3, n),
              "pucci_plus": lambda: ops.pucci_plus_op(wide, n),
              "pucci_minus": lambda: ops.pucci_minus_op(wide, n)}[kind]()
        x = None
        if with_x:
            op = dataclasses.replace(
                op, x_dependence=lambda x: 1.0 + 0.5 * np.sin(x[..., 0]) * np.cos(x[..., -1]))
            x = rng.uniform(-1.0, 1.0, n)
        D = ops._entry_directions(n)
        xs = None if x is None else np.broadcast_to(x, (len(D), n))
        h = 1e-5
        fd = (op.evaluate_batch(H + h * D, xs) - op.evaluate_batch(H - h * D, xs)) / (2.0 * h)
        got = ops.entry_slopes(op, H, x)
        assert got.shape == (len(D),)
        np.testing.assert_allclose(got, fd, rtol=1e-6, atol=1e-6 * np.max(np.abs(fd)))

    @pytest.mark.parametrize("e", [[-1.0, 1.0, 1.0 + 1e-9], [-1.0 - 1e-9, -1.0, 2.0],
                                   [-1.0, 1.0, 1.0]], ids=["pair_up", "pair_down", "repeated"])
    def test_nearly_repeated_3d_slopes_match_central_differences(self, e):
        # these go to LAPACK; F is smooth across equal eigenvalues of one sign
        rng = np.random.default_rng(5)
        q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        H = q @ np.diag(e) @ q.T
        H = 0.5 * (H + H.T)
        op = ops.pucci_minus_op(ops.EllipticityPair(1.0, 4.0), 3)
        D, h = ops._entry_directions(3), 1e-5
        fd = (op.evaluate_batch(H + h * D) - op.evaluate_batch(H - h * D)) / (2.0 * h)
        np.testing.assert_allclose(ops.entry_slopes(op, H), fd, rtol=1e-6, atol=1e-6 * 4.0)

    @pytest.mark.parametrize("shape", [(3, 3), (4, 2, 3), (2,)])
    def test_linearize_rejects_wrong_shape(self, shape):
        with pytest.raises(ConfigError):
            ops.linearize(ops.pucci_minus_op(PAIR), np.zeros(shape))
        with pytest.raises(ConfigError):
            ops.entry_slopes(ops.pucci_minus_op(PAIR), np.zeros(shape))

    @pytest.mark.parametrize("n", [2, 3])
    def test_entry_slopes_step_is_the_frobenius_norm(self, n):
        # an extension's step is 1e-6 (1 + np.linalg.norm(H, axis=(-2, -1)))
        # bit for bit, and linearize is built from the same slopes
        rng = np.random.default_rng(n)
        g = rng.standard_normal((6, 5, n, n)) * 10.0 ** rng.integers(-4, 5, (6, 5, 1, 1))
        H = g + np.swapaxes(g, -1, -2)
        xs = rng.uniform(-1.0, 1.0, H.shape[:-1])
        op = dataclasses.replace(ops.extension(ops.pucci_minus_op(PAIR, n).core, PAIR, n),
                                 x_dependence=lambda x: 1.0 + x[..., 0]**2)
        step = 1e-6 * (1.0 + np.linalg.norm(H, axis=(-2, -1)))
        want = ops._slopes(op, H, ops._entry_directions(n), step, xs)
        got = ops.entry_slopes(op, H, xs)
        assert got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(ops.linearize(op, H, xs), ops._from_entry_slopes(want, n))

    def test_scaling_family_homogeneous(self):
        op = ops.pucci_plus_op(PAIR)
        X = ops.SymMatrix.diagonal([1.0, -2.0])
        base = op.evaluate(X)
        for sigma in (0.1, 1.0, 30.0):
            assert ops.scaling_family(op, sigma, X) == pytest.approx(base, abs=1e-12)

    def test_scaling_family_flattens_perturbation(self):
        # G_sigma -> trace as sigma -> 0 for the perturbed trace
        op = ops.perturbed_trace(0.3)
        X = ops.SymMatrix.diagonal([1.0, 1.0])
        vals = [abs(ops.scaling_family(op, s, X) - X.trace())
                for s in (1.0, 0.1, 0.01)]
        assert vals[2] < vals[1] < vals[0]

    def test_tangential_limit_linear(self):
        A = np.array([[1.5, 0.2], [0.2, 1.1]])
        A0 = ops.tangential_limit(ops.linear_trace(A))
        np.testing.assert_allclose(A0.matrix, A, atol=1e-8)

    def test_tangential_limit_perturbed_is_identity(self):
        A0 = ops.tangential_limit(ops.perturbed_trace(0.1))
        np.testing.assert_allclose(A0.matrix, np.eye(2), atol=1e-6)

    def test_pucci_not_differentiable(self):
        with pytest.raises(NonDifferentiableError):
            ops.tangential_limit(ops.pucci_plus_op(PAIR))

    @pytest.mark.parametrize("callback, message", [
        (odd_extension, "not linear in the direction"),
        (even_extension, "one-sided derivatives disagree"),
    ], ids=["odd", "even"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_homogeneous_extension_not_differentiable(self, callback, message, seed):
        op = ops.extension(callback, ops.EllipticityPair(0.5, 2.0))
        with pytest.raises(NonDifferentiableError, match=message):
            ops.tangential_limit(op, seed)

    def test_bracket_violation_detected(self):
        # linearization eigenvalues land outside a deliberately wrong pair
        op = ops.linear_trace(np.diag([1.0, 4.0]), pair=ops.EllipticityPair(1.0, 2.0))
        with pytest.raises(BracketError, match="bracket"):
            ops.tangential_limit(op)


class TestOscillation:
    def test_x_independent_operator_is_zero(self):
        op = ops.pucci_plus_op(PAIR)
        assert ops.oscillation_theta(op, [0.5, 0.0], [0.0, 0.0]) == 0.0

    def test_coefficient_oscillation_lower_bound(self):
        a = lambda xs: 1.0 + 0.5 * np.asarray(xs)[..., 0]
        op = ops.linear_trace(np.eye(2), x_dependence=a)
        # |F(X,x)-F(X,0)| / (1+|X|) -> 0.5*x1*|tr X|/(1+|X|); sup over rays
        # X = t*Id gives 0.5*0.4*2t/(1+t*sqrt(2)) -> 0.4/sqrt(2) ~ 0.2828
        theta = ops.oscillation_theta(op, [0.4, 0.0], [0.0, 0.0])
        assert 0.25 <= theta <= 0.4 / np.sqrt(2.0) + 1e-6

    def test_same_point_is_zero(self):
        a = lambda xs: 1.0 + np.asarray(xs)[..., 1] ** 2
        op = ops.linear_trace(np.eye(2), x_dependence=a)
        assert ops.oscillation_theta(op, [0.3, 0.3], [0.3, 0.3]) == 0.0


class TestStructure:
    def test_pucci_plus_structure(self):
        rep = ops.check_SC(ops.pucci_plus_op(PAIR))
        assert rep.convex
        assert rep.zero_at_origin
        assert rep.trace_minorant   # lam = 1 gives P+ >= tr
        assert rep.one_homogeneous
        assert not rep.differentiable_at_origin

    def test_pucci_minus_not_convex(self):
        rep = ops.check_SC(ops.pucci_minus_op(PAIR))
        assert not rep.convex
        assert rep.convexity_witness is not None

    def test_linear_trace_structure(self):
        rep = ops.check_SC(ops.linear_trace(np.diag([1.0, 2.0])))
        assert rep.convex and rep.differentiable_at_origin and rep.one_homogeneous

    def test_linear_outside_its_pair_is_differentiable(self):
        # the tangential matrix diag(1, 4) escapes the pair, but it exists
        op = ops.linear_trace(np.diag([1.0, 4.0]), pair=ops.EllipticityPair(1.0, 2.0))
        assert ops.check_SC(op).differentiable_at_origin


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_pucci_plus_dominates_minus(seed):
    rng = np.random.default_rng(seed)
    M = random_sym(rng, 2, scale=5.0)
    assert ops.pucci_plus(M, PAIR) >= ops.pucci_minus(M, PAIR) - 1e-12
