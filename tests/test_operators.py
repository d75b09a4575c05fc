import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipticlab import operators as ops
from ellipticlab.errors import ConfigError, DomainError, NonDifferentiableError, NumericsError

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
        N = ops.SymMatrix.identity(2)
        assert (M + N).trace() == 5.0
        assert (2.0 * M).frobenius() == pytest.approx(2.0 * M.frobenius())
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


class TestOperatorSpec:
    def test_linear_trace(self):
        op = ops.linear_trace(np.diag([1.0, 2.0]))
        assert op.pair.lam == 1.0 and op.pair.Lam == 2.0
        M = ops.SymMatrix.from_matrix([[1.0, 5.0], [5.0, 1.0]])
        assert op(M) == pytest.approx(3.0)

    def test_zero_normalization(self):
        for op in (ops.linear_trace(np.eye(2)), ops.pucci_plus_op(PAIR),
                   ops.perturbed_trace(0.3)):
            assert op(ops.SymMatrix.zero(op.n)) == 0.0

    def test_perturbed_trace_formula(self):
        op = ops.perturbed_trace(0.2)
        M = ops.SymMatrix.diagonal([0.5, 1.5])
        want = 2.0 + 0.2 * np.sin(0.5) * (1.0 - np.cos(1.5))
        assert op(M) == pytest.approx(want, rel=1e-14)

    def test_x_dependence_multiplicative(self):
        a = lambda xs: 1.0 + 0.5 * np.asarray(xs)[..., 0]
        op = ops.linear_trace(np.eye(2), x_dependence=a)
        M = ops.SymMatrix.identity(2)
        assert op(M, [0.4, 0.0]) == pytest.approx(2.4)
        assert op(ops.SymMatrix.zero(2), [0.4, 0.0]) == 0.0

    def test_extension_kind(self):
        op = ops.extension(lambda H: np.trace(H, axis1=-2, axis2=-1),
                           PAIR, callback_id="trace")
        assert op(ops.SymMatrix.identity(2)) == pytest.approx(2.0)

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
            assert op.describe() == dict(common, kind=op.kind, **extra)
        matrix = cases[0][0].describe()["matrix"]
        assert all(type(v) is float for row in matrix for v in row)


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

    def test_deterministic(self):
        r1 = ops.verify_ellipticity(ops.perturbed_trace(0.1))
        r2 = ops.verify_ellipticity(ops.perturbed_trace(0.1))
        assert r1.max_upper_violation == r2.max_upper_violation


class TestDerivatives:
    def test_gateaux_linear_exact(self):
        op = ops.linear_trace(np.diag([1.0, 2.0]))
        rng = np.random.default_rng(3)
        X0, M = random_sym(rng, 2), random_sym(rng, 2)
        want = float(np.sum(np.diag([1.0, 2.0]) * np.diag(M.matrix))) \
            + 0.0  # off-diagonal of A is zero
        assert ops.gateaux(op, X0, M) == pytest.approx(np.trace(
            np.diag([1.0, 2.0]) @ M.matrix), abs=1e-9)

    def test_scaling_family_homogeneous(self):
        op = ops.pucci_plus_op(PAIR)
        X = ops.SymMatrix.diagonal([1.0, -2.0])
        base = op(X)
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

    def test_bracket_violation_detected(self):
        # linearization eigenvalues land outside a deliberately wrong pair
        op = ops.linear_trace(np.diag([1.0, 4.0]), pair=ops.EllipticityPair(1.0, 2.0))
        with pytest.raises(NumericsError):
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


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_pucci_plus_dominates_minus(seed):
    rng = np.random.default_rng(seed)
    M = random_sym(rng, 2, scale=5.0)
    assert ops.pucci_plus(M, PAIR) >= ops.pucci_minus(M, PAIR) - 1e-12
