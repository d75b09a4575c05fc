import numpy as np
import pytest

from ellipticlab import campanato, fields, moduli, operators, solver
from ellipticlab.errors import ConfigError, DomainError, NumericsError
from ellipticlab.operators import SymMatrix

LAPLACE = operators.linear_trace(np.eye(2))
PAIR = operators.EllipticityPair(1.0, 2.0)


def sample(profile, N=129, coeff=1.0):
    u = fields.sample_function(fields.profile(profile), N=N)
    return u.scale(coeff) if coeff != 1.0 else u


class TestRootCorrect:
    def test_linear_exact(self):
        M = SymMatrix.from_matrix([[2.0, 0.3], [0.3, 1.0]])
        a = campanato.root_correct(LAPLACE, M)
        assert a == pytest.approx(-1.5, abs=1e-12)

    def test_already_zero(self):
        M = SymMatrix.diagonal([1.0, -1.0])
        assert campanato.root_correct(LAPLACE, M) == 0.0

    def test_pucci_branch_root(self):
        # P+(diag(1+a, -1+a)) = 0 at a = -1/3 on the mixed-sign branch
        op = operators.pucci_plus_op(PAIR)
        a = campanato.root_correct(op, SymMatrix.diagonal([1.0, -1.0]))
        assert a == pytest.approx(-1.0 / 3.0, abs=1e-8)

    def test_never_increases_defect(self):
        rng = np.random.default_rng(4)
        op = operators.perturbed_trace(0.2)
        for _ in range(10):
            g = rng.standard_normal((2, 2))
            M = SymMatrix.from_matrix(0.5 * (g + g.T))
            a = campanato.root_correct(op, M)
            assert abs(op.evaluate(M.add_identity(a))) <= abs(op.evaluate(M)) + 1e-12

    def test_non_elliptic_bracket_detected(self):
        # declared pair wildly overstates lambda: bracket too narrow
        lying = operators.OperatorSpec("linear_trace", 2,
                                       operators.EllipticityPair(10.0, 10.0),
                                       matrix=SymMatrix.identity(2))
        with pytest.raises(NumericsError):
            campanato.root_correct(lying, SymMatrix.diagonal([3.0, 3.0]))


class TestQuadraticFit:
    def test_recovers_admissible_quadratic(self):
        M = SymMatrix.diagonal([1.0, -1.0])  # tr = 0: Laplace-admissible
        u = fields.sample_function(fields.Polynomial2D(0.0, np.zeros(2), M), N=65)
        jet = campanato.constrained_quadratic_fit(u, LAPLACE, 0.5, u.origin_index())
        np.testing.assert_allclose(jet.M.matrix, M.matrix, atol=1e-10)
        assert abs(jet.c) < 1e-12

    def test_trace_corrected(self):
        M = SymMatrix.diagonal([2.0, 1.0])
        u = fields.sample_function(fields.Polynomial2D(0.0, np.zeros(2), M), N=65)
        jet = campanato.constrained_quadratic_fit(u, LAPLACE, 0.5, u.origin_index())
        assert abs(jet.M.trace()) < 1e-10

    def test_harmonic_cubic_residual_third_order(self):
        u = sample("harmonic_cubic")
        sups = []
        for r in (0.5, 0.25):
            jet = campanato.constrained_quadratic_fit(u, LAPLACE, r, u.origin_index())
            sups.append(campanato.sup_residual(u, jet, u.origin_index(), r))
        # sup_{B_r}|x1^3 - 3 x1 x2^2| = r^3, jets near zero
        assert sups[0] / sups[1] == pytest.approx(8.0, rel=0.15)

    def test_recovers_off_diagonal_hessian(self):
        M = SymMatrix.from_matrix([[1.0, 0.7], [0.7, -1.0]])  # tr = 0
        u = fields.sample_function(fields.Polynomial2D(0.0, np.zeros(2), M), N=65)
        jet = campanato.constrained_quadratic_fit(u, LAPLACE, 0.5, u.origin_index())
        np.testing.assert_allclose(jet.M.matrix, M.matrix, atol=1e-10)

    def test_too_small_ball_rejected(self):
        u = sample("harmonic_cubic", N=17)
        with pytest.raises(DomainError):
            campanato.constrained_quadratic_fit(u, LAPLACE, 0.05, u.origin_index())


class TestDecayAudit:
    def test_pure_quadratic_zero_residuals(self):
        M = SymMatrix.diagonal([1.0, -1.0])
        u = fields.sample_function(fields.Polynomial2D(0.0, np.zeros(2), M), N=129)
        audit = campanato.decay_audit(u, LAPLACE, moduli.power(0.5), K=4)
        assert all(rec.sup_residual <= 1e-10 for rec in audit.records)
        assert audit.fitted_C0 <= 1e-9

    def test_harmonic_cubic_ratios_decrease(self):
        audit = campanato.decay_audit(sample("harmonic_cubic"), LAPLACE,
                                      moduli.power(0.5), K=4)
        ratios = audit.ratios()
        assert len(ratios) == 5
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert not audit.truncated

    def test_jets_operator_admissible(self):
        audit = campanato.decay_audit(sample("radial_5_2"), LAPLACE,
                                      moduli.power(0.5), K=4)
        for rec in audit.records:
            assert abs(LAPLACE.evaluate(rec.jet.M)) <= 1e-9

    def test_increment_ratio_bounded_for_matched_modulus(self):
        audit = campanato.decay_audit(sample("radial_5_2"), LAPLACE,
                                      moduli.power(0.5), K=4)
        ratios = [rec.increment_ratio for rec in audit.records[1:]]
        assert max(ratios) < 10.0 * max(min(ratios), 1e-3)

    def test_truncates_below_resolution(self):
        audit = campanato.decay_audit(sample("harmonic_cubic", N=33), LAPLACE,
                                      moduli.power(0.5), K=10)
        assert audit.truncated
        assert audit.K_max < 10

    def test_translation_invariance(self):
        # audit the translated field at the origin vs the original off-center
        def f(pts):
            pts = np.asarray(pts, dtype=float)
            return (pts[..., 0] - 0.25) ** 3 - 3 * (pts[..., 0] - 0.25) * pts[..., 1] ** 2

        u = fields.sample_function(f, N=129, L=1.0)
        x0 = (80, 64)  # node at (0.25, 0)
        assert np.allclose(u.node_coords(x0), [0.25, 0.0])
        a_shift = campanato.decay_audit(u, LAPLACE, moduli.power(0.5), K=3,
                                        x0_idx=x0)
        v = sample("harmonic_cubic")
        a_origin = campanato.decay_audit(v, LAPLACE, moduli.power(0.5), K=3)
        # same local geometry around the two centers
        for ra, rb in zip(a_shift.records[1:], a_origin.records[1:]):
            assert ra.sup_residual == pytest.approx(rb.sup_residual, rel=1e-10)

    def test_bad_rho0(self):
        with pytest.raises(ConfigError):
            campanato.decay_audit(sample("harmonic_cubic", N=33), LAPLACE,
                                  moduli.power(0.5), rho0=0.7)


class TestSeminorm:
    def test_quadratic_zero(self):
        M = SymMatrix.diagonal([1.0, -1.0])
        u = fields.sample_function(fields.Polynomial2D(0.0, np.zeros(2), M), N=129)
        audit = campanato.decay_audit(u, LAPLACE, moduli.power(0.5), K=4)
        val, cauchy = campanato.c2psi_seminorm(u, audit)
        assert val <= 1e-9 and cauchy

    def test_harmonic_cubic_matches_formula(self):
        # residual r^3 against r^2 * psi(r) with psi = 3 sqrt(r):
        # ratio = sqrt(r)/3, max at r = 1
        u = sample("harmonic_cubic")
        audit = campanato.decay_audit(u, LAPLACE, moduli.power(0.5), K=4)
        val, cauchy = campanato.c2psi_seminorm(u, audit)
        assert cauchy
        assert val == pytest.approx(1.0 / 3.0, rel=0.1)

    def test_wrong_modulus_grows(self):
        # log-type second derivatives audited against a Hölder modulus:
        # ratios grow toward small scales
        def slow(pts):
            r = np.linalg.norm(np.asarray(pts, dtype=float), axis=-1)
            safe = np.maximum(r, 1e-12)
            return np.where(r > 0, safe**2.05, 0.0)

        u = fields.sample_function(slow, N=129)
        audit = campanato.decay_audit(u, LAPLACE, moduli.power(0.5), K=4)
        ratios = audit.ratios()
        assert ratios[-1] > ratios[0]

    def test_off_centre_audit_measures_its_own_ball(self):
        u = sample("radial_5_2")
        audit = campanato.decay_audit(u, LAPLACE, moduli.power(0.5), K=4, x0_idx=(80, 64))
        val, _ = campanato.c2psi_seminorm(u, audit)
        assert val == audit.fitted_psi_seminorm

    def test_needs_depth(self):
        u = sample("harmonic_cubic", N=33)
        audit = campanato.decay_audit(u, LAPLACE, moduli.power(0.5), K=2)
        with pytest.raises(ConfigError):
            campanato.c2psi_seminorm(u, audit)


class TestRescaling:
    def test_exact_subgrid_restriction(self):
        u = sample("harmonic_cubic")
        audit = campanato.decay_audit(u, LAPLACE, moduli.power(0.5), K=3)
        v = campanato.rescale_field(u, audit, k=1)
        assert v.N == 65 and v.L == 1.0
        # node (0,0) of v sits on node (32,32) of u
        jet = audit.records[1].jet
        x = u.node_coords((32, 32))
        want = (u.values[32, 32] - jet.evaluate(x)) / (0.25 * moduli.power(0.5).evaluate(0.5))
        assert v.values[0, 0] == pytest.approx(want, rel=1e-14)

    def test_shifted_ratio_agreement(self):
        u = sample("harmonic_cubic")
        audit = campanato.decay_audit(u, LAPLACE, moduli.power(0.5), K=3)
        v = campanato.rescale_field(u, audit, k=1)
        audit_v = campanato.decay_audit(v, LAPLACE, moduli.power(0.5), K=2)
        for rv, ru in zip(audit_v.ratios(), audit.ratios()[1:]):
            assert rv == pytest.approx(ru, rel=1e-8)

    def test_requires_compatible_grid(self):
        u = sample("harmonic_cubic", N=67)  # 66 not divisible by 4
        audit = campanato.decay_audit(u, LAPLACE, moduli.power(0.5), K=2)
        with pytest.raises(ConfigError):
            campanato.rescale_field(u, audit)


    def test_requires_origin_audit(self):
        u = sample("harmonic_cubic")
        audit = campanato.decay_audit(u, LAPLACE, moduli.power(0.5), K=3, x0_idx=(72, 64))
        with pytest.raises(ConfigError):
            campanato.rescale_field(u, audit)


class TestFlatness:
    @staticmethod
    def family(N=65):
        base = solver.saddle_quartic_solution(1.0)
        probe = fields.sample_function(base.value, n=2, N=N)
        sup = float(np.max(np.abs(probe.values)))
        return lambda d: probe.scale(d / sup)

    def test_nonlinear_family_has_finite_threshold(self):
        fam = self.family(N=129)
        op = operators.perturbed_trace(0.5)
        search = campanato.flatness_threshold_search(
            fam, op, moduli.power(1.0), [0.05, 0.2, 0.8, 1.6], K=4, refine_steps=4)
        assert search.delta_star is not None
        assert 0.2 <= search.delta_star < 0.8
        flags = [row["passed"] for row in search.table]
        # pass region precedes fail region
        assert flags == sorted(flags, reverse=True)

    def test_linear_control_passes_everywhere(self):
        fam = self.family(N=129)
        search = campanato.flatness_threshold_search(
            fam, LAPLACE, moduli.power(1.0), [0.05, 0.2, 0.8, 1.6], K=4,
            refine_steps=0)
        assert all(row["passed"] for row in search.table)
        assert search.delta_star == 1.6

    def test_zero_amplitude_passes(self):
        fam = self.family(N=65)
        op = operators.perturbed_trace(0.5)
        search = campanato.flatness_threshold_search(
            fam, op, moduli.power(1.0), [1e-6], K=3, refine_steps=0)
        assert search.table[0]["passed"]

    def test_no_pass_below_first_fail(self):
        # perturbed_trace(0.5) on N=65, K=3 fails at 0.8 and passes at 1.6
        search = campanato.flatness_threshold_search(
            self.family(N=65), operators.perturbed_trace(0.5), moduli.power(1.0),
            [1.6, 0.8], K=3)
        assert [row["passed"] for row in search.table] == [False, True]
        assert search.delta_star is None and search.refinements == 0
        assert search.monotone is False and search.describe()["monotone"] is False

    def test_monotone_flag(self):
        rows = [{"delta": 0.2, "passed": False}, {"delta": 0.1, "passed": True}]
        assert campanato.FlatnessSearch(0.1, rows, 0).monotone
        rows.append({"delta": 0.4, "passed": True})
        assert not campanato.FlatnessSearch(0.1, rows, 0).monotone


class TestExponentFit:
    def test_harmonic_cubic(self):
        audit = campanato.decay_audit(sample("harmonic_cubic"), LAPLACE,
                                      moduli.power(0.5), K=4)
        fit = campanato.fit_decay_exponent(audit)
        assert fit.defined
        assert fit.alpha_hat == pytest.approx(1.0, abs=0.15)
        assert fit.r2 > 0.98

    def test_fractional_field(self):
        audit = campanato.decay_audit(sample("radial_5_2"), LAPLACE,
                                      moduli.power(0.5), K=4)
        fit = campanato.fit_decay_exponent(audit)
        assert 0.4 <= fit.alpha_hat <= 0.6

    def test_quadratic_flagged_undefined(self):
        M = SymMatrix.diagonal([1.0, -1.0])
        u = fields.sample_function(fields.Polynomial2D(0.0, np.zeros(2), M), N=129)
        audit = campanato.decay_audit(u, LAPLACE, moduli.power(0.5), K=4)
        fit = campanato.fit_decay_exponent(audit)
        assert not fit.defined
        assert fit.alpha_hat is None
