import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ellipticlab import campanato, fields, moduli, operators, solver
from ellipticlab.errors import ConfigError, DegenerateModulusError, DomainError, NumericsError
from ellipticlab.operators import SymMatrix

LAPLACE = operators.linear_trace(np.eye(2))
PAIR = operators.EllipticityPair(1.0, 2.0)


def sample(profile, N=129, coeff=1.0):
    u = fields.sample_function(fields.profile(profile), N=N)
    return u.scale(coeff) if coeff != 1.0 else u


def reference_root(op, M, x0):
    """root_correct written step by step over validated SymMatrix
    evaluations, one operator call per midpoint."""
    F0 = op.evaluate(M, x0)
    tol = 1e-10 * (1.0 + abs(F0))
    if abs(F0) <= tol:
        return 0.0
    half = abs(F0) / (op.n * op.pair.lam) * (1.0 + 1e-9)
    lo, hi = -half, half
    if op.evaluate(M.add_identity(lo), x0) > 0.0:
        return lo
    if op.evaluate(M.add_identity(hi), x0) < 0.0:
        return hi
    for _ in range(200):
        if hi - lo <= 4e-16 * half:
            break
        mid = 0.5 * (lo + hi)
        f_mid = op.evaluate(M.add_identity(mid), x0)
        if f_mid == 0.0:
            return mid
        if f_mid > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


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

    @pytest.mark.parametrize("op", [
        operators.linear_trace(np.array([[2.0, 0.4], [0.4, 1.0]]),
                               x_dependence=lambda x: 1.0 + 0.5 * x[..., 0] ** 2),
        operators.pucci_plus_op(PAIR, n=3),
        operators.pucci_minus_op(PAIR),
        operators.perturbed_trace(0.2),
        operators.extension(lambda H: np.trace(H, axis1=-2, axis2=-1)
                            + 0.1 * np.sin(H[..., 0, 0]), operators.EllipticityPair(0.9, 1.1),
                            callback_id="trace_plus_sin"),
    ], ids=["linear_trace_x", "pucci_plus_3d", "pucci_minus", "perturbed_trace", "extension"])
    def test_matches_reference_bisection(self, op):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = rng.standard_normal((op.n, op.n))
            M = SymMatrix.from_matrix(g + g.T)
            x0 = rng.uniform(-1.0, 1.0, op.n)
            assert campanato.root_correct(op, M, x0) == reference_root(op, M, x0)
        assert campanato.root_correct(op, M) == reference_root(op, M, None)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_roots_equal_reference_bit_for_bit(self, data):
        n = data.draw(st.sampled_from([2, 3]))
        kind = data.draw(st.sampled_from(
            ["extension", "linear_trace", "perturbed_trace", "pucci_minus", "pucci_plus"]))
        op = {
            "linear_trace": lambda: operators.linear_trace(
                np.diag(np.arange(1.0, n + 1.0)) + 0.3 * (np.ones((n, n)) - np.eye(n))),
            "pucci_plus": lambda: operators.pucci_plus_op(PAIR, n),
            "pucci_minus": lambda: operators.pucci_minus_op(PAIR, n),
            "perturbed_trace": lambda: operators.perturbed_trace(0.5, n),
            "extension": lambda: operators.extension(
                lambda H: np.trace(H, axis1=-2, axis2=-1) + 0.1 * np.sin(H[..., 0, 0]),
                operators.EllipticityPair(0.9, 1.1), n, "trace_plus_sin"),
        }[kind]()
        if data.draw(st.booleans()):
            # a factor >= 1 keeps the declared pair valid
            op = dataclasses.replace(op, x_dependence=lambda x: 1.0 + 0.5 * x[..., 0] ** 2)
        entries = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n))
        scale = 10.0 ** data.draw(st.floats(-8.0, 3.0))
        g = scale * np.reshape(entries, (n, n))
        M = SymMatrix.from_matrix(g + g.T)
        x0 = data.draw(st.none() | st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
        assert campanato.root_correct(op, M, x0) == reference_root(op, M, x0)

    def test_exit_on_an_exact_zero(self):
        # F vanishes for tr in [-1, 1], so a late midpoint lands where F is
        # exactly 0.0 and the bisection returns it
        dead_zone = operators.extension(
            lambda H: (np.maximum(np.trace(H, axis1=-2, axis2=-1) - 1.0, 0.0)
                       + np.minimum(np.trace(H, axis1=-2, axis2=-1) + 1.0, 0.0)),
            PAIR, callback_id="dead_zone")
        M = SymMatrix.diagonal([0.5, 1.0])
        a = campanato.root_correct(dead_zone, M)
        assert dead_zone.evaluate(M.add_identity(a)) == 0.0
        assert -0.25 - 1e-9 < a < -0.25
        assert a == reference_root(dead_zone, M, None)

    def test_equal_bracket_values(self):
        # with t = |a| on M = Id: F = 1 - 2t up to t = 3/4, then rising back
        # to 0, so both bracket ends are 0.0 and the first guess is the
        # midpoint; not elliptic, but the bracket holds
        def dip(H):
            t = 0.5 * np.abs(np.trace(H, axis1=-2, axis2=-1) - 2.0)
            return np.where(t <= 0.75, 1.0 - 2.0 * t, np.minimum(2.0 * t - 2.0, 0.0))

        op = operators.extension(dip, operators.EllipticityPair(0.5, 1.0), callback_id="dip")
        M = SymMatrix.identity(2)
        half = 1.0 + 1e-9
        assert op.evaluate(M.add_identity(-half)) == op.evaluate(M.add_identity(half)) == 0.0
        a = campanato.root_correct(op, M)
        assert a == reference_root(op, M, None)
        assert a == pytest.approx(-0.5, abs=1e-12)

    def test_non_finite_operator_value_raises(self):
        # log of a negative entry: every comparison with the NaN is False,
        # so the bisection used to run to the end and return NaN
        def log_plus(H):
            with np.errstate(invalid="ignore"):
                return np.log(H[..., 0, 0]) + H[..., 1, 1]

        op = operators.extension(log_plus, PAIR, callback_id="log_plus")
        with pytest.raises(NumericsError, match="not finite"):
            campanato.root_correct(op, SymMatrix.diagonal([-1.0, 0.5]))

    @pytest.mark.parametrize("base", [operators.perturbed_trace(0.5),
                                      operators.pucci_minus_op(PAIR)],
                             ids=["perturbed_trace", "pucci_minus"])
    def test_few_operator_calls_per_root(self, base):
        # the jets the CLI flatness search fits at N = 129, K = 4; the
        # callback counts its calls
        calls = []

        def counted(H):
            calls.append(1)
            return base.evaluate_batch(H)

        op = operators.extension(counted, base.pair, callback_id="counted")
        probe = fields.sample_function(solver.saddle_quartic_solution(1.0).value, N=129)
        lad = campanato._ladder(probe, moduli.power(1.0), 0.5, 4, probe.origin_index())
        x0 = probe.node_coords(probe.origin_index())
        sup = float(np.max(np.abs(probe.values)))
        roots = 0
        for delta in (0.05, 0.1, 0.2, 0.4, 0.8, 1.6):
            u = probe.scale(delta / sup)
            for fop in lad.fits:
                M = fop.jet(u.values[fop.box]).M
                assert campanato.root_correct(op, M, x0) == campanato.root_correct(base, M, x0)
                roots += 1
        assert len(calls) / roots <= 8.0

    def test_non_elliptic_bracket_detected(self):
        # declared pair wildly overstates lambda: bracket too narrow
        lying = operators.linear_trace(SymMatrix.identity(2), operators.EllipticityPair(10.0, 10.0))
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

    @pytest.mark.parametrize("x0, r", [((80, 64), 0.76), ((64, 64), float("nan"))])
    def test_ball_leaving_square_rejected(self, x0, r):
        u = sample("harmonic_cubic")
        jet = campanato.constrained_quadratic_fit(u, LAPLACE, 0.5, u.origin_index())
        with pytest.raises(DomainError, match="outside the grid square"):
            campanato.constrained_quadratic_fit(u, LAPLACE, r, x0)
        with pytest.raises(DomainError, match="outside the grid square"):
            campanato.sup_residual(u, jet, x0, r)

    def test_sup_residual_refuses_what_a_fit_refuses(self):
        u = sample("harmonic_cubic", N=17)
        jet = campanato.constrained_quadratic_fit(u, LAPLACE, 0.5, u.origin_index())
        with pytest.raises(DomainError, match="below 3h"):
            campanato.sup_residual(u, jet, u.origin_index(), 0.05)


def full_grid_ball(u, x0_idx, r):
    """Reference ball over the whole grid: displacements and values of the
    nodes of B_r(x0), row-major."""
    d = np.stack(u.meshgrid(), axis=-1) - u.node_coords(x0_idx)
    mask = np.linalg.norm(d, axis=-1) <= r + 1e-12
    return d[mask], u.values[mask]


def reference_lstsq(d, vals, r):
    """Reference fit: lstsq (SVD) on the quadratic basis of d / r,
    so its coefficients are c, r b, r^2 diag(M) and r^2 M_ij (i < j)."""
    s = d / r
    n = s.shape[1]
    cols = [np.ones(len(s))] + [s[:, i] for i in range(n)]
    cols += [0.5 * s[:, i] ** 2 for i in range(n)]
    cols += [s[:, i] * s[:, j] for i in range(n) for j in range(i + 1, n)]
    coef, _, rank, _ = np.linalg.lstsq(np.stack(cols, axis=1), vals, rcond=None)
    return coef, rank


def _degenerate_masks():
    """Node sets past the 3h and 15-node guards on which no quadratic is
    determined, each with its grid spacing."""
    row = np.zeros((21, 21), dtype=bool)
    row[10] = True
    # the 20 lattice points with x^2 + y^2 = 25^2: 1, x^2 and y^2 are dependent
    t = np.arange(-25, 26)
    circle = t[:, None] ** 2 + t[None, :] ** 2 == 625
    t = np.arange(-4, 5)
    plane = (t[:, None, None] ** 2 + t[None, :, None] ** 2 <= 16) & (t == 0)
    return {"collinear": (row, 0.1), "on_a_circle": (circle, 0.04), "3d_in_a_plane": (plane, 0.25)}


DEGENERATE = _degenerate_masks()

# block sizes for the fit passes, which run in blocks of fields._CHUNK_VALUES
# nodes: small ones, so that every ball here crosses many blocks
CHUNK_SIZES = (8, 24, fields._CHUNK_VALUES)


class TestFitOperator:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_jets_match_lstsq_reference(self, data):
        n = data.draw(st.sampled_from([2, 3]))
        N = data.draw(st.sampled_from([17, 33, 65] if n == 2 else [9, 17]))
        seed = data.draw(st.integers(0, 2**31 - 1))
        # any centre with room for a fit: the ball stays inside the square
        x0 = tuple(data.draw(st.integers(0, N - 1)) for _ in range(n))
        h = 2.0 / (N - 1)
        room = 1.0 - np.max(np.abs(-1.0 + h * np.asarray(x0, dtype=float)))
        assume(room >= 3.0 * h)
        r = data.draw(st.floats(3.0 * h, room))
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, n))
        quad = fields.Polynomial2D(rng.standard_normal(), rng.standard_normal(n),
                                   SymMatrix.from_matrix(g + g.T))
        noise = data.draw(st.sampled_from([0.0, 1e-3, 0.1]))
        u = fields.sample_function(
            lambda pts: quad(pts) + noise * rng.standard_normal(pts.shape[:-1]), n=n, N=N)
        d, vals = full_grid_ball(u, x0, r)
        coef, rank = reference_lstsq(d, vals, r)
        assert rank == len(coef)
        upper = np.triu_indices(n, 1)
        for chunk in CHUNK_SIZES:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(fields, "_CHUNK_VALUES", chunk)
                fop = campanato._fit_operator(r, fields.ball_window(u, x0, r), u.h)
                jet = fop.jet(u.values[fop.box])
            M = jet.M.matrix
            scaled = np.concatenate(([jet.c], r * jet.b, r**2 * np.diag(M), r**2 * M[upper]))
            assert np.max(np.abs(scaled - coef)) <= 1e-12 * np.max(np.abs(vals)), chunk

    @pytest.mark.parametrize("n, N, x0, r", [(2, 65, (40, 27), 0.4), (2, 33, (16, 16), 1.0),
                                             (3, 17, (8, 9, 7), 0.5), (3, 9, (4, 4, 4), 1.0)])
    def test_eigh_jet_matches_lstsq(self, monkeypatch, n, N, x0, r):
        """The jet solved with the eigenpairs that guard the rank is lstsq's
        jet, relative to its largest coefficient."""
        a = np.array([0.7, -1.3, 0.4])[:n]
        u = fields.sample_function(lambda pts: np.exp(pts @ a) + np.sin(3.0 * pts[..., 0]),
                                   n=n, N=N)
        d, vals = full_grid_ball(u, x0, r)
        coef, rank = reference_lstsq(d, vals, r)
        assert rank == len(coef)
        for chunk in CHUNK_SIZES:
            monkeypatch.setattr(fields, "_CHUNK_VALUES", chunk)
            fop = campanato._fit_operator(r, fields.ball_window(u, x0, r), u.h)
            jet = fop.jet(u.values[fop.box])
            M = jet.M.matrix
            scaled = np.concatenate(([jet.c], r * jet.b, r**2 * np.diag(M),
                                     r**2 * M[np.triu_indices(n, 1)]))
            assert np.max(np.abs(scaled - coef)) <= 1e-12 * np.max(np.abs(coef)), chunk

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_window_sup_residual_is_the_max_over_ball_nodes(self, data):
        n = data.draw(st.sampled_from([2, 3]))
        N = data.draw(st.sampled_from([17, 33, 65] if n == 2 else [9, 17]))
        x0 = tuple(data.draw(st.integers(0, N - 1)) for _ in range(n))
        h = 2.0 / (N - 1)
        room = 1.0 - np.max(np.abs(-1.0 + h * np.asarray(x0, dtype=float)))
        assume(room >= 3.0 * h)
        r = data.draw(st.floats(3.0 * h, room))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        u = fields.GridField(n, N, 1.0, rng.standard_normal((N,) * n))
        g = rng.standard_normal((n, n))
        jet = fields.Polynomial2D(rng.standard_normal(), rng.standard_normal(n),
                                  SymMatrix.from_matrix(g + g.T))
        d, vals = full_grid_ball(u, x0, r)
        ref = np.max(np.abs(vals - jet(d)))
        for chunk in CHUNK_SIZES:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(fields, "_CHUNK_VALUES", chunk)
                fop = campanato._fit_operator(r, fields.ball_window(u, x0, r), u.h)
                sup = fop.sup_residual(u.values[fop.box], jet)
            assert abs(sup - ref) <= 1e-13 * np.max(np.abs(u.values)), chunk

    @pytest.mark.parametrize("name", sorted(DEGENERATE))
    def test_degenerate_node_set_raises(self, name):
        # a hand-made window: the mask on its box, with axes centred at spacing h
        mask, h = DEGENERATE[name]
        axes = [h * (np.arange(k) - (k - 1) // 2) for k in mask.shape]
        window = tuple(slice(0, k) for k in mask.shape), axes, mask
        with pytest.raises(NumericsError, match="rank-deficient"):
            campanato._fit_operator(1.0, window, h)


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
        # the off-centre ladder starts at the centre's room to the edge, 0.75
        a_origin = campanato.decay_audit(v, LAPLACE, moduli.power(0.5, domain_cap=0.75), K=3)
        # same local geometry around the two centers
        assert len(a_shift.records) == len(a_origin.records) == 4
        for ra, rb in zip(a_shift.records, a_origin.records):
            assert ra.sup_residual == pytest.approx(rb.sup_residual, rel=1e-10)

    def test_off_centre_ladder_starts_at_its_room(self):
        u = sample("harmonic_cubic")   # N = 129: node (80, 64) sits at (0.25, 0)
        audit = campanato.decay_audit(u, LAPLACE, moduli.power(0.5), K=3, x0_idx=(80, 64))
        assert [rec.radius for rec in audit.records] == [0.75 * 0.5**k for k in range(4)]

    def test_origin_ladder_ignores_round_off_room(self):
        # on N = 99, L = 1 the origin's coordinate is -1.1e-16, not 0
        u = sample("harmonic_cubic", N=99)
        assert u.node_coords(u.origin_index())[0] != 0.0
        audit = campanato.decay_audit(u, LAPLACE, moduli.power(0.5), K=2)
        assert audit.records[0].radius == 1.0

    def test_log_modulus_ladder_starts_at_its_cap(self):
        mod = moduli.power_log(0.5, 1.0)   # domain_cap = e^-2 < 1
        audit = campanato.decay_audit(sample("radial_5_2"), LAPLACE, mod, K=4)
        assert [rec.radius for rec in audit.records] == [
            mod.domain_cap * 0.5**k for k in range(audit.K_max + 1)]
        assert audit.K_max >= 1 and np.isfinite(audit.fitted_C0)
        first, second = audit.records[:2]
        assert second.increment_ratio == (
            second.hessian_increment / mod.evaluate(first.radius))

    def test_shared_balls_match_public_calls(self):
        op = operators.pucci_minus_op(PAIR)
        u = sample("radial_5_2")
        for x0 in (u.origin_index(), (80, 64), (96, 48)):
            audit = campanato.decay_audit(u, op, moduli.power(0.5), K=4, x0_idx=x0)
            for rec in audit.records:
                jet = campanato.constrained_quadratic_fit(u, op, rec.radius, x0)
                assert rec.jet.describe() == jet.describe()
                assert rec.sup_residual == campanato.sup_residual(u, jet, x0, rec.radius)
            assert audit.fitted_C0 == campanato.c2psi_seminorm(u, audit)[0]

    def test_bad_rho0(self):
        with pytest.raises(ConfigError):
            campanato.decay_audit(sample("harmonic_cubic", N=33), LAPLACE,
                                  moduli.power(0.5), rho0=0.7)

    @pytest.mark.parametrize("delta", [0.0, float("nan")])
    def test_bad_delta(self, delta):
        # NaN passed a `delta <= 0` guard and made every normalized ratio NaN
        with pytest.raises(ConfigError):
            campanato.decay_audit(sample("harmonic_cubic", N=33), LAPLACE,
                                  moduli.power(0.5), K=2, delta=delta)

    def test_negative_K(self):
        # no scale was resolvable, so a malformed count failed as a check
        with pytest.raises(ConfigError, match="K must be nonnegative"):
            campanato.decay_audit(sample("harmonic_cubic", N=33), LAPLACE,
                                  moduli.power(0.5), K=-1)

    def test_modulus_vanishing_at_an_audited_radius(self):
        # tau(0.25) = 0 below the first knot, and the ratio divided by it
        flat = moduli.from_table([0.3, 0.5], [0.0, 0.7])
        with pytest.raises(DegenerateModulusError, match="r=0.25"):
            campanato.decay_audit(sample("harmonic_cubic", N=33), LAPLACE, flat, K=2)

    @pytest.mark.parametrize("entry", ["decay_audit", "flatness", "fit"])
    def test_operator_dimension_must_match_field(self, entry):
        # a 3-D operator on 2-D jets used to bracket its root with n = 3 and pass
        op, mod = operators.pucci_minus_op(PAIR, n=3), moduli.power(0.5)
        u = sample("harmonic_cubic", N=33)
        with pytest.raises(ConfigError):
            if entry == "decay_audit":
                campanato.decay_audit(u, op, mod, K=2)
            elif entry == "flatness":
                campanato.flatness_threshold_search(lambda d: u.scale(d), op, mod, [0.5], K=2)
            else:
                campanato.constrained_quadratic_fit(u, op, 0.5, u.origin_index())


def smooth_field(seed, N=129):
    """A random smooth field: three plane waves and an exponential."""
    rng = np.random.default_rng(seed)
    w, phase, c = rng.uniform(-3.0, 3.0, (3, 2)), rng.uniform(0.0, 2 * np.pi, 3), rng.normal(size=3)
    a = rng.uniform(-1.0, 1.0, 2)
    return fields.sample_function(lambda p: np.sin(p @ w.T + phase) @ c + 0.3 * np.exp(p @ a), N=N)


def close(got, want):
    """Equal within 1e-9 relative, entry by entry."""
    return np.all(np.abs(np.subtract(got, want)) <= 1e-9 * np.abs(want))


# the 8 symmetries of the square, acting on a value array of a grid centred at 0
D4 = [lambda v, k=k, t=t: np.ascontiguousarray(np.rot90(v.T if t else v, k))
      for k in range(4) for t in (False, True)]


class TestMetamorphic:
    """Relations between audits that hold for every field, each checked at
    every block size of the audit's passes.  Over 12 fields the relations
    held within 1.2e-11 relative; the bound is 1e-9."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=2, deadline=None)
    def test_symmetries_of_the_square(self, seed):
        # pucci_minus is rotation invariant, and the origin's balls are D4 symmetric
        u, op, mod = smooth_field(seed), operators.pucci_minus_op(PAIR), moduli.power(0.5)
        want = campanato.decay_audit(u, op, mod, K=4).ratios()
        for chunk in CHUNK_SIZES:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(fields, "_CHUNK_VALUES", chunk)
                for k, g in enumerate(D4):
                    v = fields.GridField(2, u.N, u.L, g(u.values))
                    assert close(campanato.decay_audit(v, op, mod, K=4).ratios(), want), (chunk, k)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=4, deadline=None)
    def test_adding_a_harmonic_quadratic(self, seed):
        """u + q, q = 3xy + x^2 - y^2 + 2x - 1, has trace(D2q) = 0, so every
        jet of u + q under the Laplacian is u's plus q."""
        u, mod = smooth_field(seed), moduli.power(0.5)
        q = fields.sample_function(lambda p: 3.0 * p[..., 0] * p[..., 1] + p[..., 0] ** 2
                                   - p[..., 1] ** 2 + 2.0 * p[..., 0] - 1.0, N=u.N)
        v = fields.GridField(2, u.N, u.L, u.values + q.values)
        want = campanato.decay_audit(u, LAPLACE, mod, K=4).ratios()
        for chunk in CHUNK_SIZES:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(fields, "_CHUNK_VALUES", chunk)
                got = campanato.decay_audit(v, LAPLACE, mod, K=4).ratios()
            assert close(got, want), chunk

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=4, deadline=None)
    def test_pucci_minus_of_u_is_pucci_plus_of_minus_3u(self, seed):
        """P+(-M) = -P-(M), so the jets of -3u under pucci_plus are -3 times
        u's under pucci_minus: its ratios at 3 delta are u's at delta, and
        fitted_C0 scales by 3."""
        u, mod = smooth_field(seed), moduli.power(0.5)
        delta = np.random.default_rng(seed).uniform(0.1, 2.0)
        want = campanato.decay_audit(u, operators.pucci_minus_op(PAIR), mod, K=4, delta=delta)
        for chunk in CHUNK_SIZES:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(fields, "_CHUNK_VALUES", chunk)
                got = campanato.decay_audit(u.scale(-3.0), operators.pucci_plus_op(PAIR), mod,
                                            K=4, delta=3.0 * delta)
            assert close(got.ratios(), want.ratios()), chunk
            assert close(got.fitted_C0, 3.0 * want.fitted_C0), chunk


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

    def test_cauchy_check_fails_increments_that_grow_against_tau(self):
        # D2u of |x1|^2.1 + 0.3 x2^2 varies like |x1|^0.1, far rougher than
        # power(1): inc/tau grows 0.094 -> 1.11 along the ladder, yet
        # cauchy_ok read True, as its constant was the largest ratio itself
        def kinked(pts):
            p = np.asarray(pts, dtype=float)
            return np.abs(p[..., 0]) ** 2.1 + 0.3 * p[..., 1] ** 2

        u = fields.sample_function(kinked, N=257)
        audit = campanato.decay_audit(u, LAPLACE, moduli.power(1.0), K=5)
        ratios = [rec.increment_ratio for rec in audit.records[1:]]
        assert ratios[0] < 0.1 and ratios[-1] > 1.0
        assert audit.cauchy_ok is False
        assert campanato.c2psi_seminorm(u, audit)[1] is False
        # increments that shrink with tau, or vanish, still pass
        saddle = fields.sample_function(fields.saddle_quartic_solution(1.0).value, N=129)
        for field, op in [(sample("harmonic_cubic"), LAPLACE), (sample("radial_5_2"), LAPLACE),
                          (saddle.scale(0.4 / np.max(np.abs(saddle.values))),
                           operators.perturbed_trace(0.5))]:
            assert campanato.decay_audit(field, op, moduli.power(1.0), K=4).cauchy_ok is True

    def test_degree_two_homogeneous_field_is_a_cauchy_blind_spot(self):
        # w = r^2 cos 4 theta is C^{1,1} but not C^2: sup|w - P| ~ r^2 against
        # r^2 sqrt(r), so the ratios and fitted_C0 grow like sqrt(2) per level
        # and per grid doubling; every ball's jet is the same quadratic, so
        # the increments are round-off and cauchy_ok cannot see the defect
        def cos4theta(pts):
            x1, x2 = pts[..., 0], pts[..., 1]
            r2 = x1**2 + x2**2
            return np.divide(x1**4 - 6.0 * x1**2 * x2**2 + x2**4, r2,
                             out=np.zeros_like(r2), where=r2 > 0)

        C0 = []
        for N in (129, 257, 513):
            u = fields.sample_function(cos4theta, N=N)
            audit = campanato.decay_audit(u, LAPLACE, moduli.power(0.5), K=7)
            ratios = audit.ratios()
            growth = np.divide(ratios[1:], ratios[:-1])
            assert np.all((1.3 < growth) & (growth < 1.6))
            if N == 257:
                assert ratios == pytest.approx([1.0, 1.41, 1.99, 2.80, 3.93, 6.12], abs=0.01)
            assert max(rec.hessian_increment for rec in audit.records[1:]) <= 1e-15
            assert audit.cauchy_ok is True
            C0.append(audit.fitted_C0)
        assert C0 == pytest.approx([1.44, 2.04, 2.88], abs=0.01)
        assert np.all(np.abs(np.divide(C0[1:], C0[:-1]) - np.sqrt(2.0)) < 0.01)

    def test_degree_two_homogeneous_field_in_3d_is_a_cauchy_blind_spot(self):
        # the 3-D analogue x1^2 x2^2 x3^2 / |x|^4: C^{1,1}, not C^2, so the
        # ratios and fitted_C0 grow, and cauchy_ok again cannot see it
        def w3(pts):
            x1, x2, x3 = pts[..., 0], pts[..., 1], pts[..., 2]
            r2 = x1**2 + x2**2 + x3**2
            return np.divide(x1**2 * x2**2 * x3**2, r2**2, out=np.zeros_like(r2), where=r2 > 0)

        laplace3 = operators.linear_trace(np.eye(3))
        C0 = []
        for N, K_max in [(33, 2), (65, 3), (129, 4)]:
            u = fields.sample_function(w3, n=3, N=N)
            audit = campanato.decay_audit(u, laplace3, moduli.power(0.5), rho0=0.5, K=7)
            assert audit.K_max == K_max
            ratios = audit.ratios()
            assert np.all(np.diff(ratios) > 0)
            if N == 129:
                assert ratios == pytest.approx([0.036, 0.051, 0.070, 0.087, 0.111], abs=0.001)
            assert max(rec.hessian_increment for rec in audit.records[1:]) <= 1e-16
            assert audit.cauchy_ok is True
            C0.append(audit.fitted_C0)
        assert C0 == pytest.approx([0.018, 0.026, 0.037], abs=0.001)
        assert np.all(np.diff(C0) > 0)

    def test_off_centre_audit_measures_its_own_ball(self):
        u = sample("radial_5_2")
        audit = campanato.decay_audit(u, LAPLACE, moduli.power(0.5), K=4, x0_idx=(80, 64))
        val, _ = campanato.c2psi_seminorm(u, audit)
        assert val == audit.fitted_C0

    def test_field_must_resolve_the_audited_scales(self):
        # the seminorm used to measure the balls of a field on a coarser grid
        # at the audit's radii, below the 3h that every fit needs
        audit = campanato.decay_audit(sample("harmonic_cubic"), LAPLACE, moduli.power(0.5), K=4)
        coarse = fields.sample_function(fields.profile("harmonic_cubic"), N=129, L=4.0)
        with pytest.raises(ConfigError):
            campanato.c2psi_seminorm(coarse, audit)

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
        scale = 0.25 * moduli.power(0.5).evaluate(0.5)
        assert v.values[0, 0] == (u.values[32, 32] - jet(x)) / scale
        # every node, against the centre quarter of the full-grid points
        sub = (slice(32, 97),) * 2
        pts = np.stack(u.meshgrid(), axis=-1)[sub]
        np.testing.assert_array_equal(v.values, (u.values[sub] - jet(pts)) / scale)

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


    def test_requires_ladder_from_one(self):
        u = sample("harmonic_cubic")
        audit = campanato.decay_audit(u, LAPLACE, moduli.power_log(0.5, 0.0), K=3)
        assert audit.records[0].radius == 0.5
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

    def test_search_shares_one_ladder(self, monkeypatch):
        built, psis = Counter(), Counter()
        ball_window, psi_transform = campanato.ball_window, campanato.psi_transform

        def counted_ball(u, x0_idx, r):
            built[(tuple(x0_idx), r)] += 1
            return ball_window(u, x0_idx, r)

        def counted_psi(mod, t):
            psis[t] += 1
            return psi_transform(mod, t)

        fam = self.family(N=65)
        op, mod = operators.perturbed_trace(0.5), moduli.power(1.0)
        monkeypatch.setattr(campanato, "ball_window", counted_ball)
        monkeypatch.setattr(campanato, "psi_transform", counted_psi)
        # K = 5 on N = 65 truncates at r = 1/16 < 3h
        search = campanato.flatness_threshold_search(
            fam, op, mod, [0.05, 0.2, 0.8, 1.6], K=5, refine_steps=3)
        monkeypatch.undo()
        assert len(search.table) == 7
        centre = fam(1.0).origin_index()
        assert built == Counter({(centre, 0.5**k): 1 for k in range(5)})
        assert psis == Counter({0.5**k: 1 for k in range(4)})
        for row in search.table:
            audit = campanato.decay_audit(fam(row["delta"]), op, mod, K=5, delta=row["delta"])
            assert audit.truncated and audit.K_max == 3
            assert row["worst_ratio"] == max(audit.ratios())
            assert row["passed"] == (max(audit.ratios()) <= 1.0)

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
