import numpy as np
import pytest

from ellipticlab import fields, operators, solver
from ellipticlab.errors import ConfigError
from ellipticlab.operators import SymMatrix


def rotation_drift(scale=0.1):
    def f(pts):
        pts = np.asarray(pts, dtype=float)
        out = np.zeros_like(pts)
        out[..., 0] = scale * pts[..., 1]
        out[..., 1] = -scale * pts[..., 0]
        return out

    return f


LAPLACE = operators.linear_trace(np.eye(2))


class TestResidual:
    def test_zero_problem(self):
        N = 17
        zero = fields.GridField(2, N, 1.0, np.zeros((N, N)))
        inst = solver.ProblemInstance(LAPLACE, zero, np.zeros((N, N)))
        res = solver.discrete_residual(inst, zero)
        np.testing.assert_array_equal(res.values, 0.0)

    def test_quadratic_mms_exact(self):
        # scheme exact on quadratics: residual at round-off
        u_star = solver.quadratic_solution(0.3, [0.1, -0.2],
                                           SymMatrix.from_matrix([[1.0, 0.5], [0.5, -2.0]]))
        inst = solver.mms_generate(LAPLACE, u_star, N=17)
        pts = np.stack(inst.grid.meshgrid(), axis=-1)
        u = fields.GridField(2, 17, 1.0, np.asarray(u_star.value(pts)))
        res = solver.discrete_residual(inst, u)
        assert np.max(np.abs(res.values)) < 1e-12

    def test_quartic_mms_second_order(self):
        u_star = solver.saddle_quartic_solution(1.0)
        defects = []
        for N in (17, 33):
            inst = solver.mms_generate(LAPLACE, u_star, N=N)
            pts = np.stack(inst.grid.meshgrid(), axis=-1)
            u = fields.GridField(2, N, 1.0, np.asarray(u_star.value(pts)))
            defects.append(np.max(np.abs(solver.discrete_residual(inst, u).values)))
        assert defects[0] / defects[1] == pytest.approx(4.0, rel=0.1)

    def test_boundary_rows_are_data_mismatch(self):
        N = 9
        zero = fields.GridField(2, N, 1.0, np.zeros((N, N)))
        boundary = np.ones((N, N))
        inst = solver.ProblemInstance(LAPLACE, zero, boundary)
        res = solver.discrete_residual(inst, zero)
        assert res.values[0, 3] == -1.0
        assert res.values[4, 4] == 0.0

    def test_grid_mismatch_rejected(self):
        zero9 = fields.GridField(2, 9, 1.0, np.zeros((9, 9)))
        zero17 = fields.GridField(2, 17, 1.0, np.zeros((17, 17)))
        inst = solver.ProblemInstance(LAPLACE, zero9, np.zeros((9, 9)))
        with pytest.raises(ConfigError):
            solver.discrete_residual(inst, zero17)


class TestNewton:
    def test_harmonic_quadratic_one_step(self):
        # linear problem, scheme exact on quadratics: one Newton step
        h_star = solver.quadratic_solution(0.0, [0.0, 0.0],
                                           SymMatrix.diagonal([2.0, -2.0]))
        inst = solver.mms_generate(LAPLACE, h_star, N=33)
        assert np.max(np.abs(inst.source.values)) < 1e-13
        u0 = fields.GridField(2, 33, 1.0, inst.boundary.copy())
        rep = solver.solve_newton(inst, u0, tol=1e-12)
        assert rep.converged
        assert rep.iterations <= 1
        pts = np.stack(inst.grid.meshgrid(), axis=-1)
        assert np.max(np.abs(rep.solution.values - h_star.value(pts))) < 1e-11

    def test_mms_closure_from_exact_start(self):
        op = operators.perturbed_trace(0.05)
        u_star = solver.saddle_quartic_solution(1e-2)
        inst = solver.mms_generate(op, u_star, N=33)
        pts = np.stack(inst.grid.meshgrid(), axis=-1)
        exact = fields.GridField(2, 33, 1.0, np.asarray(u_star.value(pts)))
        rep = solver.solve_newton(inst, exact, tol=1e-8)
        assert rep.converged and rep.iterations <= 2

    def test_residual_solution_consistency(self):
        op = operators.perturbed_trace(0.05)
        drift = fields.sample_function(rotation_drift(), N=33, components=2)
        inst = solver.mms_generate(op, solver.saddle_quartic_solution(1e-2),
                                   N=33, drift=drift)
        u0 = fields.GridField(2, 33, 1.0, inst.boundary.copy())
        rep = solver.solve_newton(inst, u0, tol=1e-10)
        assert rep.converged
        res = solver.discrete_residual(inst, rep.solution)
        assert np.max(np.abs(res.values)) <= 1e-10

    def test_deterministic(self):
        op = operators.perturbed_trace(0.05)
        inst = solver.mms_generate(op, solver.saddle_quartic_solution(1e-2), N=17)
        u0 = fields.GridField(2, 17, 1.0, inst.boundary.copy())
        r1 = solver.solve_newton(inst, u0)
        r2 = solver.solve_newton(inst, u0)
        np.testing.assert_array_equal(r1.solution.values, r2.solution.values)
        assert r1.residual_norm_history == r2.residual_norm_history

    def test_max_iter_exceeded_reported(self):
        op = operators.perturbed_trace(0.05)
        inst = solver.mms_generate(op, solver.saddle_quartic_solution(1e-2), N=17)
        u0 = fields.GridField(2, 17, 1.0, np.zeros((17, 17)))
        rep = solver.solve_newton(inst, u0, tol=1e-300, max_iter=2)
        assert not rep.converged
        assert len(rep.residual_norm_history) >= 1


class TestJacobian:
    """J @ v against the central directional difference of the residual.

    u is a quadratic with Hessian eigenvalues away from 0 plus grid-scale
    noise, so Pucci's eigenvalue kinks lie beyond every difference step
    and the one-sided dF/dH steps in J stay small.
    """

    @pytest.mark.parametrize("op, n, N, drift_fn", [
        (operators.perturbed_trace(0.05), 2, 17, rotation_drift()),
        (operators.pucci_plus_op(operators.EllipticityPair(1.0, 2.0), n=3), 3, 9, None),
    ], ids=["perturbed_trace_2d_drift", "pucci_plus_3d"])
    def test_matches_directional_difference(self, op, n, N, drift_fn):
        rng = np.random.default_rng(0)
        shape = (N,) * n
        drift = None if drift_fn is None else fields.sample_function(
            drift_fn, n=n, N=N, components=n)
        source = fields.GridField(n, N, 1.0, rng.standard_normal(shape))
        inst = solver.ProblemInstance(op, source, rng.standard_normal(shape), drift)
        q = fields.Polynomial2D(0.0, np.zeros(n), SymMatrix.diagonal([1.0, -0.5, 0.3][:n]))
        u = fields.sample_function(q, n=n, N=N)
        u = u.values + 0.01 * u.h**2 * rng.standard_normal(shape)
        v = rng.standard_normal(shape)

        def residual(w):
            return solver.discrete_residual(inst, fields.GridField(n, N, 1.0, w)).values

        J = solver._assemble_jacobian(inst, fields.GridField(n, N, 1.0, u))
        Jv = (J @ v.ravel()).reshape(shape)
        eps = 1e-6
        fd = (residual(u + eps * v) - residual(u - eps * v)) / (2.0 * eps)
        assert np.max(np.abs(Jv - fd)) <= 1e-6 * np.max(np.abs(Jv))


class TestTangentialSolve:
    def test_harmonic_quadratic_exact(self):
        u = solver.solve_linear_tangential(
            SymMatrix.identity(2),
            lambda pts: np.asarray(pts)[..., 0] * np.asarray(pts)[..., 1],
            N=33)
        pts = np.stack(u.meshgrid(), axis=-1)
        np.testing.assert_allclose(u.values, pts[..., 0] * pts[..., 1], atol=1e-11)

    def test_anisotropic_null_quadratic(self):
        # tr(diag(1,2) M) = 0 for M = diag(2,-1): quadratic reproduced exactly
        A0 = SymMatrix.diagonal([1.0, 2.0])
        bnd = lambda pts: np.asarray(pts)[..., 0] ** 2 - 0.5 * np.asarray(pts)[..., 1] ** 2
        u = solver.solve_linear_tangential(A0, bnd, N=33)
        pts = np.stack(u.meshgrid(), axis=-1)
        np.testing.assert_allclose(u.values, bnd(pts), atol=1e-10)

    def test_zero_boundary_zero_solution(self):
        u = solver.solve_linear_tangential(SymMatrix.identity(2),
                                           np.zeros((17, 17)), N=17)
        np.testing.assert_allclose(u.values, 0.0, atol=1e-14)

    def test_maximum_principle_sign(self):
        # tr(A0 D2u) = f >= 0 with zero boundary forces u <= 0 inside
        N = 33
        f = fields.sample_function(lambda pts: np.ones(np.asarray(pts).shape[:-1]),
                                   N=N)
        u = solver.solve_linear_tangential(SymMatrix.diagonal([1.0, 2.0]),
                                           np.zeros((N, N)), N=N, source=f)
        assert np.max(u.values[1:-1, 1:-1]) <= 1e-12

    def test_smooth_boundary_data_accepted(self):
        # O(1) data: Newton must stop at the same 1e-10 relative residual
        # that the final gate asks for
        bnd = lambda pts: np.exp(pts[..., 0]) * np.cos(2.0 * pts[..., 1])
        for N in (33, 65):
            u = solver.solve_linear_tangential(SymMatrix.identity(2), bnd, N=N)
            pts = np.stack(u.meshgrid(), axis=-1)
            np.testing.assert_array_equal(u.values[0], bnd(pts[0]))

    def test_indefinite_matrix_rejected(self):
        with pytest.raises(ConfigError):
            solver.solve_linear_tangential(SymMatrix.diagonal([1.0, -1.0]),
                                           np.zeros((9, 9)), N=9)


class TestConvergenceStudy:
    def test_quadratic_exact_orders(self):
        u_star = solver.quadratic_solution(0.0, [0.0, 0.0],
                                           SymMatrix.diagonal([1.0, -1.0]))
        study = solver.convergence_study(LAPLACE, u_star, N_list=(9, 17, 33))
        assert all(o == "exact" for o in study.orders)

    def test_smooth_nonlinear_second_order(self):
        op = operators.perturbed_trace(0.05)
        study = solver.convergence_study(op, solver.saddle_quartic_solution(1e-2),
                                         N_list=(17, 33, 65),
                                         drift_fn=rotation_drift())
        numeric = [o for o in study.orders if isinstance(o, float)]
        assert numeric and all(1.8 <= o <= 2.2 for o in numeric)
        assert study.monotone

    def test_needs_three_levels(self):
        with pytest.raises(ConfigError):
            solver.convergence_study(LAPLACE, solver.saddle_quartic_solution(1.0),
                                     N_list=(9, 17))
