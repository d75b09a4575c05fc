import dataclasses
import itertools
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

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


def cyclic_drift(pts):
    return 0.1 * np.roll(np.asarray(pts, dtype=float), 1, axis=-1)


def coefficient(pts):
    """A positive coefficient a(x) for operators with an ``x_dependence``."""
    return 1.0 + 0.25 * np.sin(np.pi * pts[..., 0]) * pts[..., 1]


LAPLACE = operators.linear_trace(np.eye(2))


def jacobian_at(inst, u):
    """``solver._jacobian`` at u, from the jets of u's residual evaluation."""
    pts = solver._interior_points(inst)
    _, H, FH = solver._residual_jets(inst, u.values, pts)
    return solver._jacobian(inst, H, FH, pts)


def stencil(J, shape):
    """The coefficients of the DIA matrix J per diagonal and interior node
    (nodes of the given shape): row i's coefficient on the diagonal at
    stride s sits at column i + s, and a row whose column lies beyond the
    interior, where only a ring neighbour can be, reads +0."""
    coeff = np.zeros(J.data.shape)
    for c, d, s in zip(coeff, J.data, J.offsets):
        if s >= 0:
            c[:c.size - s] = d[s:]
        else:
            c[-s:] = d[:s]
    return coeff.reshape((-1,) + shape)


def linearized_iterates(monkeypatch) -> list:
    """Records, for each ``_jacobian`` a solve builds, the grid values it
    linearizes at: those of the residual evaluation whose Hessians it gets."""
    evaluated, iterates = [], []
    residual_jets, jacobian = solver._residual_jets, solver._jacobian

    def recording_residual(inst, vals, pts):
        out = residual_jets(inst, vals, pts)
        evaluated.append((vals.copy(), out[1]))
        return out

    def recording_jacobian(inst, H, FH, pts):
        iterates.append(next(vals for vals, h in evaluated if h is H))
        return jacobian(inst, H, FH, pts)

    monkeypatch.setattr(solver, "_residual_jets", recording_residual)
    monkeypatch.setattr(solver, "_jacobian", recording_jacobian)
    return iterates


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
        pts = np.stack(inst.source.meshgrid(), axis=-1)
        u = fields.GridField(2, 17, 1.0, np.asarray(u_star.value(pts)))
        res = solver.discrete_residual(inst, u)
        assert np.max(np.abs(res.values)) < 1e-12

    def test_quartic_mms_second_order(self):
        u_star = solver.saddle_quartic_solution(1.0)
        defects = []
        for N in (17, 33):
            inst = solver.mms_generate(LAPLACE, u_star, N=N)
            pts = np.stack(inst.source.meshgrid(), axis=-1)
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
        pts = np.stack(inst.source.meshgrid(), axis=-1)
        assert np.max(np.abs(rep.solution.values - h_star.value(pts))) < 1e-11

    def test_mms_closure_from_exact_start(self):
        op = operators.perturbed_trace(0.05)
        u_star = solver.saddle_quartic_solution(1e-2)
        inst = solver.mms_generate(op, u_star, N=33)
        pts = np.stack(inst.source.meshgrid(), axis=-1)
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

    @pytest.mark.parametrize("op, u_star, n, N, drift_fn", [
        (operators.perturbed_trace(0.05), solver.saddle_quartic_solution(1e-2), 2, 33,
         rotation_drift()),
        (operators.pucci_minus_op(operators.EllipticityPair(1.0, 2.0)),
         solver.saddle_quartic_solution(1e-2), 2, 33, None),
        (operators.pucci_plus_op(operators.EllipticityPair(1.0, 2.0), n=3),
         solver.quadratic_solution(0.1, [0.2, -0.1, 0.3],
                                   SymMatrix.diagonal([1.0, -0.5, 0.3])), 3, 9, None),
    ], ids=["perturbed_trace_2d_drift", "pucci_minus_2d", "pucci_plus_3d"])
    def test_converges_from_zero_interior(self, op, u_star, n, N, drift_fn):
        drift = None if drift_fn is None else fields.sample_function(
            drift_fn, n=n, N=N, components=n)
        inst = solver.mms_generate(op, u_star, N=N, drift=drift)
        u0 = inst.boundary.copy()
        u0[(slice(1, -1),) * n] = 0.0
        rep = solver.solve_newton(inst, fields.GridField(n, N, 1.0, u0), tol=1e-10)
        assert rep.converged and rep.iterations <= 8
        pts = np.stack(inst.source.meshgrid(), axis=-1)
        assert np.max(np.abs(rep.solution.values - u_star.value(pts))) < 1e-4

    def test_lost_ellipticity_solve_matches_the_direct_solver(self):
        # ROADMAP item 3's solve: DF's least eigenvalue at the solution is
        # near 0, so the sine preconditioner is far from J, yet the solve
        # converges to the sup error a sparse LU solve reached
        # (8.228217128536386e-06, 17 Newton steps)
        rep, err = solver.mms_solve(operators.perturbed_trace(0.5),
                                    solver.saddle_quartic_solution(np.pi), 129, 1.0, None, 1e-10)
        assert rep.converged and rep.iterations <= 17
        assert abs(err - 8.228217128536386e-06) <= 1e-12

    def test_pucci_plus_3d_at_33_in_six_steps(self):
        u_star = solver.quadratic_solution(0.1, [0.2, -0.1, 0.3],
                                           SymMatrix.diagonal([1.0, -0.5, 0.3]))
        rep, err = solver.mms_solve(operators.pucci_plus_op(operators.EllipticityPair(1.0, 2.0),
                                                            n=3), u_star, 33, 1.0, None, 1e-10)
        assert rep.converged and rep.iterations <= 6
        assert err <= 1e-10

    def test_all_zero_start_takes_full_steps(self):
        # the Dirichlet data is imposed on the start, so the sup-norm merit
        # never trades boundary rows against h^-2-scaled interior rows
        op = operators.pucci_minus_op(operators.EllipticityPair(1.0, 2.0))
        inst = solver.mms_generate(op, solver.saddle_quartic_solution(1e-2), N=129)
        zero = fields.GridField(2, 129, 1.0, np.zeros((129, 129)))
        rep = solver.solve_newton(inst, zero, tol=1e-10)
        assert rep.converged and rep.iterations <= 8
        assert not any("halvings" in e for e in rep.damping_events)
        np.testing.assert_array_equal(rep.solution.values[0], inst.boundary[0])

    def test_krylov_iterations_reported(self):
        # each Newton step runs at least one GMRES iteration, and the report
        # carries their total
        op = operators.perturbed_trace(0.05)
        inst = solver.mms_generate(op, solver.saddle_quartic_solution(1e-2), N=65)
        u0 = inst.boundary.copy()
        u0[1:-1, 1:-1] = 0.0
        rep = solver.solve_newton(inst, fields.GridField(2, 65, 1.0, u0), tol=1e-10)
        assert rep.converged and rep.iterations <= 4
        assert rep.krylov_iterations >= rep.iterations
        assert rep.describe()["krylov_iterations"] == rep.krylov_iterations

    def test_forcing_terms_follow_eisenstat_walker(self, monkeypatch):
        # GMRES's relative tolerance is 0.1 at the first step, then
        # min(0.1, 0.9 (|r_k|_2 / |r_k-1|_2)^2), never below 0.25 tol / |r_k|_inf
        calls = recorded_gmres(monkeypatch)
        iterates = linearized_iterates(monkeypatch)
        op = operators.pucci_minus_op(operators.EllipticityPair(1.0, 2.0))
        inst = solver.mms_generate(op, solver.saddle_quartic_solution(1e-2), N=33)
        u0 = inst.boundary.copy()
        u0[1:-1, 1:-1] = 0.0
        tol = 1e-10
        rep = solver.solve_newton(inst, fields.GridField(2, 33, 1.0, u0), tol=tol)
        assert rep.converged
        rtols = [call["rtol"] for call in calls]
        assert len(rtols) == len(iterates) == rep.iterations >= 3
        norms = [np.linalg.norm(solver.discrete_residual(inst, fields.GridField(2, 33, 1.0, u))
                                .values) for u in iterates]
        floors = [0.25 * tol / r for r in rep.residual_norm_history]
        assert rtols[0] == max(0.1, floors[0])
        for k in range(1, len(rtols)):
            eta = min(0.1, 0.9 * (norms[k] / norms[k - 1]) ** 2)
            assert rtols[k] == pytest.approx(max(eta, floors[k]), rel=1e-12)

    def test_damped_step_drops_factor(self, monkeypatch):
        # the second step needs a halving, the event records it, and the
        # next iteration linearizes at the iterate that damped step reached
        linearized = linearized_iterates(monkeypatch)
        inst = solver.mms_generate(operators.perturbed_trace(0.5),
                                   solver.saddle_quartic_solution(4.0), N=17)
        u0 = inst.boundary.copy()
        u0[1:-1, 1:-1] = 0.0
        rep = solver.solve_newton(inst, fields.GridField(2, 17, 1.0, u0), max_iter=3)
        assert rep.damping_events == [{"iteration": 2, "halvings": 1}]
        assert len(linearized) == 3
        res = solver.discrete_residual(inst, fields.GridField(2, 17, 1.0, linearized[2]))
        assert np.max(np.abs(res.values)) == rep.residual_norm_history[2]

    def test_uphill_step_stalls(self, monkeypatch):
        # with the Jacobian's coefficients negated and the preconditioner
        # kept, GMRES returns the uphill step, no halving of it lowers the
        # residual, and the first iteration gives up after 20 halvings
        jacobian = solver._jacobian

        def negated(*args):
            J, abar = jacobian(*args)
            return -J, abar

        monkeypatch.setattr(solver, "_jacobian", negated)
        inst = solver.mms_generate(operators.perturbed_trace(0.05),
                                   solver.saddle_quartic_solution(1e-2), N=33)
        u0 = inst.boundary.copy()
        u0[1:-1, 1:-1] = 0.0
        rep = solver.solve_newton(inst, fields.GridField(2, 33, 1.0, u0))
        assert not rep.converged
        assert rep.iterations == 1 and rep.krylov_iterations >= 1
        assert rep.damping_events == [{"iteration": 1, "event": "stalled"}]
        assert len(rep.residual_norm_history) == 1

    @pytest.mark.parametrize("tol, max_iter", [
        (float("nan"), 30), (float("inf"), 30), (1e-10, 0), (1e-10, -3),
    ])
    def test_meaningless_tolerance_or_cap_rejected(self, tol, max_iter):
        # nan and a cap below 1 ran no iteration; inf converged at once
        inst = solver.mms_generate(operators.perturbed_trace(0.05),
                                   solver.saddle_quartic_solution(1e-2), N=9)
        u0 = fields.GridField(2, 9, 1.0, np.zeros((9, 9)))
        with pytest.raises(ConfigError):
            solver.solve_newton(inst, u0, tol=tol, max_iter=max_iter)

    def test_singular_jacobian_reported(self):
        # F = 0 has a zero Jacobian, so the means of DF's diagonal the
        # preconditioner needs are zero, and the solve reports it instead of
        # raising or warning
        op = operators.extension(lambda H: np.zeros(np.shape(H)[:-2]),
                                 operators.EllipticityPair(1.0, 2.0), callback_id="zero")
        N = 17
        inst = solver.ProblemInstance(op, fields.GridField(2, N, 1.0, np.ones((N, N))),
                                      np.zeros((N, N)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = solver.solve_newton(inst, fields.GridField(2, N, 1.0, np.zeros((N, N))))
        assert not rep.converged and rep.krylov_iterations == 0
        assert rep.damping_events == [{"iteration": 1, "event": "singular"}]


def damped_instance(n):
    """An x-dependent problem whose solve from a zero interior halves a step
    (2-D, with a drift), or a 3-D Pucci one."""
    if n == 2:
        op = dataclasses.replace(operators.perturbed_trace(1.0), x_dependence=coefficient)
        drift = fields.sample_function(rotation_drift(), N=17, components=2)
        return solver.mms_generate(op, solver.saddle_quartic_solution(6.0), N=17, drift=drift)
    op = operators.pucci_plus_op(operators.EllipticityPair(1.0, 2.0), n=3)
    u_star = solver.quadratic_solution(0.1, np.array([0.2, -0.1, 0.3]),
                                       SymMatrix.diagonal([1.0, -0.5, 0.3]))
    return solver.mms_generate(op, u_star, N=9)


def zero_interior(inst):
    g = inst.source
    u0 = inst.boundary.copy()
    u0[(slice(1, -1),) * g.n] = 0.0
    return fields.GridField(g.n, g.N, g.L, u0)


class TestJetReuse:
    """A solve builds each Jacobian from the interior Hessians and F values
    its iterate's residual evaluation computed, and the interior points once."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_one_jet_evaluation_per_residual(self, monkeypatch, n):
        inst = damped_instance(n)
        counts = {"jets": 0, "points": 0}
        jets, points = solver.interior_jets, solver._interior_points

        def counted_jets(*args):
            counts["jets"] += 1
            return jets(*args)

        def counted_points(*args):
            counts["points"] += 1
            return points(*args)

        monkeypatch.setattr(solver, "interior_jets", counted_jets)
        monkeypatch.setattr(solver, "_interior_points", counted_points)
        rep = solver.solve_newton(inst, zero_interior(inst))
        assert rep.converged
        halvings = sum(e.get("halvings", 0) for e in rep.damping_events)
        assert halvings >= (1 if n == 2 else 0)
        # the start, then each accepted trial and each halved one
        assert counts == {"jets": 1 + rep.iterations + halvings, "points": 1}

    @pytest.mark.parametrize("n", [2, 3])
    def test_jacobian_is_a_fresh_linearization_at_its_iterate(self, monkeypatch, n):
        inst = damped_instance(n)
        iterates = linearized_iterates(monkeypatch)
        built, recording = [], solver._jacobian

        def keep(*args):
            built.append(recording(*args))
            return built[-1]

        monkeypatch.setattr(solver, "_jacobian", keep)
        rep = solver.solve_newton(inst, zero_interior(inst), max_iter=4)
        monkeypatch.undo()
        assert len(iterates) == len(built) == rep.iterations >= 3
        pts = solver._interior_points(inst)
        for vals, (J, abar) in zip(iterates, built):
            H, _ = fields.interior_jets(vals, n, inst.source.h)
            fresh, fresh_abar = solver._jacobian(inst, H, inst.op.evaluate_batch(H, pts), pts)
            np.testing.assert_array_equal(fresh.offsets, J.offsets)
            np.testing.assert_array_equal(fresh.data, J.data)
            np.testing.assert_array_equal(fresh_abar, abar)


# block sizes for the residual and Jacobian passes, which run in
# fields.row_blocks of the interior Hessian stack: one row (or slab) per
# block, several rows with a shorter last block, and the default; UNBLOCKED
# puts the whole interior in one block
CHUNK_SIZES = (8, 24, 1000, 5000, fields._CHUNK_VALUES)
UNBLOCKED = 2**62


def blocked_instance(case):
    """2-D perturbed_trace with a rotation drift and an x_dependence, 2-D
    pucci_minus, or 3-D pucci_plus at N=17, from MMS data."""
    pair = operators.EllipticityPair(1.0, 2.0)
    if case == "perturbed_trace_2d_drift_x":
        op = dataclasses.replace(operators.perturbed_trace(0.5), x_dependence=coefficient)
        drift = fields.sample_function(rotation_drift(), N=33, components=2)
        return solver.mms_generate(op, solver.saddle_quartic_solution(2.0), N=33, drift=drift)
    if case == "pucci_minus_2d":
        return solver.mms_generate(operators.pucci_minus_op(pair),
                                   solver.saddle_quartic_solution(1e-2), N=33)
    u_star = solver.quadratic_solution(0.1, np.array([0.2, -0.1, 0.3]),
                                       SymMatrix.diagonal([1.0, -0.5, 0.3]))
    return solver.mms_generate(operators.pucci_plus_op(pair, n=3), u_star, N=17)


def unblocked_residual(inst, vals, pts):
    """``_residual_jets`` over the whole interior at once."""
    f = inst.source
    core = (slice(1, -1),) * f.n
    H, G = fields.interior_jets(vals, f.n, f.h)
    FH = inst.op.evaluate_batch(H, pts)
    res = vals - inst.boundary
    defect = FH if inst.drift is None else (
        FH + np.einsum("...i,...i->...", inst.drift.values[core], G))
    res[core] = defect - f.values[core]
    return res, H, FH


def unblocked_jacobian(inst, H, FH, pts):
    """``_jacobian`` the direct way: DF from ``linearize`` over the whole
    interior, each weight's (w dF) / (c h^p) added in stencil order, the
    coefficients of neighbours on the boundary ring set to zero, and abar
    the means of DF's diagonal."""
    f = inst.source
    n, h = f.n, f.h
    offsets, slots = solver._offset_slots(n)
    DF = operators.linearize(inst.op, H, pts, FH)
    coeff = np.zeros((len(offsets),) + H.shape[:-2])
    for entry, entry_slots in zip(fields.central_stencil(n), slots):
        if entry.p == 2:
            a, b = entry.index
            dF = DF[..., a, a] if a == b else 2.0 * DF[..., a, b]
        elif inst.drift is not None:
            dF = inst.drift.values[(slice(1, -1),) * n][..., entry.index[0]]
        else:
            continue
        for w, k in zip(entry.weights, entry_slots):
            coeff[k] += (w * dF) / (entry.c * h**entry.p)
    for off, c in zip(offsets, coeff):
        for a, o in enumerate(off):
            if o:
                c[(slice(None),) * a + (-1 if o > 0 else 0,)] = 0.0
    return offsets, coeff, np.array([np.mean(DF[..., a, a]) for a in range(n)])


def same_bits(got, want):
    return all(np.asarray(g).tobytes() == np.asarray(w).tobytes() for g, w in zip(got, want))


class TestBlocks:
    """The residual and the Jacobian run block by block over the interior
    rows; every block size gives the unblocked values bit for bit."""

    CASES = ["perturbed_trace_2d_drift_x", "pucci_minus_2d", "pucci_plus_3d"]

    @pytest.mark.parametrize("case", CASES)
    def test_residual_and_jacobian_are_the_unblocked_ones(self, monkeypatch, case):
        inst = blocked_instance(case)
        rng = np.random.default_rng(5)
        vals = inst.boundary + 0.1 * rng.standard_normal(inst.boundary.shape)
        pts = solver._interior_points(inst)
        res, H, FH = unblocked_residual(inst, vals, pts)
        want = unblocked_jacobian(inst, H, FH, pts)
        blocks = []
        for chunk in CHUNK_SIZES:
            monkeypatch.setattr(fields, "_CHUNK_VALUES", chunk)
            blocks.append(len(fields.row_blocks(H.shape)))
            got = solver._residual_jets(inst, vals, pts)
            assert same_bits(got, (res, H, FH)), chunk
            J, abar = solver._jacobian(inst, H, FH, pts)
            assert same_bits((stencil(J, H.shape[:-2]), abar), want[1:]), chunk
        # one row (or slab) per block, and blocks of several
        assert blocks[0] == H.shape[0] and any(1 < b < H.shape[0] for b in blocks)

    @pytest.mark.parametrize("case", CASES)
    def test_solve_is_the_unblocked_one(self, monkeypatch, case):
        inst = blocked_instance(case)
        monkeypatch.setattr(fields, "_CHUNK_VALUES", UNBLOCKED)
        want = solver.solve_newton(inst, zero_interior(inst))
        assert want.converged and want.iterations >= 3
        for chunk in CHUNK_SIZES:
            monkeypatch.setattr(fields, "_CHUNK_VALUES", chunk)
            got = solver.solve_newton(inst, zero_interior(inst))
            assert got.residual_norm_history == want.residual_norm_history
            assert got.solution.values.tobytes() == want.solution.values.tobytes()
            assert (got.krylov_iterations, got.damping_events) == (
                want.krylov_iterations, want.damping_events)


def quartic_3d():
    """u*(x) = sum_a c_a x_a^4 / 12 + x.M x / 2 in 3-D, with no two axes alike."""
    c = np.array([1.0, 0.5, -0.25])
    M = np.array([[1.0, 0.2, 0.0], [0.2, -0.5, 0.1], [0.0, 0.1, 0.3]])
    return fields.AnalyticSolution(
        lambda p: np.sum(c * p**4, axis=-1) / 12.0 + 0.5 * np.einsum("...i,ij,...j->...", p, M, p),
        lambda p: c * p**3 / 3.0 + p @ M,
        lambda p: M + (c * p**2)[..., None] * np.eye(3))


class TestSymmetry:
    """A problem carried by a symmetry of the grid solves to its solution
    carried by the same symmetry, in as many Newton and Krylov iterations:
    Pucci's F sees only the Hessian's eigenvalues, and the stencil maps
    onto itself.  The maps act on the grid arrays, so the data are moved
    exactly and only the solves' round-off differs."""

    SQUARE = [lambda a, k=k, t=t: np.rot90(a.T if t else a, k) for t in (0, 1) for k in range(4)]
    CUBE = [lambda a, p=p: np.transpose(a, p) for p in itertools.permutations(range(3))]

    @pytest.mark.parametrize("case", ["pucci_minus_2d_square", "pucci_plus_3d_cube"])
    def test_solves_commute_with_the_grid_symmetries(self, case):
        pair = operators.EllipticityPair(1.0, 2.0)
        if case == "pucci_minus_2d_square":
            inst = solver.mms_generate(operators.pucci_minus_op(pair),
                                       solver.saddle_quartic_solution(1.0), N=65)
            maps = self.SQUARE
        else:
            inst = solver.mms_generate(operators.pucci_plus_op(pair, n=3), quartic_3d(), N=17)
            maps = self.CUBE
        want = solver.solve_newton(inst, zero_interior(inst))
        assert want.converged and want.iterations >= 3
        scale = np.max(np.abs(want.solution.values))
        f = inst.source
        for g in maps:
            moved = solver.ProblemInstance(
                inst.op, fields.GridField(f.n, f.N, f.L, np.ascontiguousarray(g(f.values))),
                np.ascontiguousarray(g(inst.boundary)))
            got = solver.solve_newton(moved, zero_interior(moved))
            assert got.converged
            assert (got.iterations, got.krylov_iterations) == (
                want.iterations, want.krylov_iterations)
            assert np.max(np.abs(got.solution.values - g(want.solution.values))) <= 1e-12 * scale


def counted_preconditioner(monkeypatch) -> list:
    """A list that gains the input of every application of any M that
    ``_sine_inverse`` builds."""
    applied = []
    sine_inverse = solver._sine_inverse

    def counted(*args):
        M = sine_inverse(*args)

        def apply(v):
            applied.append(v.copy())
            return M(v)

        return apply

    monkeypatch.setattr(solver, "_sine_inverse", counted)
    return applied


def recorded_gmres(monkeypatch) -> list:
    """A list that gains, for each ``_gmres`` call, its arguments J, rhs and
    rtol and its step and iteration count, as a dict."""
    calls = []
    gmres = solver._gmres

    def recording(J, M, rhs, rtol, basis):
        step, iterations = gmres(J, M, rhs, rtol, basis)
        calls.append({"J": J, "rhs": rhs.copy(), "rtol": rtol, "step": step.copy(),
                      "iterations": iterations})
        return step, iterations

    monkeypatch.setattr(solver, "_gmres", recording)
    return calls


class TestPreconditionerReuse:
    """GMRES keeps Z = M V next to its Krylov basis V, so a step is Z y and
    costs no M beyond one per Krylov iteration."""

    @pytest.mark.parametrize("case", ["perturbed_trace_2d_drift_x", "pucci_plus_3d"])
    def test_a_solve_applies_M_once_per_gmres_matvec(self, monkeypatch, case):
        # one M per J M product, that is per Krylov iteration, and none at
        # the end of a cycle
        inst = blocked_instance(case)
        applied = counted_preconditioner(monkeypatch)
        rep = solver.solve_newton(inst, zero_interior(inst))
        assert rep.converged and rep.iterations >= 3
        assert len(applied) == rep.krylov_iterations

    @pytest.mark.parametrize("case", ["perturbed_trace_2d_drift_x", "pucci_minus_2d",
                                      "pucci_plus_3d"])
    def test_each_step_meets_its_forcing_term(self, monkeypatch, case):
        # the true residual of every step, not GMRES's least-squares estimate
        inst = blocked_instance(case)
        calls = recorded_gmres(monkeypatch)
        rep = solver.solve_newton(inst, zero_interior(inst))
        assert rep.converged and len(calls) == rep.iterations >= 3
        assert sum(c["iterations"] for c in calls) == rep.krylov_iterations
        for c in calls:
            rhs = c["rhs"].ravel()
            assert np.linalg.norm(rhs - c["J"] @ c["step"].ravel()) <= (
                c["rtol"] * np.linalg.norm(rhs))


def scipy_gmres(J, M, rhs, rtol):
    """The reference for ``solver._gmres``: scipy's GMRES on J M, restarted
    and capped as the solver's, with the step M y for its solution y, and
    its iteration count."""
    counted = []
    JM = spla.LinearOperator(J.shape, dtype=float, matvec=lambda y: J @ M(y))
    y, _ = spla.gmres(JM, rhs, rtol=rtol, restart=solver._RESTART, maxiter=solver._CYCLES,
                      callback=counted.append, callback_type="pr_norm")
    return M(y), len(counted)


def own_gmres(J, M, rhs, rtol):
    """``solver._gmres`` with a fresh basis, any warning raised as an error."""
    basis = np.empty((2 * solver._RESTART + 1, rhs.size))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return solver._gmres(J, M, rhs, rtol, basis)


def nonsymmetric_system(seed, size=60, spread=0.6):
    """A random nonsymmetric J, 4 I plus a Gaussian of spectral radius about
    ``spread``, so well conditioned, and a random right-hand side."""
    rng = np.random.default_rng(seed)
    J = 4.0 * np.eye(size) + spread * rng.standard_normal((size, size)) / np.sqrt(size)
    return J, rng.standard_normal(size)


class TestGmres:
    """``solver._gmres`` against scipy's GMRES on the right-preconditioned
    system: the same Krylov spaces give the same steps and counts."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("diagonal", [False, True])
    @pytest.mark.parametrize("rtol", [1e-2, 1e-8])
    def test_matches_scipy(self, seed, diagonal, rtol):
        J, rhs = nonsymmetric_system(seed)
        d = np.linspace(0.5, 2.0, rhs.size) if diagonal else np.ones(rhs.size)
        M = lambda v: v / d   # noqa: E731
        want, want_iterations = scipy_gmres(J, M, rhs, rtol)
        step, iterations = own_gmres(J, M, rhs, rtol)
        assert iterations == want_iterations >= 2
        np.testing.assert_allclose(step, want, rtol=0.0, atol=1e-12 * np.max(np.abs(want)))
        assert np.linalg.norm(rhs - J @ step) <= rtol * np.linalg.norm(rhs)

    def test_restarts_run_across_cycles_up_to_the_cap(self, monkeypatch):
        # three iterations a cycle: one system converges in its second
        # cycle, a harder one runs every cycle and stops at the cap
        monkeypatch.setattr(solver, "_RESTART", 3)
        M = lambda v: v   # noqa: E731
        J, rhs = nonsymmetric_system(3)
        want, want_iterations = scipy_gmres(J, M, rhs, 1e-3)
        step, iterations = own_gmres(J, M, rhs, 1e-3)
        assert iterations == want_iterations and 3 < iterations < 3 * solver._CYCLES
        np.testing.assert_allclose(step, want, rtol=0.0, atol=1e-12 * np.max(np.abs(want)))
        J, rhs = nonsymmetric_system(4, spread=3.0)
        want, _ = scipy_gmres(J, M, rhs, 1e-12)
        step, iterations = own_gmres(J, M, rhs, 1e-12)
        assert iterations == 3 * solver._CYCLES
        np.testing.assert_allclose(step, want, rtol=0.0, atol=1e-12 * np.max(np.abs(want)))
        assert np.linalg.norm(rhs - J @ step) > 1e-12 * np.linalg.norm(rhs)

    def test_basis_stays_orthonormal(self):
        # Gram-Schmidt run twice keeps V orthonormal to round-off over four
        # full cycles on a spectrum spread over six decades, where a single
        # pass lets V drift from orthonormal by about 100 eps
        rng = np.random.default_rng(0)
        J = np.diag(np.logspace(0, 6, 200)) + 0.1 * rng.standard_normal((200, 200))
        basis = np.empty((2 * solver._RESTART + 1, 200))
        _, iterations = solver._gmres(J, lambda v: v, rng.standard_normal(200), 1e-14, basis)
        V = basis[:solver._RESTART + 1]
        assert iterations == solver._RESTART * solver._CYCLES
        assert np.abs(V @ V.T - np.eye(len(V))).max() <= 5e-15

    def test_zero_rhs_takes_no_iteration(self):
        J, _ = nonsymmetric_system(5)
        step, iterations = own_gmres(J, lambda v: v, np.zeros((6, 10)), 0.1)
        assert iterations == 0 and step.shape == (6, 10) and not np.any(step)

    def test_exact_preconditioner_takes_one_iteration(self):
        # J M = I breaks down after one iteration, with the exact step and
        # no warning
        d = np.linspace(1.0, 3.0, 40)
        J = sp.dia_array((d[None, :], [0]), shape=(40, 40))
        rhs = np.random.default_rng(6).standard_normal(40)
        step, iterations = own_gmres(J, lambda v: v / d, rhs, 1e-14)
        assert iterations == 1
        np.testing.assert_allclose(step, rhs / d, rtol=1e-15)

    def test_singular_system_warns_of_nothing(self):
        # a zero column of J M along the rhs: J z = 0 at the first iteration,
        # a breakdown with a zero pivot, so a zero step
        J, _ = nonsymmetric_system(7)
        J[:, 0] = 0.0
        rhs = np.zeros(J.shape[0])
        rhs[0] = 1.0
        step, iterations = own_gmres(J, lambda v: v, rhs, 1e-6)
        assert iterations == 1 and not np.any(step)


def jacobian_times(inst, u, v):
    """J v for v on the interior nodes, by the solver's DIA matrix."""
    J, _ = jacobian_at(inst, u)
    return (J @ v.ravel()).reshape(v.shape)


class TestJacobian:
    """J v against the central directional difference of the interior
    residual, for v zero on the boundary ring, and against a Jacobian
    assembled from COO triplets.

    DF comes from ``entry_slopes`` in closed form, so J is the residual's
    derivative, and the difference misses it by its own truncation and
    round-off only.  u is a quadratic with Hessian eigenvalues away from 0
    plus grid-scale noise, so Pucci's eigenvalue kinks lie beyond every
    difference step.  J acts on the interior nodes in natural C order.
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
        core = (slice(1, -1),) * n
        v = np.zeros(shape)
        v[core] = rng.standard_normal((N - 2,) * n)

        def residual(w):
            return solver.discrete_residual(inst, fields.GridField(n, N, 1.0, w)).values[core]

        Jv = jacobian_times(inst, fields.GridField(n, N, 1.0, u), v[core])
        eps = 1e-6
        fd = (residual(u + eps * v) - residual(u - eps * v)) / (2.0 * eps)
        assert np.max(np.abs(Jv - fd)) <= 1e-6 * np.max(np.abs(Jv))

    @staticmethod
    def triplet_jacobian(inst, u):
        """The Jacobian assembled the direct way, in natural order: one COO
        triplet per stencil term and interior neighbour, from one
        ``entry_slopes`` call over the whole interior, duplicates summed by
        tocsc."""
        f = inst.source
        n, N, h = f.n, f.N, f.h
        core = (slice(1, -1),) * n
        size = (N - 2) ** n
        padded = np.full((N,) * n, -1)
        padded[core] = np.arange(size).reshape((N - 2,) * n)
        H, _ = fields.interior_jets(u.values, n, h)
        slopes = operators.entry_slopes(inst.op, H, solver._interior_points(inst))
        triu = list(zip(*np.triu_indices(n)))
        rows, cols, data = [], [], []
        for entry in fields.central_stencil(n):
            if entry.p == 2:
                dF = slopes[triu.index(entry.index)]
            elif inst.drift is not None:
                dF = inst.drift.values[core][..., entry.index[0]]
            else:
                continue
            dF = dF.ravel()
            for w, off in zip(entry.weights, entry.offsets):
                c = fields.shifted_interior(padded, off).ravel()
                r = np.flatnonzero(c >= 0)
                rows.append(r)
                cols.append(c[r])
                data.append((w * dF[r]) / (entry.c * h**entry.p))
        J = sp.coo_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                          shape=(size, size))
        return J.tocsc()

    @pytest.mark.parametrize("op, n, N, drift_fn", [
        (operators.perturbed_trace(0.05), 2, 33, rotation_drift()),
        (operators.pucci_minus_op(operators.EllipticityPair(1.0, 2.0)), 2, 33, None),
        # linearize scales the closed-form slopes by a(x) at the nodes' points
        (dataclasses.replace(operators.pucci_minus_op(operators.EllipticityPair(1.0, 2.0)),
                             x_dependence=coefficient), 2, 33, None),
        (operators.pucci_plus_op(operators.EllipticityPair(1.0, 2.0), n=3), 3, 17, None),
        (operators.pucci_plus_op(operators.EllipticityPair(1.0, 2.0), n=3), 3, 17,
         cyclic_drift),
    ], ids=["perturbed_trace_2d_drift", "pucci_minus_2d", "pucci_minus_2d_x", "pucci_plus_3d",
            "pucci_plus_3d_drift"])
    def test_matches_triplet_assembly(self, op, n, N, drift_fn):
        # the stencil and the matrix sum the same products in other orders
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        u_star = solver.quadratic_solution(
            0.1, rng.uniform(-0.3, 0.3, n),
            SymMatrix.from_matrix(q @ np.diag([1.0, -0.5, 0.3][:n]) @ q.T))
        drift = None if drift_fn is None else fields.sample_function(
            drift_fn, n=n, N=N, components=n)
        inst = solver.mms_generate(op, u_star, N=N, drift=drift)
        u = inst.boundary.copy()
        u[(slice(1, -1),) * n] = 0.3 * rng.standard_normal((N - 2,) * n)
        u = fields.GridField(n, N, 1.0, u)
        v = rng.standard_normal((N - 2,) * n)
        ref = self.triplet_jacobian(inst, u)
        Jv = jacobian_times(inst, u, v).ravel()
        bound = 4 * np.finfo(float).eps * np.max(abs(ref) @ np.abs(v.ravel()))
        assert np.max(np.abs(Jv - ref @ v.ravel())) <= bound

    @pytest.mark.parametrize("n, N", [(2, 3), (2, 5), (2, 17), (3, 3), (3, 5), (3, 9)])
    def test_flat_shifts_are_the_zero_padded_sum(self, monkeypatch, n, N):
        # J holds each offset's coefficients on the diagonal at its flat
        # stride, so J @ v sums the offsets' products, in order, over the
        # flattened interior; with the coefficients of ring neighbours zero,
        # as _jacobian makes them, it is bit for bit the sum over v padded
        # with zeros, signed zeros included, at every block size.  At N=3
        # every neighbour is on the ring and most strides reach past the
        # one interior node
        rng = np.random.default_rng(n)
        inst = solver.mms_generate(operators.perturbed_trace(0.05, n=n), solver.quadratic_solution(
            0.1, np.zeros(n), SymMatrix.diagonal([1.0, -0.5, 0.3][:n])), N=N,
            drift=fields.sample_function(cyclic_drift, n=n, N=N, components=n))
        offsets, _ = solver._offset_slots(n)
        signs = rng.choice([-1.0, 1.0, 0.0], (len(offsets), (N - 2) ** n))
        v = rng.standard_normal((N - 2,) * n)
        v[rng.random(v.shape) < 0.3] = -0.0
        padded = np.pad(v, 1)
        for chunk in CHUNK_SIZES:
            monkeypatch.setattr(fields, "_CHUNK_VALUES", chunk)
            J, _ = jacobian_at(inst, fields.GridField(n, N, 1.0, inst.boundary))
            J.data *= signs
            want = np.zeros_like(v)
            for off, c in zip(offsets, stencil(J, v.shape)):
                want += c * fields.shifted_interior(padded, off)
            assert (J @ v.ravel()).tobytes() == want.tobytes(), chunk

    def test_step_meets_its_forcing_term(self):
        # the first step from a zero interior solves J s = -r to GMRES's
        # tolerance of 0.1, checked against the triplet matrix
        op = operators.perturbed_trace(0.05)
        drift = fields.sample_function(rotation_drift(), N=33, components=2)
        inst = solver.mms_generate(op, solver.saddle_quartic_solution(1e-2),
                                   N=33, drift=drift)
        u0 = inst.boundary.copy()
        u0[1:-1, 1:-1] = 0.0
        u0 = fields.GridField(2, 33, 1.0, u0)
        rep = solver.solve_newton(inst, u0, tol=1e-300, max_iter=1)
        assert rep.damping_events == [] and rep.krylov_iterations >= 1
        r = solver.discrete_residual(inst, u0).values[1:-1, 1:-1].ravel()
        step = (rep.solution.values - u0.values)[1:-1, 1:-1].ravel()
        J = self.triplet_jacobian(inst, u0)
        assert np.linalg.norm(J @ step + r) <= 0.1 * np.linalg.norm(r)

    @pytest.mark.parametrize("n, N", [(2, 17), (3, 9)])
    def test_interior_points_are_the_sliced_meshgrid(self, n, N):
        # read only by an operator with an x_dependence
        zero = fields.GridField(n, N, 1.0, np.zeros((N,) * n))
        op = operators.linear_trace(np.eye(n))
        assert solver._interior_points(solver.ProblemInstance(op, zero, zero.values)) is None
        inst = solver.ProblemInstance(dataclasses.replace(op, x_dependence=coefficient), zero,
                                      zero.values)
        full = np.stack(zero.meshgrid(), axis=-1)[(slice(1, -1),) * n]
        np.testing.assert_array_equal(solver._interior_points(inst), full)


    def test_pattern_is_cached_read_only_and_shared(self):
        inst = solver.mms_generate(operators.perturbed_trace(0.05),
                                   solver.saddle_quartic_solution(1e-2), N=17)
        pattern = solver._offset_slots(2)
        assert solver._offset_slots(2) is pattern
        offsets, slots = pattern
        for part in (offsets, *offsets, slots, *slots):
            assert isinstance(part, tuple)
        with pytest.raises(TypeError):
            offsets[0] = (0, 0)
        zero = fields.GridField(2, 17, 1.0, np.zeros((17, 17)))
        for u in (zero, fields.GridField(2, 17, 1.0, inst.boundary)):
            J, _ = jacobian_at(inst, u)
            assert J.data.shape == (len(offsets), 15**2)


def constant_operator(abar, h, w):
    """sum_a abar[a] (1, -2, 1)/h^2 along axis a, on w with zero data beyond it."""
    n, p = w.ndim, np.pad(w, 1)
    out = np.zeros_like(w)
    for a, c in enumerate(abar):
        lo, hi = [slice(1, -1)] * n, [slice(1, -1)] * n
        lo[a], hi[a] = slice(None, -2), slice(2, None)
        out += c * (p[tuple(hi)] - 2.0 * w + p[tuple(lo)]) / h**2
    return out


class TestSinePreconditioner:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_inverts_the_constant_coefficient_operator(self, data):
        # odd N, N - 1 a power of two (9, 17, 33) or not (7, 19, 35)
        n = data.draw(st.sampled_from([2, 3]), label="n")
        N = data.draw(st.sampled_from([3, 7, 9, 17, 19, 33, 35]), label="N")
        abar = np.array(data.draw(st.lists(st.floats(1e-2, 1e2), min_size=n, max_size=n),
                                  label="abar"))
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        m, h = N - 2, 2.0 / (N - 1)
        v = np.random.default_rng(seed).standard_normal((m,) * n)
        w = solver._sine_inverse(abar, h, m)(v)
        assert np.max(np.abs(constant_operator(abar, h, w) - v)) <= 1e-12 * np.max(np.abs(v))


def recorded_reports(monkeypatch) -> list:
    """A list that gains the report of every ``solve_newton`` call."""
    reports = []
    solve = solver.solve_newton

    def recording(*args, **kwargs):
        reports.append(solve(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(solver, "solve_newton", recording)
    return reports


def one_krylov_iteration_per_step(report) -> bool:
    return report.converged and report.krylov_iterations == report.iterations


class TestTangentialSolve:
    # the two exact-quadratic cases used to start from the boundary callback
    # sampled at every node, the answer itself; for a diagonal A0 the sine
    # preconditioner inverts the Jacobian, so each step takes one Krylov
    # iteration
    def test_harmonic_quadratic_exact(self, monkeypatch):
        reports = recorded_reports(monkeypatch)
        u = solver.solve_linear_tangential(
            SymMatrix.identity(2),
            lambda pts: np.asarray(pts)[..., 0] * np.asarray(pts)[..., 1],
            N=33)
        pts = np.stack(u.meshgrid(), axis=-1)
        np.testing.assert_allclose(u.values, pts[..., 0] * pts[..., 1], atol=1e-11)
        assert one_krylov_iteration_per_step(reports[0])

    def test_anisotropic_null_quadratic(self, monkeypatch):
        # tr(diag(1,2) M) = 0 for M = diag(2,-1): quadratic reproduced exactly
        reports = recorded_reports(monkeypatch)
        A0 = SymMatrix.diagonal([1.0, 2.0])
        bnd = lambda pts: np.asarray(pts)[..., 0] ** 2 - 0.5 * np.asarray(pts)[..., 1] ** 2
        u = solver.solve_linear_tangential(A0, bnd, N=33)
        pts = np.stack(u.meshgrid(), axis=-1)
        np.testing.assert_allclose(u.values, bnd(pts), atol=1e-10)
        assert one_krylov_iteration_per_step(reports[0])

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

    def test_refinement_reuses_one_factorization(self, monkeypatch):
        # DF of a linear F is its matrix exactly, so abar is the same at every
        # step, and the later steps reuse the first step's sine-transform
        # factorization.  The mixed term keeps M from being J's inverse, so
        # each step stops at its forcing term and the solve takes several.
        reports = recorded_reports(monkeypatch)
        calls = []
        sine_inverse = solver._sine_inverse

        def counted(*args):
            calls.append(args)
            return sine_inverse(*args)

        monkeypatch.setattr(solver, "_sine_inverse", counted)
        bnd = lambda pts: np.exp(pts[..., 0]) * np.cos(2.0 * pts[..., 1])
        solver.solve_linear_tangential(SymMatrix.from_matrix([[1.0, 0.3], [0.3, 1.0]]), bnd,
                                       N=129)
        assert reports[0].converged and reports[0].iterations >= 2
        assert len(calls) == 1

    @pytest.mark.parametrize("diagonal", [[1.0, 1.0], [1.0, 3.0], [2.0, 0.5, 1.0]],
                             ids=["identity", "anisotropic", "3d"])
    def test_diagonal_matrix_takes_one_krylov_iteration_per_step(self, monkeypatch, diagonal):
        reports = recorded_reports(monkeypatch)
        bnd = lambda pts: np.exp(pts[..., 0]) * np.cos(2.0 * pts[..., -1])
        n = len(diagonal)
        solver.solve_linear_tangential(SymMatrix.diagonal(diagonal), bnd, N=129 if n == 2 else 33)
        assert one_krylov_iteration_per_step(reports[0])

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
        # each rung starts from a zero interior, not from u*
        assert all(it >= 2 for it in study.iterations)

    @pytest.mark.parametrize("op", [
        operators.linear_trace(np.eye(2), x_dependence=lambda x: 1.0 + x[..., 0] ** 2 / 4.0),
        dataclasses.replace(operators.pucci_minus_op(operators.EllipticityPair(1.0, 2.0)),
                            x_dependence=lambda x: 1.0 + x[..., 0] ** 2 / 4.0),
    ], ids=["linear_trace", "pucci_minus"])
    def test_x_dependent_coefficient_second_order(self, op):
        # an x_dependence makes the residual and Jacobian pass node coordinates
        study = solver.convergence_study(op, solver.saddle_quartic_solution(0.1),
                                         N_list=(17, 33, 65))
        assert all(isinstance(o, float) and o >= 1.8 for o in study.orders)

    def test_needs_three_levels(self):
        with pytest.raises(ConfigError):
            solver.convergence_study(LAPLACE, solver.saddle_quartic_solution(1.0),
                                     N_list=(9, 17))

    @pytest.mark.parametrize("op, u_star", [
        (operators.pucci_plus_op(operators.EllipticityPair(1.0, 2.0), n=3),
         solver.saddle_quartic_solution(0.1)),
        (LAPLACE, solver.quadratic_solution(0.0, np.zeros(3), SymMatrix.identity(3))),
    ], ids=["3d_operator_2d_saddle", "2d_operator_3d_quadratic"])
    def test_u_star_of_another_dimension_rejected(self, op, u_star):
        # the first built a 3-D problem on 2 x 2 Hessians; the second let
        # numpy's broadcast ValueError escape
        with pytest.raises(ConfigError, match="u_star"):
            solver.mms_generate(op, u_star, N=9)

    @pytest.mark.parametrize("N", [-1, 0, 8])
    @pytest.mark.parametrize("drift_fn", [None, rotation_drift()])
    def test_bad_node_count_rejected_before_allocation(self, N, drift_fn):
        u_star = solver.saddle_quartic_solution(1.0)
        with pytest.raises(ConfigError):
            solver.mms_generate(LAPLACE, u_star, N=N)
        with pytest.raises(ConfigError):
            solver.mms_solve(LAPLACE, u_star, N, 1.0, drift_fn, tol=1e-10)
