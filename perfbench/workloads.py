"""The three benchmark workloads: ``newton``, ``audit`` and ``flatness``.

Each workload function ``(seed, work, smoke)`` is one set-up: it generates
the inputs under ``work`` and returns a list of operations, with tiny grids
when ``smoke`` is set.  An operation's ``run()`` is the
timed call into ellipticlab; its ``check(result)`` runs untimed afterwards
and returns the names of the checks that failed.  The seed changes
coefficients only (drift scale, the 3-D quadratic, field amplitudes, the
control's scale), never grid sizes, K, delta lists or refine steps, so a
pass does the same work on every seed.  RATIONALE.md says why each workload
and each check is there.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import yaml

from ellipticlab import cli, fields, operators, solver
from ellipticlab.operators import EllipticityPair, SymMatrix

TOL = 1e-10
PAIR = EllipticityPair(1.0, 2.0)
DELTAS = [0.05, 0.1, 0.2, 0.4, 0.8, 1.6]

# Checks that fail on the parent code because of a defect already on the
# ROADMAP.  They still count in `failed`; they do not make a run incorrect.
KNOWN_DEFECTS = {
    # ROADMAP item 2: the table reads pass..fail..pass at delta=1.6 and the
    # report carries no non-monotone flag.
    ("flatness", "perturbed_trace_0.25", "monotone_or_flagged"),
}


def _rotation(scale: float):
    def drift(pts):
        out = np.zeros_like(pts)
        out[..., 0] = scale * pts[..., 1]
        out[..., 1] = -scale * pts[..., 0]
        return out

    return drift


def _write_yaml(path: Path, cfg: dict) -> Path:
    with open(path, "w") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=True)
    return path


# -- newton ---------------------------------------------------------------------


class NewtonSolve:
    """Library Newton solve from the boundary data with a zero interior,
    saving the solution the way ``ellipticlab solve`` does."""

    workload = "newton"

    def __init__(self, name, inst, exact, err_tol, out: Path):
        self.name, self.inst, self.exact, self.err_tol, self.out = name, inst, exact, err_tol, out
        self.sup_err = 0.0

    def run(self):
        g = self.inst.source
        u0 = self.inst.boundary.copy()
        u0[(slice(1, -1),) * g.n] = 0.0
        rep = solver.solve_newton(self.inst, fields.GridField(g.n, g.N, g.L, u0), tol=TOL)
        fields.save_field(rep.solution, self.out)
        return rep

    def check(self, rep) -> list:
        err = float(np.max(np.abs(rep.solution.values - self.exact)))
        self.sup_err = max(self.sup_err, err)
        g = self.inst.source
        with open(self.out) as fh:
            header = fh.readline().split()
        failed = []
        if not rep.converged:
            failed.append("converged")
        if not rep.residual_norm_history[-1] <= TOL:
            failed.append("final_residual")
        if not err <= self.err_tol:
            failed.append("sup_err")
        if header[:2] != [str(g.n), str(g.N)]:
            failed.append("saved_header")
        return failed


def newton(seed: int, work: Path, smoke: bool) -> list:
    rng = np.random.default_rng(seed)
    n2, n3 = (65, 9) if smoke else (257, 17)
    drift_scale = 0.1 * rng.uniform(0.8, 1.25)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    eig = np.array([1.0, -0.5, 0.3]) * rng.uniform(0.8, 1.25)
    quadratic = solver.quadratic_solution(
        rng.uniform(-0.2, 0.2), rng.uniform(-0.3, 0.3, 3),
        SymMatrix.from_matrix(q @ np.diag(eig) @ q.T))
    saddle = solver.saddle_quartic_solution(1e-2)
    drift = fields.sample_function(_rotation(drift_scale), n=2, N=n2, components=2)
    cases = [
        ("perturbed_trace", operators.perturbed_trace(0.05), saddle, n2, drift, 1e-6),
        ("pucci_minus", operators.pucci_minus_op(PAIR), saddle, n2, None, 1e-6),
        ("pucci_plus_3d", operators.pucci_plus_op(PAIR, n=3), quadratic, n3, None, 1e-10),
    ]
    ops = []
    for name, op, u_star, N, b, err_tol in cases:
        inst = solver.mms_generate(op, u_star, N=N, drift=b)
        exact = u_star.value(np.stack(inst.source.meshgrid(), axis=-1))
        ops.append(NewtonSolve(name, inst, exact, err_tol, work / f"{name}.field"))
    return ops


# -- CLI workloads ----------------------------------------------------------------


class CliRun:
    """One ``ellipticlab <command>`` run, in process through ``cli.main``.

    ``checks`` are (name, predicate on the parsed report.yaml) pairs.  With
    ``same_report``, the report must also be byte-identical on every pass.
    """

    def __init__(self, workload, name, command, config: Path, out: Path, checks,
                 same_report=False):
        self.workload, self.name = workload, name
        self.argv = [command, "--config", str(config), "--out", str(out)]
        self.report = out / "report.yaml"
        self.checks, self.same_report = checks, same_report
        self.first_report = None

    def run(self):
        return cli.main(self.argv)

    def check(self, code) -> list:
        failed = [] if code == 0 else ["exit_code"]
        if not self.report.is_file():
            return failed + ["report"]
        raw = self.report.read_bytes()
        if self.first_report is None:
            self.first_report = raw
        if self.same_report and raw != self.first_report:
            failed.append("report_byte_identical")
        report = yaml.safe_load(raw)
        failed += [name for name, ok in self.checks if not ok(report)]
        return failed


def _strictly_decreasing(report):
    ratios = [rec["normalized_ratio"] for rec in report["audit"]["records"]]
    return all(b < a for a, b in zip(ratios, ratios[1:]))


def _exponent_near_half(report):
    fit = report["exponent_fit"]
    return bool(fit["defined"]) and 0.4 <= fit["alpha_hat"] <= 0.6


def audit(seed: int, work: Path, smoke: bool) -> list:
    rng = np.random.default_rng(seed)
    N, K = (129, 4) if smoke else (1025, 8)
    base = {"modulus": {"family": "power", "alpha": 0.5}, "K": K, "seed": seed}
    cases = [
        ("harmonic_cubic", {"kind": "linear_trace", "matrix": [[1.0, 0.0], [0.0, 1.0]]},
         {"require_decreasing": True},
         [("strictly_decreasing", _strictly_decreasing)]),
        ("radial_5_2", {"kind": "pucci_plus", "pair": PAIR.describe()}, {},
         [("exponent_in_0.4_0.6", _exponent_near_half)]),
    ]
    ops = []
    for profile, operator, extra, checks in cases:
        coeff = rng.uniform(0.5, 2.0)
        field_path = work / f"{profile}.field"
        fields.save_field(fields.sample_function(fields.profile(profile), n=2, N=N).scale(coeff),
                          field_path)
        cfg = dict(base, field={"file": str(field_path)}, operator=operator, **extra)
        config = _write_yaml(work / f"audit_{profile}.yaml", cfg)
        ops.append(CliRun("audit", profile, "audit", config, work / f"audit_{profile}", checks,
                          same_report=True))
    return ops


def _delta_star_inside(report):
    star = report["search"]["delta_star"]
    return star is not None and math.isfinite(star) and star < max(DELTAS)


def _all_rows_pass(report):
    return all(row["passed"] for row in report["search"]["table"])


def _monotone_or_flagged(report):
    """Passes precede failures along delta, or the report flags that they do not."""
    search = report["search"]
    if search.get("non_monotone") is True or search.get("monotone") is False:
        return True
    flags = [row["passed"] for row in sorted(search["table"], key=lambda r: r["delta"])]
    return flags == sorted(flags, reverse=True)


def flatness(seed: int, work: Path, smoke: bool) -> list:
    rng = np.random.default_rng(seed)
    N, K, refine = (33, 2, 2) if smoke else (129, 4, 8)
    base = {"modulus": {"family": "power", "alpha": 1.0}, "grid": {"N": N}, "K": K,
            "deltas": DELTAS, "seed": seed}
    c = float(rng.uniform(0.8, 1.25))
    cases = [
        ("perturbed_trace_0.5", {"kind": "perturbed_trace", "eps": 0.5}, refine,
         [("delta_star_inside", _delta_star_inside)]),
        ("perturbed_trace_0.25", {"kind": "perturbed_trace", "eps": 0.25}, refine,
         [("delta_star_inside", _delta_star_inside)]),
        ("laplacian_control", {"kind": "linear_trace", "matrix": [[c, 0.0], [0.0, c]]}, 0,
         [("all_rows_pass", _all_rows_pass)]),
    ]
    ops = []
    for name, operator, steps, checks in cases:
        cfg = dict(base, operator=operator, refine_steps=steps)
        config = _write_yaml(work / f"flatness_{name}.yaml", cfg)
        ops.append(CliRun("flatness", name, "flatness", config, work / f"flatness_{name}",
                          checks + [("monotone_or_flagged", _monotone_or_flagged)]))
    return ops


WORKLOADS = {"newton": newton, "audit": audit, "flatness": flatness}
