"""Batch experiment runner.

Subcommands mirror the library modules: ``moduli-check``,
``operator-verify``, ``solve``, ``mms``, ``audit``, and ``flatness``.
Each reads a YAML config, writes a YAML report (embedding the resolved
config) plus flat CSV tables under ``--out``, and exits 0 when all
requested checks pass, 1 on a check failure, 2 on a config error.
Identical configs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np
import yaml

from . import campanato, fields, moduli, operators, solver
from .errors import ConfigError, DivergentIntegralError, EllipticLabError, NonDifferentiableError


# -- plumbing -----------------------------------------------------------------


def _clean(obj):
    """Recursively coerce numpy scalars/arrays so YAML stays plain."""
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_clean(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):  # before int: bool is an int subclass
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _write_report(outdir: Path, report: dict) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "report.yaml", "w") as fh:
        yaml.safe_dump(_clean(report), fh, sort_keys=True, default_flow_style=False)


def _write_csv(outdir: Path, name: str, rows: list) -> None:
    if not rows:
        return
    outdir.mkdir(parents=True, exist_ok=True)
    cols = list(rows[0].keys())
    with open(outdir / f"{name}.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=cols)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _clean(v) for k, v in row.items()})


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh)
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a YAML mapping")
    return cfg


def _need(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config key {key!r} is required")
    return cfg[key]


def _parse_modulus(spec: dict) -> moduli.Modulus:
    if not isinstance(spec, dict):
        raise ConfigError("modulus spec must be a mapping")
    return moduli.from_dict(spec)


def _parse_pair(spec) -> operators.EllipticityPair:
    if not isinstance(spec, dict) or "lambda" not in spec or "Lambda" not in spec:
        raise ConfigError("pair spec needs keys lambda and Lambda")
    return operators.EllipticityPair(float(spec["lambda"]), float(spec["Lambda"]))


def _parse_operator(spec: dict) -> operators.OperatorSpec:
    if not isinstance(spec, dict):
        raise ConfigError("operator spec must be a mapping")
    kind = _need(spec, "kind")
    n = int(spec.get("n", 2))
    pair = _parse_pair(spec["pair"]) if "pair" in spec else None
    if kind == "linear_trace":
        return operators.linear_trace(np.asarray(_need(spec, "matrix"), dtype=float), pair=pair)
    if kind == "perturbed_trace":
        return operators.perturbed_trace(float(_need(spec, "eps")), n=n, pair=pair)
    if kind not in ("pucci_plus", "pucci_minus"):
        raise ConfigError(f"unsupported operator kind {kind!r} in configs")
    if pair is None:
        raise ConfigError("config key 'pair' is required")
    return operators.OperatorSpec(kind, n, pair)


def _parse_solution(spec: dict, n: int) -> solver.AnalyticSolution:
    """The u_star spec as an n-dimensional exact solution."""
    if not isinstance(spec, dict):
        raise ConfigError("u_star spec must be a mapping")
    kind = _need(spec, "type")
    if kind == "quadratic":
        M = operators.SymMatrix.from_matrix(np.asarray(_need(spec, "M"), dtype=float))
        b = np.asarray(spec.get("b", np.zeros(M.n)), dtype=float)
        if M.n != n or b.shape != (n,):
            raise ConfigError(f"u_star M must be {n} x {n} and b have {n} entries")
        return solver.quadratic_solution(float(spec.get("c", 0.0)), b, M)
    if kind == "saddle_quartic":
        if n != 2:
            raise ConfigError("u_star saddle_quartic needs a 2-D operator")
        return solver.saddle_quartic_solution(float(_need(spec, "delta")))
    raise ConfigError(f"unknown u_star type {kind!r}")


def _rotation_drift(spec):
    """The config's drift as a callable on stacked points, or None."""
    if spec is None:
        return None
    kind = _need(spec, "type")
    if kind != "rotation":
        raise ConfigError(f"unknown drift type {kind!r}")
    scale = float(spec.get("scale", 0.1))

    def rot(pts):
        pts = np.asarray(pts, dtype=float)
        out = np.zeros_like(pts)
        out[..., 0] = scale * pts[..., 1]
        out[..., 1] = -scale * pts[..., 0]
        return out

    return rot


def _field_from_config(spec: dict) -> fields.GridField:
    if "file" in spec:
        return fields.load_field(spec["file"])
    name = _need(spec, "profile")
    N = int(spec.get("N", 129))
    L = float(spec.get("L", 1.0))
    coeff = float(spec.get("coeff", 1.0))
    f = fields.profile(name)
    g = fields.sample_function(f, n=2, N=N, L=L)
    return g.scale(coeff) if coeff != 1.0 else g


# -- subcommand handlers -------------------------------------------------------


def _run_moduli_check(cfg: dict, outdir: Path, seed: int) -> int:
    mod = _parse_modulus(_need(cfg, "modulus"))
    checks = cfg.get("checks", ["dini", "a4", "lcc", "s_over_tau"])
    report = {"config": cfg, "modulus": mod.describe(), "results": {}}
    tables = []
    failed = False

    if "dini" in checks:
        try:
            dini = moduli.dini_integral(mod)
            report["results"]["dini"] = {
                "value": dini.value,
                "converged": dini.converged,
                "tail_estimate": dini.tail_estimate,
            }
            if not dini.converged:
                failed = True
        except DivergentIntegralError as exc:
            report["results"]["dini"] = {"converged": False, "divergent": True,
                                         "detail": str(exc)}
            failed = True
    if "a4" in checks:
        cert = moduli.check_A4(mod, float(cfg.get("alpha0", 0.5)))
        report["results"]["a4"] = cert.describe()
        if "fail" in (cert.verdict_i, cert.verdict_ii):
            failed = True
        for s, v in cert.cond_i_profile:
            tables.append({"check": "a4_cond_i", "s": s, "value": v})
        for s, v in cert.cond_ii_profile:
            tables.append({"check": "a4_cond_ii", "s": s, "value": v})
    if "lcc" in checks:
        lcc = moduli.check_LCC(mod)
        report["results"]["lcc"] = lcc.describe()
        if not lcc.passed:
            failed = True
    if "s_over_tau" in checks:
        st = moduli.check_s_over_tau(mod)
        report["results"]["s_over_tau"] = st.describe()
        if not st.passed:
            failed = True
    for gamma in cfg.get("holder_gammas", []):
        wit = moduli.holder_witness(mod, float(gamma))
        report["results"][f"holder_{gamma}"] = wit.describe()

    report["passed"] = not failed
    _write_report(outdir, report)
    _write_csv(outdir, "profiles", tables)
    return 1 if failed else 0


def _run_operator_verify(cfg: dict, outdir: Path, seed: int) -> int:
    op = _parse_operator(_need(cfg, "operator"))
    plan = operators.SamplePlan(seed=seed, count=int(cfg.get("samples", 400)))
    report = {"config": cfg, "operator": op.describe(), "results": {}}
    failed = False

    ell = operators.verify_ellipticity(op, plan)
    report["results"]["ellipticity"] = ell.describe()
    if not ell.passed:
        failed = True

    if cfg.get("structure", False):
        sc = operators.check_SC(op, plan)
        report["results"]["structure"] = sc.describe()
        if cfg.get("require_structure", False) and not (
            sc.convex and sc.zero_at_origin and sc.trace_minorant
            and sc.differentiable_at_origin and sc.one_homogeneous
        ):
            failed = True

    if cfg.get("tangential", False):
        try:
            A0 = operators.tangential_limit(op, seed=seed)
            report["results"]["tangential"] = {
                "matrix": A0.matrix.tolist(),
                "differentiable": True,
            }
        except (NonDifferentiableError,) as exc:
            report["results"]["tangential"] = {"differentiable": False,
                                               "detail": str(exc)}

    if "theta" in cfg:
        x = np.asarray(cfg["theta"].get("x", [0.3] * op.n), dtype=float)
        x0 = np.asarray(cfg["theta"].get("x0", [0.0] * op.n), dtype=float)
        report["results"]["theta"] = {
            "value": operators.oscillation_theta(op, x, x0, plan),
            "x": x.tolist(),
            "x0": x0.tolist(),
        }

    report["passed"] = not failed
    _write_report(outdir, report)
    return 1 if failed else 0


def _run_solve(cfg: dict, outdir: Path, seed: int) -> int:
    op = _parse_operator(_need(cfg, "operator"))
    grid = _need(cfg, "grid")
    N, L = int(_need(grid, "N")), float(grid.get("L", 1.0))
    u_star = _parse_solution(_need(cfg, "u_star"), op.n)
    drift_fn = _rotation_drift(cfg.get("drift"))
    drift = None if drift_fn is None else fields.sample_function(
        drift_fn, n=op.n, N=N, L=L, components=op.n)
    inst = solver.mms_generate(op, u_star, N=N, L=L, drift=drift)
    u0 = fields.GridField(op.n, N, L, inst.boundary.copy())
    rep = solver.solve_newton(inst, u0, tol=float(cfg.get("tol", 1e-10)),
                              max_iter=int(cfg.get("max_iter", 30)))
    pts = np.stack(inst.source.meshgrid(), axis=-1)
    sup_err = float(np.max(np.abs(rep.solution.values - u_star.value(pts))))
    report = {"config": cfg, "solve": rep.describe(), "sup_error_vs_exact": sup_err,
              "passed": bool(rep.converged)}
    _write_report(outdir, report)
    fields.save_field(rep.solution, outdir / "solution.field")
    return 0 if rep.converged else 1


def _run_mms(cfg: dict, outdir: Path, seed: int) -> int:
    op = _parse_operator(_need(cfg, "operator"))
    u_star = _parse_solution(_need(cfg, "u_star"), op.n)
    N_list = [int(v) for v in cfg.get("N_list", [33, 65, 129])]
    study = solver.convergence_study(op, u_star, N_list=N_list,
                                     drift_fn=_rotation_drift(cfg.get("drift")),
                                     tol=float(cfg.get("tol", 1e-10)))
    min_order = float(cfg.get("min_order", 1.8))
    numeric = [o for o in study.orders if isinstance(o, float)]
    passed = all(o >= min_order for o in numeric) if numeric else True
    report = {"config": cfg, "study": study.describe(), "passed": passed}
    _write_report(outdir, report)
    rows = [
        {"N": N, "sup_error": e, "iterations": it}
        for N, e, it in zip(study.N_list, study.errors, study.iterations)
    ]
    _write_csv(outdir, "convergence", rows)
    return 0 if passed else 1


def _run_audit(cfg: dict, outdir: Path, seed: int) -> int:
    field = _field_from_config(_need(cfg, "field"))
    op = _parse_operator(_need(cfg, "operator"))
    mod = _parse_modulus(_need(cfg, "modulus"))
    audit = campanato.decay_audit(
        field, op, mod,
        rho0=float(cfg.get("rho0", 0.5)),
        K=int(cfg.get("K", 4)),
        delta=float(cfg.get("delta", 1.0)),
    )
    failed = False
    ratios = audit.ratios()
    if cfg.get("require_decreasing", False):
        if any(b >= a for a, b in zip(ratios, ratios[1:])):
            failed = True
    if "max_ratio" in cfg and max(ratios) > float(cfg["max_ratio"]):
        failed = True
    fit = campanato.fit_decay_exponent(audit)
    report = {"config": cfg, "audit": audit.describe(),
              "exponent_fit": fit.describe(), "passed": not failed}
    _write_report(outdir, report)
    _write_csv(outdir, "audit", audit.table())
    return 1 if failed else 0


def _run_flatness(cfg: dict, outdir: Path, seed: int) -> int:
    op = _parse_operator(_need(cfg, "operator"))
    mod = _parse_modulus(_need(cfg, "modulus"))
    grid = cfg.get("grid", {})
    N, L = int(grid.get("N", 129)), float(grid.get("L", 1.0))
    deltas = [float(v) for v in _need(cfg, "deltas")]

    base = solver.saddle_quartic_solution(1.0)
    probe = fields.sample_function(base.value, n=op.n, N=N, L=L)
    sup = float(np.max(np.abs(probe.values)))

    def family(delta: float) -> fields.GridField:
        return probe.scale(delta / sup)

    search = campanato.flatness_threshold_search(
        family, op, mod, deltas,
        rho0=float(cfg.get("rho0", 0.5)), K=int(cfg.get("K", 4)),
        refine_steps=int(cfg.get("refine_steps", 8)),
    )
    passed = True
    if cfg.get("require_finite_delta_star", False) and search.delta_star is None:
        passed = False
    if cfg.get("require_all_pass", False):
        passed = passed and all(row["passed"] for row in search.table)
    report = {"config": cfg, "search": search.describe(), "passed": passed}
    _write_report(outdir, report)
    _write_csv(outdir, "flatness", search.table)
    return 0 if passed else 1


_HANDLERS = {
    "moduli-check": _run_moduli_check,
    "operator-verify": _run_operator_verify,
    "solve": _run_solve,
    "mms": _run_mms,
    "audit": _run_audit,
    "flatness": _run_flatness,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ellipticlab",
        description="Batch runner for modulus checks, operator verification, "
                    "grid solves, and decay audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML config path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
        cfg["seed"] = seed
        return _HANDLERS[args.command](cfg, Path(args.out), seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except EllipticLabError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
