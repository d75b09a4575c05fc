"""Batch experiment runner.

Subcommands mirror the library modules: ``moduli-check``,
``operator-verify``, ``solve``, ``mms``, ``audit``, and ``flatness``.
Each handler reads every key of its YAML config and returns a
zero-argument function that computes: it returns the report body, its
other files ({file name: CSV rows or a GridField}) and whether every
requested check passed.  ``main`` refuses a config key the handler never
read before calling that function, then alone writes the YAML report
(body, resolved config and ``passed``) and the files under ``--out``.
It exits 0 when all requested checks pass, 1 on a check failure and 2 on
a config error; a run that raises writes nothing.
Identical configs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np
import yaml

from . import campanato, fields, moduli, operators
from .errors import BracketError, ConfigError, EllipticLabError, NonDifferentiableError


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


def _write_csv(path: Path, rows: list) -> None:
    if not rows:
        return
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
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


# each key _read was asked for since ``main`` loaded the config, as a
# tuple of its parts
_ASKED: set = set()


def _read(cfg: dict, key: str, convert=lambda v: v, default=...):
    """The config value at the dotted ``key`` through ``convert``, or
    ``default`` when absent.  A missing required key, a non-mapping on the
    path or a value ``convert`` rejects raises ConfigError naming the key."""
    parts = tuple(key.split("."))
    _ASKED.add(parts)
    value = cfg
    for part in parts:
        if not isinstance(value, dict):
            raise ConfigError(f"config key {key!r}: {value!r} is not a mapping")
        if part not in value:
            if default is ...:
                raise ConfigError(f"config key {key!r} is required")
            return default
        value = value[part]
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key!r}: cannot read {value!r} ({exc})") from None


def _first_unread(cfg: dict, path: tuple = ()):
    """The key of the first value below ``cfg``'s mappings, depth first,
    that ``_read`` was never asked for, or None.  Every spec, ``modulus``
    included, is read key by key, so this one rule covers every key."""
    for k, v in cfg.items():
        key = path + (k,)
        if isinstance(v, dict) and v:
            found = _first_unread(v, key)
            if found is not None:
                return found
        elif key not in _ASKED:
            return ".".join(map(str, key))
    return None


def _bool(value) -> bool:
    """A gate's value, which must be a YAML boolean: read by truthiness, a
    quoted "false" would switch the gate on."""
    if not isinstance(value, bool):
        raise TypeError("expected true or false")
    return value


def _int(value) -> int:
    """A count, which must be a whole number: ``int`` alone would read
    true as 1 and truncate 17.9 to 17."""
    if isinstance(value, bool):
        raise TypeError("expected a whole number, not true or false")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("expected a whole number")
    return int(value)


def _number(value) -> float:
    """A number: ``float`` alone would read true as 1."""
    if isinstance(value, bool):
        raise TypeError("expected a number, not true or false")
    return float(value)


def _real(value) -> float:
    """A finite real number: NaN fails every comparison, so a NaN gate or
    bound would let every run pass."""
    x = _number(value)
    if not np.isfinite(x):
        raise ValueError("expected a finite number")
    return x


def _array(value) -> np.ndarray:
    """Finite real numbers, nested as lists nest them; ``np.asarray`` alone
    would read true as 1."""
    if any(isinstance(v, bool) for v in np.asarray(value, dtype=object).flat):
        raise TypeError("expected numbers, not true or false")
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("expected finite numbers")
    return arr


def _list_of(convert):
    """A converter for a list whose entries each pass ``convert``."""
    def check(value) -> list:
        if not isinstance(value, list):
            raise TypeError("expected a list")
        return [convert(v) for v in value]
    return check


# modulus family -> its constructor and the parameters it takes, in order
_MODULI = {
    "power": (moduli.power, ("alpha",)),
    "power_log": (moduli.power_log, ("alpha", "beta")),
    "power_ln_z": (moduli.power_ln_z, ("kappa", "zeta")),
    "inverse_log": (moduli.inverse_log, ("gamma",)),
    "table": (moduli.from_table, ("table_r", "table_tau")),
}


def _modulus(cfg: dict) -> moduli.Modulus:
    """The config's modulus, read like every other spec: ``modulus.family``,
    then each parameter of that family (a table's knots as arrays), then
    ``modulus.domain_cap`` when given.  A missing or null cap leaves the
    constructor's default; a given cap the built modulus does not have (a
    table's is min(last knot, 1)) raises ConfigError."""
    family = _read(cfg, "modulus.family", str)
    if family not in _MODULI:
        raise ConfigError(f"unknown modulus family {family!r}")
    build, keys = _MODULI[family]
    args = [_read(cfg, f"modulus.{key}", _array if family == "table" else _real) for key in keys]
    cap = _read(cfg, "modulus.domain_cap", lambda v: v if v is None else _real(v), None)
    mod = build(*args) if cap is None or family == "table" else build(*args, domain_cap=cap)
    if cap is not None and mod.domain_cap != cap:
        raise ConfigError(f"a {family} modulus has domain_cap {mod.domain_cap}, not {cap}")
    return mod


def _parse_operator(cfg: dict) -> operators.OperatorSpec:
    kind = _read(cfg, "operator.kind", str)
    n = _read(cfg, "operator.n", _int, None)
    pair = None
    if _read(cfg, "operator.pair", default=None) is not None:
        pair = operators.EllipticityPair(_read(cfg, "operator.pair.lambda", _real),
                                         _read(cfg, "operator.pair.Lambda", _real))
    if kind == "linear_trace":
        op = operators.linear_trace(_read(cfg, "operator.matrix", _array), pair=pair)
        if n not in (None, op.n):
            raise ConfigError(f"operator n = {n} disagrees with its {op.n} x {op.n} matrix")
        return op
    n = 2 if n is None else n
    if kind == "perturbed_trace":
        return operators.perturbed_trace(_read(cfg, "operator.eps", _real), n=n, pair=pair)
    pucci = {"pucci_plus": operators.pucci_plus_op, "pucci_minus": operators.pucci_minus_op}
    if kind not in pucci:
        raise ConfigError(f"config key 'operator.kind': unsupported operator kind {kind!r}")
    if pair is None:
        raise ConfigError("config key 'operator.pair' is required")
    return pucci[kind](pair, n)


def _parse_solution(cfg: dict) -> fields.AnalyticSolution:
    """The u_star spec as an exact solution; ``solver.mms_generate`` refuses
    one whose dimension is not the operator's."""
    kind = _read(cfg, "u_star.type")
    if kind == "quadratic":
        M = operators.SymMatrix.from_matrix(_read(cfg, "u_star.M", _array))
        return fields.quadratic_solution(_read(cfg, "u_star.c", _real, 0.0),
                                         _read(cfg, "u_star.b", _array, np.zeros(M.n)), M)
    if kind == "saddle_quartic":
        return fields.saddle_quartic_solution(_read(cfg, "u_star.delta", _real))
    raise ConfigError(f"unknown u_star type {kind!r}")


def _rotation_drift(cfg: dict):
    """The config's drift as a callable on stacked points, or None."""
    if _read(cfg, "drift", default=None) is None:
        return None
    kind = _read(cfg, "drift.type")
    if kind != "rotation":
        raise ConfigError(f"unknown drift type {kind!r}")
    scale = _read(cfg, "drift.scale", _real, 0.1)

    def rot(pts):
        pts = np.asarray(pts, dtype=float)
        out = np.zeros_like(pts)
        out[..., 0] = scale * pts[..., 1]
        out[..., 1] = -scale * pts[..., 0]
        return out

    return rot


def _field_from_config(cfg: dict):
    """A zero-argument function that loads or samples the config's field."""
    path = _read(cfg, "field.file", str, None)
    if path is not None:
        return lambda: fields.load_field(path)
    name = _read(cfg, "field.profile", str)
    N = _read(cfg, "field.N", _int, 129)
    L = _read(cfg, "field.L", _real, 1.0)
    coeff = _read(cfg, "field.coeff", _real, 1.0)
    f = fields.profile(name)

    def sample() -> fields.GridField:
        g = fields.sample_function(f, n=2, N=N, L=L)
        return g.scale(coeff) if coeff != 1.0 else g

    return sample


# -- subcommand handlers -------------------------------------------------------

_CHECKS = ("dini", "a4", "lcc", "s_over_tau")


def _run_moduli_check(cfg: dict):
    mod = _modulus(cfg)
    checks = _read(cfg, "checks", _list_of(str), _CHECKS)
    if not set(checks) <= set(_CHECKS):
        raise ConfigError(f"checks must be drawn from {list(_CHECKS)}, got {checks}")
    alpha0 = _read(cfg, "alpha0", _real, 0.5) if "a4" in checks else None
    # the result key keeps the config's spelling of gamma
    gammas = _read(cfg, "holder_gammas", _list_of(lambda g: (g, _real(g))), [])

    def run():
        results, tables, failed = {}, [], False
        if "dini" in checks:
            dini = moduli.dini_integral(mod)
            results["dini"] = dini._asdict()
            if not dini.converged:
                failed = True
        if "a4" in checks:
            cert = moduli.check_A4(mod, alpha0)
            results["a4"] = cert.describe()
            if "fail" in (cert.verdict_i, cert.verdict_ii):
                failed = True
            for label, profile in (("a4_cond_i", cert.cond_i_profile),
                                   ("a4_cond_ii", cert.cond_ii_profile)):
                tables += [{"check": label, "s": s, "value": v} for s, v in profile]
        for name, check in (("lcc", moduli.check_LCC), ("s_over_tau", moduli.check_s_over_tau)):
            if name in checks:
                res = check(mod)
                results[name] = res.describe()
                if not res.passed:
                    failed = True
        for raw, gamma in gammas:
            results[f"holder_{raw}"] = moduli.holder_witness(mod, gamma).describe()
        return ({"modulus": mod.describe(), "results": results}, {"profiles.csv": tables},
                not failed)

    return run


def _run_operator_verify(cfg: dict):
    op = _parse_operator(cfg)
    seed = _read(cfg, "seed", _int)
    plan = _read(cfg, "samples", lambda v: operators.SamplePlan(seed, _int(v)),
                 operators.SamplePlan(seed))
    structure = _read(cfg, "structure", _bool, False)
    require_structure = _read(cfg, "require_structure", _bool, False)
    tangential = _read(cfg, "tangential", _bool, False)
    theta = _read(cfg, "theta", default=None) is not None
    if theta:
        x = _read(cfg, "theta.x", _array, np.full(op.n, 0.3))
        x0 = _read(cfg, "theta.x0", _array, np.zeros(op.n))

    def run():
        ell = operators.verify_ellipticity(op, plan)
        results, passed = {"ellipticity": ell.describe()}, ell.passed
        if structure:
            sc = operators.check_SC(op, plan)
            results["structure"] = sc.describe()
            if require_structure and not (
                sc.convex and sc.zero_at_origin and sc.trace_minorant
                and sc.differentiable_at_origin and sc.one_homogeneous
            ):
                passed = False
        if tangential:
            try:
                A0 = operators.tangential_limit(op, seed=seed)
                results["tangential"] = {
                    "matrix": A0.matrix.tolist(),
                    "differentiable": True,
                }
            except NonDifferentiableError as exc:
                results["tangential"] = {"differentiable": False, "detail": str(exc)}
            except BracketError as exc:   # the limit exists, outside the declared pair
                results["tangential"] = {"differentiable": True, "detail": str(exc)}
                passed = False
        if theta:
            results["theta"] = {
                "value": operators.oscillation_theta(op, x, x0, plan),
                "x": x.tolist(),
                "x0": x0.tolist(),
            }
        return {"operator": op.describe(), "results": results}, {}, passed

    return run


def _run_solve(cfg: dict):
    from . import solver   # scipy loads with it, so only solve and mms import it
    op = _parse_operator(cfg)
    N, L = _read(cfg, "grid.N", _int), _read(cfg, "grid.L", _real, 1.0)
    u_star = _parse_solution(cfg)
    drift_fn = _rotation_drift(cfg)
    tol = _read(cfg, "tol", _number, 1e-10)   # solve_newton refuses it unless finite and positive
    max_iter = _read(cfg, "max_iter", _int, 30)

    def run():
        rep, sup_err = solver.mms_solve(op, u_star, N, L, drift_fn, tol=tol, max_iter=max_iter)
        return ({"solve": rep.describe(), "sup_error_vs_exact": sup_err},
                {"solution.field": rep.solution}, bool(rep.converged))

    return run


def _run_mms(cfg: dict):
    from . import solver
    op = _parse_operator(cfg)
    u_star = _parse_solution(cfg)
    N_list = _read(cfg, "N_list", _list_of(_int), [33, 65, 129])
    min_order = _read(cfg, "min_order", _real, 1.8)
    drift_fn = _rotation_drift(cfg)
    tol = _read(cfg, "tol", _number, 1e-10)   # solve_newton refuses it unless finite and positive

    def run():
        study = solver.convergence_study(op, u_star, N_list=N_list, drift_fn=drift_fn, tol=tol)
        passed = all(o >= min_order for o in study.orders if isinstance(o, float))
        rows = [
            {"N": N, "sup_error": e, "iterations": it}
            for N, e, it in zip(study.N_list, study.errors, study.iterations)
        ]
        return {"study": study.describe()}, {"convergence.csv": rows}, passed

    return run


def _run_audit(cfg: dict):
    load = _field_from_config(cfg)
    op = _parse_operator(cfg)
    mod = _modulus(cfg)
    max_ratio = _read(cfg, "max_ratio", _real, None)
    require_decreasing = _read(cfg, "require_decreasing", _bool, False)
    rho0 = _read(cfg, "rho0", _real, 0.5)
    K = _read(cfg, "K", _int, 4)
    delta = _read(cfg, "delta", _real, 1.0)

    def run():
        audit = campanato.decay_audit(load(), op, mod, rho0=rho0, K=K, delta=delta)
        passed = True
        ratios = audit.ratios()
        if require_decreasing:
            if any(b >= a for a, b in zip(ratios, ratios[1:])):
                passed = False
        if max_ratio is not None and max(ratios) > max_ratio:
            passed = False
        fit = campanato.fit_decay_exponent(audit)
        return ({"audit": audit.describe(), "exponent_fit": fit.describe()},
                {"audit.csv": audit.table()}, passed)

    return run


def _run_flatness(cfg: dict):
    op = _parse_operator(cfg)
    if op.n != 2:
        raise ConfigError("flatness audits the 2-D saddle_quartic family; it needs a 2-D operator")
    mod = _modulus(cfg)
    N, L = _read(cfg, "grid.N", _int, 129), _read(cfg, "grid.L", _real, 1.0)
    deltas = _read(cfg, "deltas", _list_of(_real))
    require_finite_delta_star = _read(cfg, "require_finite_delta_star", _bool, False)
    require_all_pass = _read(cfg, "require_all_pass", _bool, False)
    rho0 = _read(cfg, "rho0", _real, 0.5)
    K = _read(cfg, "K", _int, 4)
    refine_steps = _read(cfg, "refine_steps", _int, 8)

    def run():
        base = fields.saddle_quartic_solution(1.0)
        probe = fields.sample_function(base.value, n=op.n, N=N, L=L)
        sup = float(np.max(np.abs(probe.values)))

        def family(delta: float) -> fields.GridField:
            return probe.scale(delta / sup)

        search = campanato.flatness_threshold_search(family, op, mod, deltas, rho0=rho0, K=K,
                                                     refine_steps=refine_steps)
        passed = True
        if require_finite_delta_star and search.delta_star is None:
            passed = False
        if require_all_pass:
            passed = passed and all(row["passed"] for row in search.table)
        return {"search": search.describe()}, {"flatness.csv": search.table}, passed

    return run


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
        _ASKED.clear()
        seed = _read(cfg, "seed", _int, 0)
        cfg["seed"] = seed if args.seed is None else args.seed
        if cfg["seed"] < 0:
            raise ConfigError(f"seed must be nonnegative, got {cfg['seed']}")
        run = _HANDLERS[args.command](cfg)
        unread = _first_unread(cfg)
        if unread is not None:
            raise ConfigError(f"config key {unread!r} is not read by {args.command}")
        body, files, passed = run()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except EllipticLabError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    outdir = Path(args.out)
    _write_report(outdir, {**body, "config": cfg, "passed": passed})
    for name, data in files.items():
        if isinstance(data, fields.GridField):
            fields.save_field(data, outdir / name)
        else:
            _write_csv(outdir / name, data)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
