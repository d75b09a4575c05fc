import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ellipticlab import cli, fields, moduli, operators, solver
from ellipticlab.cli import main


def write(path, cfg):
    with open(path, "w") as fh:
        yaml.safe_dump(cfg, fh)
    return str(path)


def test_moduli_check_pass(tmp_path):
    cfg = write(tmp_path / "c.yaml", {
        "modulus": {"family": "power_log", "alpha": 0.3, "beta": 1.0},
        "alpha0": 0.5,
        "checks": ["dini", "a4", "lcc", "s_over_tau"],
        "holder_gammas": [0.2, 0.4],
    })
    out = tmp_path / "out"
    assert main(["moduli-check", "--config", cfg, "--out", str(out)]) == 0
    report = yaml.safe_load((out / "report.yaml").read_text())
    assert report["passed"] is True
    assert report["results"]["a4"]["verdict_i"] == "pass"
    assert report["results"]["holder_0.4"]["is_gamma_holder_near_0"] == "fail"
    assert (out / "profiles.csv").exists()


def test_moduli_check_divergent_fails(tmp_path):
    cfg = write(tmp_path / "c.yaml", {
        "modulus": {"family": "inverse_log", "gamma": 1.0},
        "checks": ["dini"],
    })
    assert main(["moduli-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


def test_operator_verify(tmp_path):
    cfg = write(tmp_path / "c.yaml", {
        "operator": {"kind": "perturbed_trace", "eps": 0.1},
        "structure": True,
        "tangential": True,
        "theta": {"x": [0.3, 0.0], "x0": [0.0, 0.0]},
    })
    out = tmp_path / "out"
    assert main(["operator-verify", "--config", cfg, "--out", str(out)]) == 0
    report = yaml.safe_load((out / "report.yaml").read_text())
    assert report["results"]["ellipticity"]["passed"] is True
    assert report["results"]["tangential"]["differentiable"] is True
    assert report["results"]["theta"]["value"] == 0.0


PUCCI_PLUS = {"kind": "pucci_plus", "pair": {"lambda": 1.0, "Lambda": 2.0}}


def test_operator_verify_pucci_not_differentiable(tmp_path):
    cfg = write(tmp_path / "c.yaml", {"operator": PUCCI_PLUS, "tangential": True})
    out = tmp_path / "out"
    assert main(["operator-verify", "--config", cfg, "--out", str(out)]) == 0
    tangential = yaml.safe_load((out / "report.yaml").read_text())["results"]["tangential"]
    assert tangential["differentiable"] is False and "matrix" not in tangential
    assert "disagree" in tangential["detail"]


def test_operator_verify_reports_a_tangential_matrix_outside_its_pair(tmp_path):
    # diag(1, 4) is differentiable, but its tangential matrix escapes the pair
    cfg = write(tmp_path / "c.yaml", {
        "operator": {"kind": "linear_trace", "matrix": [[1.0, 0.0], [0.0, 4.0]],
                     "pair": {"lambda": 1.0, "Lambda": 2.0}},
        "structure": True,
        "tangential": True,
    })
    out = tmp_path / "out"
    assert main(["operator-verify", "--config", cfg, "--out", str(out)]) == 1
    report = yaml.safe_load((out / "report.yaml").read_text())
    assert report["passed"] is False
    assert report["results"]["structure"]["differentiable_at_origin"] is True
    tangential = report["results"]["tangential"]
    assert tangential["differentiable"] is True and "matrix" not in tangential
    assert "bracket" in tangential["detail"]


def test_operator_verify_uses_one_seed(tmp_path, capsys, monkeypatch):
    # the structure check's tangential limit used to run at seed 0
    seeds = []
    limit = operators.tangential_limit

    def spy(op, seed=0):
        seeds.append(seed)
        return limit(op, seed)

    monkeypatch.setattr(operators, "tangential_limit", spy)
    cfg = dict(BASE["operator-verify"], seed=5, structure=True, tangential=True)
    assert run(tmp_path, capsys, "operator-verify", cfg)[0] == 0
    assert seeds == [5, 5]


def test_operator_verify_required_structure_fails(tmp_path):
    # Pucci is not differentiable at the zero matrix, so the structure gate fails
    cfg = write(tmp_path / "c.yaml", {"operator": PUCCI_PLUS, "structure": True,
                                      "require_structure": True})
    out = tmp_path / "out"
    assert main(["operator-verify", "--config", cfg, "--out", str(out)]) == 1
    report = yaml.safe_load((out / "report.yaml").read_text())
    assert report["passed"] is False
    assert report["results"]["ellipticity"]["passed"] is True
    assert report["results"]["structure"]["differentiable_at_origin"] is False


def test_audit_require_decreasing_fails(tmp_path):
    # |x|^(1/2) under power(1): the normalized ratios grow as the balls shrink
    cfg = write(tmp_path / "c.yaml", {
        "field": {"profile": "radial_1_2", "N": 65},
        "operator": PUCCI_PLUS,
        "modulus": {"family": "power", "alpha": 1.0},
        "K": 3,
        "require_decreasing": True,
    })
    out = tmp_path / "out"
    assert main(["audit", "--config", cfg, "--out", str(out)]) == 1
    report = yaml.safe_load((out / "report.yaml").read_text())
    ratios = [rec["normalized_ratio"] for rec in report["audit"]["records"]]
    assert report["passed"] is False and len(ratios) == 4
    assert ratios[-1] > ratios[0]


def test_solve_writes_field(tmp_path):
    cfg = write(tmp_path / "c.yaml", {
        "operator": {"kind": "linear_trace", "matrix": [[1, 0], [0, 1]]},
        "grid": {"N": 17},
        "u_star": {"type": "quadratic", "M": [[2, 0], [0, -2]]},
    })
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    sol = fields.load_field(out / "solution.field")
    assert sol.N == 17


def test_solve_starts_from_zero_interior(tmp_path):
    cfg = write(tmp_path / "c.yaml", {
        "operator": {"kind": "perturbed_trace", "eps": 0.05},
        "grid": {"N": 33},
        "u_star": {"type": "saddle_quartic", "delta": 0.01},
        "drift": {"type": "rotation", "scale": 0.1},
    })
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    report = yaml.safe_load((out / "report.yaml").read_text())
    assert report["solve"]["iterations"] >= 2
    assert report["sup_error_vs_exact"] < 1e-5


def test_solve_3d_quadratic_default_b_and_size_mismatch(tmp_path):
    op3 = {"kind": "linear_trace", "matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
    q3 = {"type": "quadratic", "M": [[2, 0, 0], [0, -1, 0], [0, 0, -1]]}
    ok = write(tmp_path / "ok.yaml", {"operator": op3, "grid": {"N": 9}, "u_star": q3})
    assert main(["solve", "--config", ok, "--out", str(tmp_path / "ok")]) == 0
    op2 = {"kind": "linear_trace", "matrix": [[1, 0], [0, 1]]}
    for name, op, u_star in [("short_b", op3, dict(q3, b=[0.1, 0.2])),
                             ("M_vs_operator", op2, q3),
                             ("saddle_3d", op3, {"type": "saddle_quartic", "delta": 0.1})]:
        bad = write(tmp_path / f"{name}.yaml", {"operator": op, "grid": {"N": 9},
                                                "u_star": u_star})
        assert main(["solve", "--config", bad, "--out", str(tmp_path / name)]) == 2, name


def test_mms_order_gate(tmp_path):
    base = {
        "operator": {"kind": "perturbed_trace", "eps": 0.05},
        "u_star": {"type": "saddle_quartic", "delta": 0.01},
        "N_list": [9, 17, 33],
    }
    ok = write(tmp_path / "ok.yaml", dict(base, min_order=1.8))
    assert main(["mms", "--config", ok, "--out", str(tmp_path / "a")]) == 0
    strict = write(tmp_path / "strict.yaml", dict(base, min_order=3.0))
    assert main(["mms", "--config", strict, "--out", str(tmp_path / "b")]) == 1


def test_audit_and_determinism(tmp_path):
    cfg = write(tmp_path / "c.yaml", {
        "field": {"profile": "harmonic_cubic", "N": 65},
        "operator": {"kind": "linear_trace", "matrix": [[1, 0], [0, 1]]},
        "modulus": {"family": "power", "alpha": 0.5},
        "K": 3,
        "require_decreasing": True,
    })
    o1, o2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["audit", "--config", cfg, "--out", str(o1)]) == 0
    assert main(["audit", "--config", cfg, "--out", str(o2)]) == 0
    assert (o1 / "report.yaml").read_bytes() == (o2 / "report.yaml").read_bytes()
    assert (o1 / "audit.csv").read_bytes() == (o2 / "audit.csv").read_bytes()


def test_audit_log_modulus(tmp_path):
    cfg = write(tmp_path / "c.yaml", {
        "field": {"profile": "radial_5_2", "N": 129},
        "operator": {"kind": "linear_trace", "matrix": [[1, 0], [0, 1]]},
        "modulus": {"family": "power_log", "alpha": 0.5, "beta": 1.0},
        "K": 4,
    })
    out = tmp_path / "out"
    assert main(["audit", "--config", cfg, "--out", str(out)]) == 0
    report = yaml.safe_load((out / "report.yaml").read_text())
    cap = report["audit"]["modulus"]["domain_cap"]
    assert cap < 1.0
    assert report["audit"]["records"][0]["r"] == cap


def test_flatness(tmp_path):
    cfg = write(tmp_path / "c.yaml", {
        "operator": {"kind": "perturbed_trace", "eps": 0.5},
        "modulus": {"family": "power", "alpha": 1.0},
        "grid": {"N": 129},
        "deltas": [0.05, 0.4, 1.6],
        "K": 4,
        "refine_steps": 2,
        "require_finite_delta_star": True,
    })
    out = tmp_path / "out"
    assert main(["flatness", "--config", cfg, "--out", str(out)]) == 0
    report = yaml.safe_load((out / "report.yaml").read_text())
    assert report["search"]["delta_star"] is not None


def test_flatness_without_pass_below_first_fail(tmp_path):
    base = {
        "operator": {"kind": "perturbed_trace", "eps": 0.5},
        "modulus": {"family": "power", "alpha": 1.0},
        "grid": {"N": 65},
        "deltas": [0.8, 1.6],
        "K": 3,
    }
    out = tmp_path / "out"
    assert main(["flatness", "--config", write(tmp_path / "c.yaml", base),
                 "--out", str(out)]) == 0
    report = yaml.safe_load((out / "report.yaml").read_text())
    assert report["search"]["delta_star"] is None
    assert report["search"]["monotone"] is False
    strict = write(tmp_path / "s.yaml", dict(base, require_finite_delta_star=True))
    assert main(["flatness", "--config", strict, "--out", str(tmp_path / "s")]) == 1


def test_config_error_exit_2(tmp_path):
    assert main(["audit", "--config", str(tmp_path / "missing.yaml"),
                 "--out", str(tmp_path / "o")]) == 2
    bad = write(tmp_path / "bad.yaml", {"field": {"profile": "harmonic_cubic"}})
    assert main(["audit", "--config", bad, "--out", str(tmp_path / "o")]) == 2


def test_non_numeric_modulus_parameter_exit_2(tmp_path, capsys):
    cfg = write(tmp_path / "c.yaml", {
        "modulus": {"family": "power", "alpha": "abc"},
        "checks": ["dini"],
    })
    assert main(["moduli-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "alpha" in err


def test_report_embeds_config(tmp_path):
    cfg = write(tmp_path / "c.yaml", {
        "modulus": {"family": "power", "alpha": 0.5},
        "checks": ["dini"],
    })
    out = tmp_path / "out"
    main(["moduli-check", "--config", cfg, "--out", str(out), "--seed", "7"])
    report = yaml.safe_load((out / "report.yaml").read_text())
    assert report["config"]["modulus"]["alpha"] == 0.5
    assert report["config"]["seed"] == 7


PT = {"kind": "perturbed_trace", "eps": 0.05}
SADDLE = {"type": "saddle_quartic", "delta": 0.01}
LAPLACE = {"kind": "linear_trace", "matrix": [[1, 0], [0, 1]]}
BASE = {
    "moduli-check": {"modulus": {"family": "power", "alpha": 0.5}, "checks": ["dini"]},
    "operator-verify": {"operator": {"kind": "perturbed_trace", "eps": 0.1}, "samples": 20},
    "solve": {"operator": PT, "grid": {"N": 9}, "u_star": SADDLE},
    "mms": {"operator": PT, "u_star": SADDLE, "N_list": [9, 17, 33]},
    "audit": {"field": {"profile": "harmonic_cubic", "N": 33}, "operator": LAPLACE,
              "modulus": {"family": "power", "alpha": 0.5}, "K": 2},
    "flatness": {"operator": PT, "modulus": {"family": "power", "alpha": 1.0},
                 "grid": {"N": 33}, "deltas": [0.1], "K": 2, "refine_steps": 0},
}


def run(tmp_path, capsys, command, cfg):
    """Exit code, stderr and output directory of one in-process run."""
    out = tmp_path / "out"
    code = main([command, "--config", write(tmp_path / "c.yaml", cfg), "--out", str(out)])
    return code, capsys.readouterr().err, out


def assert_config_error(tmp_path, capsys, command, cfg, names=""):
    code, err, out = run(tmp_path, capsys, command, cfg)
    assert code == 2, err
    assert err.startswith("config error:") and "Traceback" not in err
    assert names in err
    assert not (out / "report.yaml").exists()


@pytest.mark.parametrize("command, change, names", [
    # a non-numeric entry
    ("solve", {"grid": {"N": "abc"}}, "grid.N"),
    ("audit", {"K": "abc"}, "'K'"),
    ("mms", {"operator": {"kind": "perturbed_trace", "eps": "abc"}}, "operator.eps"),
    ("solve", {"drift": {"type": "rotation", "scale": "abc"}}, "drift.scale"),
    ("audit", {"field": {"profile": "harmonic_cubic", "N": 33, "coeff": "abc"}}, "field.coeff"),
    ("operator-verify", {"operator": {"kind": "pucci_plus",
                                      "pair": {"lambda": "abc", "Lambda": 2.0}}},
     "operator.pair.lambda"),
    ("solve", {"u_star": {"type": "quadratic", "M": [["abc", 0], [0, 1]]}}, "u_star.M"),
    ("moduli-check", {"holder_gammas": ["abc"]}, "holder_gammas"),
    # a scalar where a mapping or list belongs
    ("solve", {"grid": 33}, "grid.N"),
    ("mms", {"drift": 5}, "drift.type"),
    ("operator-verify", {"theta": 5}, "theta.x"),
    ("flatness", {"deltas": 0.5}, "deltas"),
    ("mms", {"N_list": 17}, "N_list"),
    ("moduli-check", {"holder_gammas": 0.4}, "holder_gammas"),
    # a ragged matrix, a missing field file
    ("audit", {"operator": {"kind": "linear_trace", "matrix": [[1, 0], [0]]}}, "operator.matrix"),
    ("audit", {"field": {"file": "no/such.field"}}, "no/such.field"),
    # a boolean gate given as a string or a number: "false" used to switch it on
    ("audit", {"require_decreasing": "false"}, "require_decreasing"),
    ("flatness", {"require_all_pass": "no"}, "require_all_pass"),
    ("flatness", {"require_finite_delta_star": 1}, "require_finite_delta_star"),
    ("operator-verify", {"structure": "true"}, "structure"),
    ("operator-verify", {"structure": True, "require_structure": "yes"}, "require_structure"),
    ("operator-verify", {"tangential": 0}, "tangential"),
    # a negative node count, rejected before any grid is allocated
    ("solve", {"grid": {"N": -1}}, "node count N"),
    ("mms", {"N_list": [-1, 17, 33]}, "node count N"),
    ("audit", {"field": {"profile": "harmonic_cubic", "N": -1}}, "node count N"),
    ("flatness", {"grid": {"N": -1}}, "node count N"),
    # a tolerance or iteration cap that cannot mean anything: nan and a
    # negative cap ran 0 iterations and exited 1, inf passed after 0
    ("solve", {"tol": float("nan")}, "tolerance"),
    ("solve", {"tol": float("inf")}, "tolerance"),
    ("solve", {"max_iter": -3}, "max_iter"),
    ("mms", {"tol": float("nan")}, "tolerance"),
    # a key the subcommand never reads: the audit ran ungated and mms on L = 1
    ("audit", {"max_ratoi": 0.001}, "max_ratoi"),
    ("audit", {"field": {"profile": "harmonic_cubic", "N": 33, "coef": 2.0}}, "field.coef"),
    ("mms", {"grid": {"L": 2.0}}, "grid.L"),
    # a negative seed escaped numpy as a traceback; samples: -3 reported
    # count -3 while drawing 5 matrices
    ("operator-verify", {"seed": -1}, "seed"),
    ("operator-verify", {"samples": 0}, "samples"),
    ("operator-verify", {"samples": -3}, "samples"),
    # a negative refine count reported no refinements
    ("flatness", {"refine_steps": -1}, "refine_steps"),
    # a count that is not a whole number was truncated (N = 17.9 solved on
    # 17 nodes), a boolean read as 1 and an infinite N escaped as a traceback
    ("solve", {"grid": {"N": 17.9}}, "grid.N"),
    ("solve", {"grid": {"N": float("inf")}}, "grid.N"),
    ("audit", {"K": 2.5}, "'K'"),
    ("mms", {"N_list": [17, 33.5, 65]}, "N_list"),
    ("operator-verify", {"seed": 1.5}, "seed"),
    ("operator-verify", {"samples": True}, "samples"),
    ("operator-verify", {"operator": {"kind": "perturbed_trace", "eps": 0.1, "n": 2.5}},
     "operator.n"),
    # a non-finite number: NaN fails every comparison, so the audit passed
    # with NaN ratios, a NaN max_ratio switched its gate off, theta reported
    # NaN, and power_log with a NaN beta exited 1
    ("audit", {"delta": float("nan"), "require_decreasing": True}, "delta"),
    ("audit", {"max_ratio": float("nan")}, "max_ratio"),
    ("operator-verify", {"theta": {"x": [float("nan"), 0.1]}}, "theta.x"),
    ("moduli-check", {"modulus": {"family": "power_log", "alpha": 0.5, "beta": float("nan")}},
     "beta"),
    ("solve", {"u_star": {"type": "saddle_quartic", "delta": -float("inf")}}, "u_star.delta"),
    # a modulus key its family does not take: the audit ran with the default cap
    ("audit", {"modulus": {"family": "power", "alpha": 0.5, "domian_cap": 0.1}},
     "modulus.domian_cap"),
    # a boolean where a number belongs: delta: true audited at delta = 1
    ("audit", {"delta": True}, "delta"),
    # a cap the table modulus does not take: the report said domain_cap 0.5
    ("moduli-check", {"modulus": {"family": "table", "table_r": [0.01, 0.1, 0.5],
                                  "table_tau": [0.1, 0.3, 0.7], "domain_cap": 0.05}},
     "domain_cap"),
    # a boolean where a number belongs: tol: true solved at tolerance 1 and
    # exited 0, theta x [true, 0.1] reported x = [1, 0.1], alpha: true checked 1
    ("solve", {"tol": True}, "'tol'"),
    ("mms", {"tol": True}, "'tol'"),
    ("operator-verify", {"theta": {"x": [True, 0.1]}}, "theta.x"),
    ("moduli-check", {"modulus": {"family": "power", "alpha": True}}, "alpha"),
    # a parameter the family needs
    ("moduli-check", {"modulus": {"family": "power_log", "alpha": 0.3}},
     "'modulus.beta' is required"),
    # a negative K: no scale was resolvable, exit 1
    ("audit", {"K": -1}, "K must be nonnegative"),
    ("flatness", {"K": -1}, "K must be nonnegative"),
    # an operator kind that is a list or a mapping: kind not in a dict of
    # the Pucci kinds raised TypeError (unhashable type), a traceback and exit 1
    ("operator-verify", {"operator": {"kind": [1]}}, "operator.kind"),
    ("solve", {"operator": {"kind": {"a": 1}}}, "operator.kind"),
    ("mms", {"operator": {"kind": [1]}}, "operator.kind"),
    ("flatness", {"operator": {"kind": {"a": 1}}}, "operator.kind"),
    ("audit", {"operator": {"kind": [1]}}, "operator.kind"),
])
def test_malformed_value_exits_2_without_traceback(tmp_path, capsys, command, change, names):
    assert_config_error(tmp_path, capsys, command, dict(BASE[command], **change), names)


def test_negative_seed_flag_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["operator-verify", "--config", write(tmp_path / "c.yaml", BASE["operator-verify"]),
                 "--out", str(out), "--seed", "-1"])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("config error:") and "seed" in err
    assert not out.exists()


@pytest.mark.parametrize("header, names", [
    ("2 abc 1 1", "malformed field header"),
    ("2 -5 1 1", "node count N"),
    ("2 5 nan 1", "half-width L"),   # used to audit with h = nan and exit 1
])
def test_audit_of_field_with_malformed_header_exits_2(tmp_path, capsys, header, names):
    path = tmp_path / "bad.field"
    path.write_text(header + "\n" + "0.0 " * 25 + "\n")
    assert_config_error(tmp_path, capsys, "audit", dict(BASE["audit"], field={"file": str(path)}),
                        names)


def test_audit_of_decimal_field_exits_2(tmp_path, capsys):
    # the %.17g body older versions wrote is refused, not misread
    path = tmp_path / "old.field"
    path.write_text("2 5 1 1\n" + (" ".join(["0.25"] * 8) + "\n") * 3 + "0.25\n")
    assert_config_error(tmp_path, capsys, "audit", dict(BASE["audit"], field={"file": str(path)}),
                        str(path))


@pytest.mark.parametrize("checks", [["dinni"], "dini", ["dini", "lcc", "a5"]])
def test_unknown_checks_are_config_errors(tmp_path, capsys, checks):
    # ["dinni"] used to run nothing and pass; the string "dini" matched as a substring
    assert_config_error(tmp_path, capsys, "moduli-check",
                        dict(BASE["moduli-check"], checks=checks), "checks")


@pytest.mark.parametrize("command, change", [
    ("audit", {"operator": {"kind": "pucci_minus", "pair": {"lambda": 1, "Lambda": 2}, "n": 3}}),
    ("operator-verify", {"operator": dict(LAPLACE, n=3)}),
    ("operator-verify", {"theta": {"x": [0.3]}}),
    ("operator-verify", {"theta": {"x0": [0.0, 0.0, 0.0]}}),
    ("flatness", {"operator": {"kind": "pucci_minus", "pair": {"lambda": 1, "Lambda": 2}, "n": 3}}),
])
def test_dimension_mismatch_exits_2(tmp_path, capsys, command, change):
    assert_config_error(tmp_path, capsys, command, dict(BASE[command], **change))


@pytest.mark.parametrize("command, change, code", [
    ("moduli-check", {}, 0),
    ("moduli-check", {"modulus": {"family": "inverse_log", "gamma": 1.0}}, 1),
    ("operator-verify", {"theta": {}, "tangential": True}, 0),
    ("operator-verify", {"operator": dict(PT, pair={"lambda": 1.0, "Lambda": 1.01}),
                         "samples": 400}, 1),
    ("solve", {}, 0),
    ("solve", {"max_iter": 1}, 1),
    ("mms", {}, 0),
    ("mms", {"min_order": 3.0}, 1),
    ("audit", {"require_decreasing": True}, 0),
    ("audit", {"max_ratio": 1e-9}, 1),
    ("flatness", {}, 0),
    ("flatness", {"operator": dict(PT, eps=0.5), "grid": {"N": 65}, "K": 3,
                  "deltas": [0.8, 1.6], "require_all_pass": True}, 1),
])
def test_artefact_contract(tmp_path, capsys, monkeypatch, command, change, code):
    """The report holds the handler's body plus config and passed, exactly;
    the exit code is 0 just when passed is true; each file is written."""
    returned = []

    def spy(cfg):
        work = handler(cfg)

        def spied():
            returned.append(work())
            return returned[-1]

        return spied

    handler = cli._HANDLERS[command]
    monkeypatch.setitem(cli._HANDLERS, command, spy)
    assert run(tmp_path, capsys, command, dict(BASE[command], **change))[0] == code
    (body, files, passed), = returned
    out = tmp_path / "out"
    report = yaml.safe_load((out / "report.yaml").read_text())
    assert set(report) == set(body) | {"config", "passed"}
    assert report["passed"] is bool(passed) is (code == 0)
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["report.yaml"] + [name for name, data in files.items()
                           if isinstance(data, fields.GridField) or data])


@pytest.mark.parametrize("command, unread, name, first_work", [
    ("moduli-check", {"alpha_0": 0.5}, "'alpha_0'", (moduli, "dini_integral")),
    ("operator-verify", {"sample": 20}, "'sample'", (operators, "verify_ellipticity")),
    ("solve", {"max_iters": 5}, "'max_iters'", (solver, "mms_solve")),
    ("mms", {"grid": {"L": 2.0}}, "'grid.L'", (solver, "convergence_study")),
    ("audit", {"max_ratoi": 0.001}, "'max_ratoi'", (fields, "sample_function")),
    ("flatness", {"refine_step": 2}, "'refine_step'", (fields, "sample_function")),
])
def test_unread_key_exits_2_before_any_computation(tmp_path, capsys, monkeypatch,
                                                   command, unread, name, first_work):
    # the key used to be found only after the handler had done all its work
    def reached(*args, **kwargs):
        pytest.fail(f"{command} computed before refusing its unread key")

    monkeypatch.setattr(*first_work, reached)
    assert_config_error(tmp_path, capsys, command, dict(BASE[command], **unread), name)


@pytest.mark.parametrize("command, change, code", [
    (command, {"operator": {"kind": "nope"}}, 2) for command in BASE if command != "moduli-check"
] + [("moduli-check", {"modulus": {"family": "nope"}}, 2),
     ("audit", {"field": {"profile": "harmonic_cubic", "N": 5}}, 1)])
def test_a_run_that_raises_writes_no_report(tmp_path, capsys, command, change, code):
    assert run(tmp_path, capsys, command, dict(BASE[command], **change))[0] == code
    assert not (tmp_path / "out").exists()


# one modulus of each family, each with its constructor's default cap
MODULI = [moduli.power(0.25), moduli.power_log(0.3, 1.0), moduli.power_ln_z(0.4, 2.0),
          moduli.inverse_log(1.5), moduli.from_table([0.1, 0.2, 0.5], [0.01, 0.03, 0.2])]


def check_modulus(tmp_path, capsys, spec):
    """The modulus block of a dini-only moduli-check report for ``spec``."""
    code, err, out = run(tmp_path, capsys, "moduli-check", {"modulus": spec, "checks": ["dini"]})
    assert code == 0, err
    return yaml.safe_load((out / "report.yaml").read_text())["modulus"]


@pytest.mark.parametrize("mod", MODULI, ids=lambda mod: mod.family)
def test_moduli_check_reports_the_modulus_its_config_describes(tmp_path, capsys, mod):
    assert check_modulus(tmp_path, capsys, mod.describe()) == mod.describe()


@pytest.mark.parametrize("spec, cap", [
    ({"family": "power", "alpha": 0.5}, 1.0),
    ({"family": "power_log", "alpha": 0.3, "beta": 1.0}, math.exp(-1.0 / 0.3)),
    ({"family": "power_ln_z", "kappa": 0.4, "zeta": 2.0}, math.exp(-2.0 / 0.4)),
    ({"family": "inverse_log", "gamma": 1.5}, 0.5),
    ({"family": "table", "table_r": [0.1, 0.5], "table_tau": [0.1, 0.3]}, 0.5),
], ids=["power", "power_log", "power_ln_z", "inverse_log", "table"])
@pytest.mark.parametrize("given", [{}, {"domain_cap": None}], ids=["absent", "null"])
def test_modulus_without_a_cap_gets_its_constructors_default(tmp_path, capsys, spec, cap, given):
    assert check_modulus(tmp_path, capsys, dict(spec, **given))["domain_cap"] == cap


def test_modulus_keeps_a_given_cap_it_can_keep(tmp_path, capsys):
    # a cap it cannot keep is a case of test_malformed_value_exits_2_without_traceback
    spec = {"family": "power", "alpha": 0.5, "domain_cap": 0.3}
    assert check_modulus(tmp_path, capsys, spec) == moduli.power(0.5, domain_cap=0.3).describe()
    table = {"family": "table", "table_r": [0.01, 0.1, 0.5], "table_tau": [0.1, 0.3, 0.7]}
    assert check_modulus(tmp_path, capsys, dict(table, domain_cap=0.5))["domain_cap"] == 0.5


_BAD = st.sampled_from([True, math.nan, math.inf, -math.inf, "abc"])


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mod=st.sampled_from(MODULI), data=st.data())
def test_bad_modulus_value_names_its_key(tmp_path, capsys, mod, data):
    """true, NaN, +-inf, a string, or a list or mapping of one of them, under
    any key but the family's name, exits 2 naming modulus.<key>."""
    key = data.draw(st.sampled_from(sorted(set(mod.describe()) - {"family"})))
    bad = data.draw(_BAD | _BAD.map(lambda v: [v]) | _BAD.map(lambda v: {"a": v}))
    assert_config_error(tmp_path, capsys, "moduli-check",
                        {"modulus": dict(mod.describe(), **{key: bad}), "checks": ["dini"]},
                        f"'modulus.{key}'")


def test_audit_under_a_vanishing_modulus_fails_without_traceback(tmp_path, capsys):
    # tau is 0 below the first knot and r = 0.0078 resolves at N = 1025: the
    # ratio divided by zero and a ZeroDivisionError escaped
    cfg = {"field": {"profile": "harmonic_cubic", "N": 1025}, "operator": LAPLACE,
           "modulus": {"family": "table", "table_r": [0.01, 0.1, 0.5],
                       "table_tau": [0.0, 0.3, 0.7]},
           "K": 6}
    code, err, out = run(tmp_path, capsys, "audit", cfg)
    assert code == 1
    assert err.startswith("check failed:") and "vanishes" in err and "Traceback" not in err
    assert not out.exists()


def test_moduli_check_of_a_vanishing_modulus_fails_without_nan(tmp_path, capsys):
    # a4 and s_over_tau divided by tau = 0, warned, and wrote .nan profiles
    cfg = {"modulus": {"family": "table", "table_r": [0.5, 0.6], "table_tau": [0.0, 0.0]}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err, out = run(tmp_path, capsys, "moduli-check", cfg)
    assert code == 1
    assert err.startswith("check failed:") and "vanishes" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, change", [
    ("solve", {"operator": dict(PUCCI_PLUS, n=3), "u_star": SADDLE}),
    ("mms", {"operator": LAPLACE,
             "u_star": {"type": "quadratic", "M": [[2, 0, 0], [0, -1, 0], [0, 0, -1]]}}),
])
def test_u_star_of_another_dimension_exits_2_before_newton(tmp_path, capsys, monkeypatch,
                                                            command, change):
    # the check is mms_generate's own, not a copy in the CLI
    def reached(*args, **kwargs):
        pytest.fail(f"{command} took a Newton step")

    monkeypatch.setattr(solver, "solve_newton", reached)
    assert_config_error(tmp_path, capsys, command, dict(BASE[command], **change),
                        "u_star's Hessians")


_SCIPY_PROBE = """
import json, sys
from ellipticlab.cli import main
verdicts = []
for command, config, out in json.loads(sys.argv[1]):
    code = main([command, "--config", config, "--out", out])
    verdicts.append([command, code, any(m.split(".")[0] == "scipy" for m in sys.modules)])
print(json.dumps(verdicts))
"""


def test_only_solve_loads_scipy(tmp_path):
    """audit, flatness, moduli-check and operator-verify solve nothing, so a
    fresh process running them never imports scipy; solve does."""
    commands = ("audit", "flatness", "moduli-check", "operator-verify", "solve")
    runs = [(c, write(tmp_path / f"{c}.yaml", BASE[c]), str(tmp_path / f"{c}-out"))
            for c in commands]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, json.dumps(runs)], env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == [[c, 0, c == "solve"] for c in commands]
