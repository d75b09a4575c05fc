import yaml

from ellipticlab import fields
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
