"""Tests for the benchmark itself: smoke runs, refusal outside a checkout, tracer."""

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _bench(cwd: Path, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["newton", "audit", "flatness"])
def test_smoke_prints_every_metric_and_checks(workload, trace):
    # --smoke itself asserts that the metric names and units match BENCHMARK.json
    proc = _bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert any("fail_frac" in line for line in lines)
    assert any(line.startswith("stamp ") for line in lines)
    if workload == "newton":
        assert any("sup_err" in line for line in lines)


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", ".out"))
    proc = _bench(tmp_path, "--workload", "newton", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_tracer_self_time_and_restore():
    ns = types.SimpleNamespace()

    def inner():
        time.sleep(0.01)

    def outer():
        ns.inner()
        time.sleep(0.01)

    ns.inner, ns.outer = inner, outer
    tracer = tracing.Tracer()
    bindings = [(ns, "outer", "campanato.decay_audit", None),
                (ns, "inner", "campanato.sup_residual", None)]
    with tracer.installed("pass", bindings):
        ns.outer()
    assert ns.outer is outer and ns.inner is inner
    m = tracing.layer_metrics(tracer.spans, setups=1, passes=1)
    total = m["campanato.decay_audit.total_s"][0]
    own = m["campanato.decay_audit.self_s"][0]
    child = m["campanato.sup_residual.total_s"][0]
    assert m["campanato.decay_audit.calls"][0] == 1
    assert child >= 0.01 and own >= 0.01
    assert total == pytest.approx(own + child, abs=1e-9)


def test_tracer_restores_class_attribute_after_error():
    class Op:
        def evaluate(self):
            raise RuntimeError("boom")

    original = vars(Op)["evaluate"]
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed("pass", [(Op, "evaluate", "operators.evaluate", None)]):
            Op().evaluate()
    assert vars(Op)["evaluate"] is original
    assert [s[0] for s in tracer.spans] == ["operators.evaluate"]
