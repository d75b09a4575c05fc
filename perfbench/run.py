"""ellipticlab benchmark: the newton, audit and flatness workloads.

Run from the repository root:

    python3 perfbench/run.py --workload newton --seed 1 --seconds 40 --trace 0

It imports ellipticlab from ``src/`` next to this directory, generates the
workload's inputs from ``--seed`` under ``perfbench/.work/`` (several times,
to time set-up), then repeats passes over the workload's operations until
set-ups and passes have taken about ``--seconds`` seconds (at least one
pass), checking every output.  Lines before the last describe the run; the
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics and never installs a tracer.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics; the traced passes' spans are written to
``perfbench/.out/``.  ``--smoke`` shrinks every grid, makes one set-up and
one pass, and asserts that the printed metrics match BENCHMARK.json.
"""

import os
import sys
import time

START = time.perf_counter()  # setup_s counts the imports below
# set before numpy loads, so BLAS starts with one thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
BLAS_THREADS = 1

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUPS = 3


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("newton", "audit", "flatness"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny grids, one set-up and one pass; assert the metric names")
    return p.parse_args(argv)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout's own .git, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _stamp(np, scipy) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
    }


def _run_pass(ops):
    """Time each operation's program call; check its output untimed.

    An operation that raises counts as failed, and the pass goes on.
    """
    seconds, verdicts = 0.0, []
    for op in ops:
        t = time.perf_counter()
        try:
            result = op.run()
        except Exception:
            seconds += time.perf_counter() - t
            traceback.print_exc()
            verdicts.append((op, ["raised"]))
            continue
        seconds += time.perf_counter() - t
        verdicts.append((op, op.check(result)))
    return seconds, verdicts


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _smoke_assert(result: dict, trace: int, ops_per_pass: int, passes: int) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        raise SystemExit(f"smoke: printed metrics {sorted(got.items())} "
                         f"differ from BENCHMARK.json {sorted(want.items())}")
    if result["attempted"] != ops_per_pass * passes:
        raise SystemExit(f"smoke: {result['attempted']} checked operations, "
                         f"expected {ops_per_pass * passes}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "ellipticlab" / "__init__.py").is_file():
        print(f"perfbench: no ellipticlab package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ellipticlab
    import numpy as np
    import scipy
    import_s = time.perf_counter() - START
    if SRC not in Path(ellipticlab.__file__).resolve().parents:
        print(f"perfbench: imported ellipticlab from {ellipticlab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import tracing
    import workloads

    make_ops = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    bindings = tracing.ellipticlab_bindings() if args.trace else []
    setups = 1 if args.smoke else SETUPS
    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / ".work"))
    began = time.perf_counter()
    try:
        setup_times = []
        for _ in range(setups):
            t = time.perf_counter()
            if tracer:
                with tracer.installed("setup", bindings):
                    ops = make_ops(args.seed, work, args.smoke)
            else:
                ops = make_ops(args.seed, work, args.smoke)
            setup_times.append(time.perf_counter() - t)

        plain, traced, verdicts = [], [], []
        first_span = last_span = 0
        sides = (False, True) if tracer else (False,)
        while True:
            # alternate which side runs first, so neither always gets the cold pass
            for trace_on in sides if len(plain) % 2 == 0 else sides[::-1]:
                if trace_on:
                    mark = len(tracer.spans)
                    with tracer.installed("pass", bindings):
                        seconds, v = _run_pass(ops)
                    if not traced:
                        first_span, last_span = mark, len(tracer.spans)
                    traced.append(seconds)
                else:
                    seconds, v = _run_pass(ops)
                    plain.append(seconds)
                verdicts += v
            per_round = statistics.median(plain) + (statistics.median(traced) if traced else 0.0)
            if args.smoke or time.perf_counter() - began + per_round > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [(op.workload, op.name, name) for op, failed in verdicts for name in failed]
    unexpected = [f for f in failures if f not in workloads.KNOWN_DEFECTS]
    failed_ops = sum(1 for _, failed in verdicts if failed)
    wall_s = statistics.median(plain)
    setup_s = import_s + statistics.median(setup_times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"setups={setups} passes={len(plain)}" + (f"+{len(traced)} traced" if tracer else ""))
    print("stamp " + json.dumps(_stamp(np, scipy), sort_keys=True))
    lo, hi = _quartiles(plain)
    print(f"  setup_s      {setup_s:.4f} s   (import {import_s:.4f} s + median of "
          f"{setups} input generations)")
    print(f"  wall_s       {wall_s:.4f} s   (median of {len(plain)} untraced passes, "
          f"quartiles {lo:.4f}..{hi:.4f})")
    print(f"  peak_rss_mb  {peak_rss_mb:.1f} MB")
    print(f"  fail_frac    {failed_ops / len(verdicts):.4f} frac   "
          f"({failed_ops} of {len(verdicts)} checked operations failed)")
    if args.workload == "newton":
        sup_err = max(op.sup_err for op in ops)
        print(f"  sup_err      {sup_err:.3e} abs   (max sup-norm error against u*)")
    for wl, name, check in sorted(set(failures)):
        known = " (known defect, ROADMAP item 2)" if (wl, name, check) in workloads.KNOWN_DEFECTS else ""
        print(f"  failed check {name}: {check}{known}")

    if tracer:
        overhead = statistics.median(traced) / wall_s - 1.0
        print(f"  trace.overhead_frac {overhead:.4f} (median traced pass "
              f"{statistics.median(traced):.4f} s)")
        metrics = tracing.layer_metrics(tracer.spans, setups, len(traced))
        metrics["trace.overhead_frac"] = (overhead, "frac")
        busiest = sorted(((v, k) for k, (v, _) in metrics.items()
                          if k.endswith(".self_s") and k[:-7] not in tracing.SETUP_LAYERS),
                         reverse=True)[:5]
        for value, name in busiest:
            print(f"  {name:40s} {value:.4f} s = {value / wall_s:.1%} of wall_s")
        out_dir = HERE / ".out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl",
                     first_span, last_span)
    else:
        metrics = {"setup_s": (setup_s, "s"), "wall_s": (wall_s, "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}

    result = {
        "correct": not unexpected,
        "attempted": len(verdicts),
        "failed": failed_ops,
        "metrics": {name: {"value": float(v), "unit": unit} for name, (v, unit) in metrics.items()},
    }
    if args.smoke:
        _smoke_assert(result, args.trace, len(ops), len(plain) + len(traced))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
