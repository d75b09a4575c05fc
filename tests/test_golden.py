"""Golden CLI outputs: one home for every config the CI runs.

Each case is a directory ``tests/golden/<case>/`` holding ``command`` (the
subcommand), ``config.yaml`` and ``expected/``, the exact ``--out`` tree the
CLI wrote for it.  ``run_cases`` runs ``cli.main`` on every case in sorted
order in one working directory, each into ``--out <case>``, so a case can
read a file an earlier one wrote by a relative path (``pucci-solve-audit``
reads ``pucci-solve/solution.field``); every case must exit 0.
``test_golden_cases`` compares each fresh tree with ``expected/``: the file
list and CSV headers exactly, every value of ``report.yaml`` and the CSVs
(non-floats exactly, floats within ``RTOL`` relative to the larger of the
two and of the largest magnitude in the same report or CSV column, so that
round-off-sized values are judged on their report's scale), and each field
file's header exactly and its values within ``RTOL`` of the field's scale.
The CI step runs ``run_cases`` twice, in two processes, and requires the
two trees to be byte-identical.

To regenerate the expected trees after a change that is meant to alter a
report, run the cases into an empty directory outside the repository and
copy each tree over its case's ``expected/`` (list the changed keys, and
why, in CHANGES.md)::

    python -c "from tests.test_golden import run_cases; run_cases('/tmp/golden')"
    for case in $(ls tests/golden); do
      rm -r "tests/golden/$case/expected" && cp -r "/tmp/golden/$case" "tests/golden/$case/expected"
    done
"""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import yaml

from ellipticlab.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(p.name for p in GOLDEN.iterdir() if p.is_dir())
RTOL = 1e-12


def run_cases(root, cases=CASES) -> None:
    """Run the golden ``cases`` (every one by default) in the directory
    ``root``, in order."""
    Path(root).mkdir(parents=True, exist_ok=True)
    here = os.getcwd()
    os.chdir(root)
    try:
        for case in cases:
            src = GOLDEN / case
            code = main([(src / "command").read_text().strip(), "--config",
                         str(src / "config.yaml"), "--out", case])
            assert code == 0, f"{case} exited {code}"
    finally:
        os.chdir(here)


def _floats(value):
    """The finite floats in a parsed value, nested entries included."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [x for v in value for x in _floats(v)]
    return [value] if type(value) is float and math.isfinite(value) else []


def _scale(values) -> float:
    return max((abs(x) for x in _floats(values)), default=0.0)


def _same(want, got, where: str, scale: float) -> list:
    """Mismatches between two parsed values: floats within RTOL of the
    largest of their magnitudes and ``scale``, mappings and lists entry by
    entry, anything else equal and of one type."""
    if isinstance(want, dict) and isinstance(got, dict):
        if list(want) != list(got):
            return [f"{where}: keys {sorted(want)} != {sorted(got)}"]
        return [m for k in want for m in _same(want[k], got[k], f"{where}.{k}", scale)]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{where}: {len(want)} entries != {len(got)}"]
        return [m for i, (a, b) in enumerate(zip(want, got))
                for m in _same(a, b, f"{where}[{i}]", scale)]
    if type(want) is float and type(got) is float:
        if want == got or (math.isnan(want) and math.isnan(got)) or \
                abs(want - got) <= RTOL * max(abs(want), abs(got), scale):
            return []
    elif type(want) is type(got) and want == got:
        return []
    return [f"{where}: expected {want!r}, got {got!r}"]


def _cell(text: str):
    """A CSV cell as the int, float or string it spells."""
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            pass
    return text


def _field(path: Path):
    """A field file's header line and its values, decoded from the hex words
    directly, not through ``fields.load_field``."""
    header, _, body = path.read_bytes().partition(b"\n")
    return header, np.frombuffer(bytes.fromhex(body.decode("ascii")), dtype=">f8")


def _compare(want: Path, got: Path) -> list:
    """Mismatches between an expected ``--out`` tree and a fresh one."""
    def files(root):
        return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())
    names = files(want)
    if names != files(got):
        return [f"files {names} != {files(got)}"]
    out = []
    for name in names:
        a, b = want / name, got / name
        if name.endswith(".yaml"):
            report = yaml.safe_load(a.read_text())
            out += _same(report, yaml.safe_load(b.read_text()), name, _scale(report))
        elif name.endswith(".csv"):
            rows_a = list(csv.reader(a.read_text().splitlines()))
            rows_b = list(csv.reader(b.read_text().splitlines()))
            if rows_a[0] != rows_b[0]:
                out.append(f"{name}: header {rows_a[0]} != {rows_b[0]}")
            elif len(rows_a) != len(rows_b):
                out.append(f"{name}: {len(rows_a) - 1} rows != {len(rows_b) - 1}")
            else:
                cols_a = list(zip(*[[_cell(c) for c in row] for row in rows_a[1:]]))
                cols_b = list(zip(*[[_cell(c) for c in row] for row in rows_b[1:]]))
                for head, ca, cb in zip(rows_a[0], cols_a, cols_b):
                    out += _same(list(ca), list(cb), f"{name}:{head}", _scale(list(ca)))
        elif name.endswith(".field"):
            (head_a, va), (head_b, vb) = _field(a), _field(b)
            if head_a != head_b or va.shape != vb.shape:
                out.append(f"{name}: header {head_a!r} != {head_b!r} or value count differs")
            else:
                scale = np.max(np.abs(va), initial=0.0)
                bad = np.abs(va - vb) > RTOL * np.maximum(np.maximum(np.abs(va), np.abs(vb)), scale)
                if bad.any():
                    out.append(f"{name}: {int(bad.sum())} values differ beyond {RTOL}, the first "
                               f"at {int(np.argmax(bad))}")
        elif a.read_bytes() != b.read_bytes():
            out.append(f"{name}: bytes differ")
    return out


def test_float_bound_is_relative_to_the_report_scale():
    # a round-off-sized entry next to O(1) ones may move by round-off
    assert _same([1.8e-17, 0.5], [3.1e-17, 0.5], "x", 0.5) == []
    assert _same([1.8e-17, 0.5], [1.8e-17, 0.5 + 1e-9], "x", 0.5) != []
    assert _same([1.8e-17], [1e-12], "x", 0.5) != []


def test_golden_cases(tmp_path):
    run_cases(tmp_path)
    assert len(CASES) >= 24
    failures = [f"{case}: {m}" for case in CASES
                for m in _compare(GOLDEN / case / "expected", tmp_path / case)]
    assert not failures, "\n".join(failures)


def test_runs_without_a_solve_load_no_scipy(tmp_path):
    # only solver imports scipy, so an audit, a flatness search, an operator
    # check or a modulus check, run through cli.main in a fresh interpreter,
    # leaves no scipy module loaded
    cases = ["audit", "audit-513", "flatness", "flatness-pucci", "moduli-power",
             "operator-verify"]
    code = ("import sys; from tests.test_golden import run_cases; "
            f"run_cases(sys.argv[1], {cases!r}); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    root = GOLDEN.parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code, str(tmp_path)], cwd=root, check=True,
                         capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert run.stdout.strip() == "[]"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(cases)
