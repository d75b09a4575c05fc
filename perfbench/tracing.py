"""Outside-in spans around ellipticlab's public calls, for the traced run.

The benchmark never edits the package: it replaces each traced callable at
the binding its caller looks up at call time (a module attribute, a name
imported into another module, or a class attribute) with a wrapper that
records a span, and puts the original back when the traced run ends.

A span is ``[name, parent, start, end, counters, phase]``: ``parent`` is the
index of the enclosing span (-1 at the top), ``counters`` a dict of work
counts or None, ``phase`` either "setup" or "pass".  Spans stay in a list in
memory; the benchmark aggregates them and writes them out after the run.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


# Layers that feed setup_s are measured per set-up; every other layer per pass.
SETUP_LAYERS = ("solver.mms_generate", "fields.sample_function")

# name of each traced layer, in report order
LAYERS = (
    "cli.main",
    "solver.solve_newton",
    "solver.discrete_residual",
    "solver.spsolve",
    "solver.mms_generate",
    "operators.evaluate_batch",
    "operators.evaluate",
    "moduli.evaluate",
    "moduli.psi_transform",
    "campanato.decay_audit",
    "campanato.constrained_quadratic_fit",
    "campanato.sup_residual",
    "campanato.root_correct",
    "campanato.lstsq",
    "campanato.flatness_threshold_search",
    "fields.load_field",
    "fields.save_field",
    "fields.sample_function",
    "fields.meshgrid",
)

# work counters reported next to the per-layer times
COUNTERS = (
    "solver.unknowns",
    "solver.newton_iters",
    "solver.halvings",
    "operators.evaluate_batch.matrices",
    "campanato.lstsq.rows",
    "fields.load_field.bytes",
    "fields.save_field.bytes",
)


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _newton_counts(args, kwargs, report):
    grid = _arg(args, kwargs, 0, "inst").source
    return {
        "solver.unknowns": grid.N ** grid.n,
        "solver.newton_iters": report.iterations,
        "solver.halvings": sum(e.get("halvings", 0) for e in report.damping_events),
    }


def _matrix_count(args, kwargs, _out):
    shape = np.shape(_arg(args, kwargs, 1, "mats"))
    return {"operators.evaluate_batch.matrices": math.prod(shape[:-2])}


def _lstsq_rows(args, kwargs, _out):
    return {"campanato.lstsq.rows": np.shape(_arg(args, kwargs, 0, "a"))[0]}


def _loaded_bytes(args, kwargs, _out):
    return {"fields.load_field.bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _saved_bytes(args, kwargs, _out):
    return {"fields.save_field.bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def ellipticlab_bindings():
    """(owner, attribute, layer, counter function) for every traced call.

    Names imported by name into another module are wrapped there as well,
    since that is the binding the caller resolves.
    """
    from ellipticlab import campanato, cli, fields, moduli, operators, solver

    return [
        (cli, "main", "cli.main", None),
        (solver, "solve_newton", "solver.solve_newton", _newton_counts),
        (solver, "discrete_residual", "solver.discrete_residual", None),
        (solver.spla, "spsolve", "solver.spsolve", None),
        (solver, "mms_generate", "solver.mms_generate", None),
        (solver, "sample_function", "fields.sample_function", None),
        (operators.OperatorSpec, "evaluate_batch", "operators.evaluate_batch", _matrix_count),
        (operators.OperatorSpec, "evaluate", "operators.evaluate", None),
        (moduli.Modulus, "evaluate", "moduli.evaluate", None),
        (campanato, "psi_transform", "moduli.psi_transform", None),
        (campanato, "decay_audit", "campanato.decay_audit", None),
        (campanato, "constrained_quadratic_fit", "campanato.constrained_quadratic_fit", None),
        (campanato, "sup_residual", "campanato.sup_residual", None),
        (campanato, "root_correct", "campanato.root_correct", None),
        (campanato.np.linalg, "lstsq", "campanato.lstsq", _lstsq_rows),
        (campanato, "flatness_threshold_search", "campanato.flatness_threshold_search", None),
        (fields, "load_field", "fields.load_field", _loaded_bytes),
        (fields, "save_field", "fields.save_field", _saved_bytes),
        (fields, "sample_function", "fields.sample_function", None),
        (fields.GridField, "meshgrid", "fields.meshgrid", None),
    ]


class Tracer:
    """Span recorder that patches callables in place and restores them."""

    def __init__(self):
        self.spans = []
        self.phase = "setup"
        self._stack = []
        self._patches = []

    def wrap(self, owner, attr, name, counts=None):
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None, tracer.phase]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                out = original(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if counts is not None:
                rec[4] = counts(args, kwargs, out)
            return out

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, phase, bindings):
        """Trace ``bindings`` for the duration of the block, tagging spans with ``phase``."""
        self.phase = phase
        try:
            for owner, attr, name, counts in bindings:
                self.wrap(owner, attr, name, counts)
            yield self
        finally:
            self.restore()

    def write(self, path, first: int, last: int):
        """Write spans[first:last] as JSON lines."""
        with open(path, "w") as fh:
            for i in range(first, last):
                name, parent, start, end, counters, _ = self.spans[i]
                fh.write(json.dumps({"id": i, "parent": parent, "name": name, "start": start,
                                     "end": end, "counters": counters}) + "\n")


def layer_metrics(spans, setups: int, passes: int) -> dict:
    """Per-layer calls, total and self seconds, and work counters.

    Layers in SETUP_LAYERS are divided by the number of set-ups and read
    from set-up spans; all others by the number of passes, from pass spans.
    A span's self time is its duration minus that of its direct children.
    """
    child = [0.0] * len(spans)
    for name, parent, start, end, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, total, own = defaultdict(int), defaultdict(float), defaultdict(float)
    counters = defaultdict(float)
    root_evals = 0
    for i, (name, parent, start, end, counts, phase) in enumerate(spans):
        if phase != ("setup" if name in SETUP_LAYERS else "pass"):
            continue
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start - child[i]
        for key, value in (counts or {}).items():
            counters[key] += value
        if name == "operators.evaluate" and parent >= 0 \
                and spans[parent][0] == "campanato.root_correct":
            root_evals += 1
    out = {}
    for name in LAYERS:
        per = max(setups if name in SETUP_LAYERS else passes, 1)
        out[f"{name}.calls"] = (calls[name] / per, "count")
        out[f"{name}.total_s"] = (total[name] / per, "s")
        out[f"{name}.self_s"] = (own[name] / per, "s")
    units = {"fields.load_field.bytes": "bytes", "fields.save_field.bytes": "bytes"}
    for key in COUNTERS:
        out[key] = (counters[key] / max(passes, 1), units.get(key, "count"))
    roots = calls["campanato.root_correct"]
    out["campanato.root_correct.evals_per_call"] = (root_evals / roots if roots else 0.0, "count")
    return out
