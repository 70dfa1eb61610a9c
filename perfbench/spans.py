"""Span recorder for the traced run: wraps gonil layer functions from outside.

``install`` replaces each function or method named in ``LAYERS`` with a
wrapper that records one span (name, start, end, parent) per call, plus the
counters in ``COUNTERS``.  A function imported by name into another gonil
module (``from gonil.linalg import kernel``) is a separate binding, so every
gonil module attribute bound to the original object is rebound.  Nothing under
``src/`` changes, and the untraced run never calls ``install``.

Spans are kept in memory in flat arrays and written out as JSON lines when the
run ends.  A span's self time is its duration minus the durations of its
direct children; one thread issues every call, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict

# Span name -> (module, attribute path).  The names are the per-layer metric
# prefixes, and only functions some metric reports on are wrapped: a span
# moves its time out of its caller's self time.  Small per-entry helpers
# (to_vec, vec_dot, Matrix accessors) stay unwrapped: their time counts as
# self time of the wrapped caller.
LAYERS = {
    "linalg.rref": ("gonil.linalg", "rref"),
    "linalg.kernel": ("gonil.linalg", "kernel"),
    "linalg.solve_linear": ("gonil.linalg", "solve_linear"),
    "linalg.signature": ("gonil.linalg", "symmetric_signature"),
    "linalg.matmul": ("gonil.linalg", "Matrix.__matmul__"),
    "lie.bracket": ("gonil.lie", "LieAlgebra.bracket"),
    "lie.ad": ("gonil.lie", "LieAlgebra.ad"),
    "lie.jacobi_defect": ("gonil.lie", "jacobi_defect"),
    "lie.lower_central_series": ("gonil.lie", "lower_central_series"),
    "lie.engel_flag": ("gonil.lie", "engel_flag"),
    "metric.pair": ("gonil.metric", "SymForm.pair"),
    "isotropy.derivation_space": ("gonil.isotropy", "derivation_space"),
    "isotropy.skew_space": ("gonil.isotropy", "skew_space"),
    "isotropy.intersect": ("gonil.isotropy", "OperatorSpace.intersect"),
    "isotropy.closure_check": ("gonil.isotropy", "OperatorSpace.verify_commutator_closed"),
    "isotropy.combine": ("gonil.isotropy", "OperatorSpace.combine"),
    "isotropy.is_derivation": ("gonil.isotropy", "is_derivation"),
    "go_engine.certificate_at": ("gonil.go_engine", "go_certificate_at"),
    "go_engine.check_subisotropy": ("gonil.go_engine", "check_subisotropy"),
    "go_engine.linear_certificate": ("gonil.go_engine", "linear_go_certificate"),
    "go_engine.necessary": ("gonil.go_engine", "necessary_condition_check"),
    "double_ext.classify_degeneracy": ("gonil.double_ext", "classify_degeneracy"),
    "double_ext.reduction_witness": ("gonil.double_ext", "reduction_witness"),
    "double_ext.reduce": ("gonil.double_ext", "reduce"),
    "double_ext.extend2": ("gonil.double_ext", "extend2"),
    "catalog.build_example": ("gonil.catalog", "build_example"),
    "catalog.verify_paper_example": ("gonil.catalog", "verify_paper_example"),
}


def _count_rref(counts, args, result) -> None:
    counts["cells"] += args[0].nrows * args[0].ncols


def _count_solve(counts, args, result) -> None:
    counts["infeasible"] += result is None


def _count_certificate(counts, args, result) -> None:
    counts["feasible"] += result is not None


# Counters taken at the same boundaries as the spans: name -> update(counts, args, result).
COUNTERS = {
    "linalg.rref": _count_rref,
    "linalg.solve_linear": _count_solve,
    "go_engine.certificate_at": _count_certificate,
}

# rref's integer core, watched without a span: (module, attribute, span whose
# counters it feeds).  Its input rows have their denominators cleared, its
# output rows are the eliminated ones, so their largest entry shows how far
# the elimination lets integers grow; a product formed and divided out within
# one step is not seen.  It mutates its input, so the input is read first.
ELIMINATE = ("gonil.linalg", "_eliminate", "linalg.rref")

PHASES = ("setup", "pass")


def _bits(rows) -> int:
    return max((abs(a).bit_length() for row in rows for a in row), default=0)


class Recorder:
    """In-memory spans of one process; ``phase`` tags the spans opened next."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("l")
        self.phase_of = array("b")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.phase = 0
        self.counts: dict[tuple[int, str], dict[str, int]] = defaultdict(lambda: defaultdict(int))

    def set_phase(self, phase: str) -> None:
        self.phase = PHASES.index(phase)

    def wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        count = COUNTERS.get(name)
        stack, clock = self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_of.append(nid)
            self.phase_of.append(self.phase)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if count is not None:
                count(self.counts[(self.phase, name)], args, result)
            return result

        return traced

    def watch_eliminate(self, fn, name: str):
        """Wrap the integer elimination: no span, only the largest entry in bits."""

        @functools.wraps(fn)
        def watched(rows, *args, **kwargs):
            bits = _bits(rows)
            result = fn(rows, *args, **kwargs)
            counts = self.counts[(self.phase, name)]
            counts["max_bits"] = max(counts["max_bits"], bits, _bits(result[0]))
            return result

        return watched

    def self_ns(self) -> array:
        """Self time of every span: its duration minus its direct children's."""
        own = array("q", (e - s for s, e in zip(self.start, self.end)))
        child = array("q", bytes(8 * len(own)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += own[i]
        return array("q", (o - c for o, c in zip(own, child)))

    def aggregate(self, phase: str) -> dict[str, dict]:
        """Per span name in one phase: calls, total_ns, self_ns, durations_ns and counters."""
        pid = PHASES.index(phase)
        out = {
            name: {"calls": 0, "total_ns": 0, "self_ns": 0, "durations_ns": [], **self.counts.get((pid, name), {})}
            for name in LAYERS
        }
        for i, s in enumerate(self.self_ns()):
            if self.phase_of[i] != pid:
                continue
            agg = out[self.names[self.name_of[i]]]
            dur = self.end[i] - self.start[i]
            agg["calls"] += 1
            agg["total_ns"] += dur
            agg["self_ns"] += s
            agg["durations_ns"].append(dur)
        return out

    def write_jsonl(self, path) -> int:
        """One JSON object per span; returns the number written."""
        with open(path, "w") as fh:
            for i in range(len(self.start)):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": self.names[self.name_of[i]],
                            "phase": PHASES[self.phase_of[i]],
                            "start_ns": self.start[i],
                            "end_ns": self.end[i],
                            "parent": self.parent[i],
                        }
                    )
                    + "\n"
                )
        return len(self.start)


def install(recorder: Recorder) -> list[str]:
    """Wrap every target in ``LAYERS`` and ``ELIMINATE``; returns the targets that are missing."""
    gonil_modules = [m for k, m in sys.modules.items() if k == "gonil" or k.startswith("gonil.")]
    targets = [(name, module_name, path, recorder.wrap) for name, (module_name, path) in LAYERS.items()]
    module_name, path, name = ELIMINATE
    targets.append((name, module_name, path, recorder.watch_eliminate))
    missing = []
    for name, module_name, path, wrap in targets:
        module = sys.modules.get(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            missing.append(f"{module_name}.{path}")
            continue
        wrapped = wrap(original, name)
        if owner_name:
            setattr(owner, attr, wrapped)
            continue
        for mod in gonil_modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    return missing
