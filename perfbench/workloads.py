"""The gonil benchmark workloads: inputs from a seed, one pass, and its gates.

Every workload is a closed loop: one thread issues the operations of a pass
back to back, and the next operation starts only when the previous one has
returned.  Inputs are made from the workload seed alone; the library sees only
the generated inputs.  Every operation checks its own output and raises
``GateError`` when the output is wrong, so a wrong answer counts as a failed
operation instead of aborting the run.

Library calls go through module attributes (``go_engine.go_random_audit``
rather than a name imported here), so the traced run's wrappers see them.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from gonil import catalog, double_ext, go_engine, isotropy
from gonil.lie import LieAlgebra
from gonil.linalg import Matrix, to_vec
from gonil.metric import MetricLieAlgebra, SymForm

# sha256 of the `gonil verify-paper` report (its lines, newline-terminated).
PAPER_REPORT_SHA256 = "324e8e50800befe78acf34a91fa9586f117803d62134f2d3e011ea7d1ad6ccfa"


class GateError(Exception):
    """An operation returned a wrong verdict, digest or round trip."""


@dataclass(frozen=True)
class Op:
    """One operation of a pass; ``run`` returns the number of items it decided."""

    label: str
    run: Callable[[], int]


@dataclass(frozen=True)
class Plan:
    """A workload's fixed list of operations and the label of its heaviest one."""

    ops: tuple[Op, ...]
    top: str


def _digest(lines) -> str:
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()


# --- paper_pipeline --------------------------------------------------------


def paper_pipeline(seed: int, size: str) -> Plan:
    """``verify_paper_example`` plus the necessary-condition check on paper_2_3.

    The input is the prebuilt catalog example, so the seed changes nothing.
    """
    example = catalog.build_example("paper_2_3")

    def verify() -> int:
        report = catalog.verify_paper_example(example)
        lines = report.lines()
        if not lines[-1].startswith("SUMMARY: PASS "):
            raise GateError(f"paper report says {lines[-1]!r}")
        if _digest(lines) != PAPER_REPORT_SHA256:
            raise GateError("paper report bytes differ from the pinned digest")
        return len(report.records)

    def necessary() -> int:
        lines = go_engine.necessary_condition_check(example.algebra).lines()
        if lines != ["NECESSARY_CONDITIONS: PASS"]:
            raise GateError(f"necessary conditions report {lines!r}")
        return 1

    return Plan((Op("verify_paper_example", verify), Op("necessary", necessary)), "verify_paper_example")


# --- go_audit --------------------------------------------------------------

# One audit per algebra and pass, each at 200 samples, the default of
# `gonil go --samples`: (algebra, expected verdict, entry bound).  paper_2_3 is
# the documented baseline command `gonil go catalog:paper_2_3 --samples 200`,
# filiform4 the documented `gonil go catalog:filiform4 --samples 200 --bound 5`
# (its isotropy algebra is zero, so every sample is infeasible), and
# de7_lorentz a Lorentz example whose audit adds a null sample.
AUDITS = (
    ("paper_2_3", "CONSISTENT", 10),
    ("de7_lorentz", "CONSISTENT", 10),
    ("filiform4", "REFUTED", 5),
)
SAMPLES = {"full": 200, "min": 1}


def go_audit(seed: int, size: str) -> Plan:
    """``go_random_audit`` of each algebra in ``AUDITS``, audit seeds from the workload seed.

    The isotropy algebras are built here, in set-up.  Each audit calls
    ``check_subisotropy`` once and then decides its samples, so a pass weighs
    both the per-call check and the per-sample work.  A repeat of an audit
    must print the same report bytes as its first run in this process.
    """
    rng = random.Random(seed)
    samples = SAMPLES[size]
    ops = []
    for name, verdict, bound in AUDITS:
        m = catalog.build_example(name).algebra
        h = isotropy.isotropy_algebra(m)
        run = _audit_op(m, h, samples, rng.randrange(1 << 30), bound, verdict)
        ops.append(Op(f"{name}/{samples}", run))
    return Plan(tuple(ops), ops[0].label)


def _audit_op(m, h, samples: int, audit_seed: int, bound: int, verdict: str) -> Callable[[], int]:
    first: list[str] = []

    def run() -> int:
        report = go_engine.go_random_audit(m, h, samples, audit_seed, bound)
        if report.verdict != verdict:
            raise GateError(f"verdict {report.verdict}, expected {verdict}")
        digest = _digest(report.lines())
        if not first:
            first.append(digest)
        elif digest != first[0]:
            raise GateError("audit report bytes differ between repeats")
        return report.samples + (report.null_point is not None)

    return run


# --- reduce_ladder ---------------------------------------------------------

# Positive rational rescalings; small so that entry sizes stay comparable
# across seeds.
SCALES = tuple(Fraction(p, q) for p, q in ((1, 1), (2, 1), (3, 1), (1, 2), (1, 3), (3, 2), (2, 3)))


def _diag(entries) -> list[list[Fraction]]:
    n = len(entries)
    return [[Fraction(entries[i]) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def deg1_rung(k: int, lorentz: bool, rng: random.Random):
    """The de5/de7 recipe on an abelian base of dimension k: D e1 = c e2, omega(e1, e2) = w.

    c, w and the Gram diagonal are drawn from SCALES.  The extension has
    dimension k + 2 and degeneracy DEG1_SEMIDEFINITE; the Lorentz base makes
    its last direction negative.
    """
    signs = [1] * k
    if lorentz:
        signs[-1] = -1
    gram = _diag([s * rng.choice(SCALES) for s in signs])
    base = MetricLieAlgebra.checked(LieAlgebra(k, {}), SymForm(Matrix(gram)))
    d = [[Fraction(0)] * k for _ in range(k)]
    d[1][0] = rng.choice(SCALES)
    omega = [[Fraction(0)] * k for _ in range(k)]
    w = rng.choice(SCALES)
    omega[0][1], omega[1][0] = w, -w
    data = double_ext.ExtensionData(Matrix(d), to_vec([0] * k), Matrix(omega))
    return base, data, "DEG1_SEMIDEFINITE"


def engel_rung(pad: int, rng: random.Random):
    """The Engel-split family on base (a, b, z1, p, pad...): [a, b] = z1.

    z1 is null and paired with p; the extension adds omega(a, z1) = w, so in
    the extension [a, z1] = w z2 with z2 null and paired with the new f.  The
    null plane span(z1, z2) does not commute with its orthogonal, so the
    reduction takes the common-kernel (Engel) step.
    """
    k = 4 + pad
    gram = _diag([rng.choice(SCALES), rng.choice(SCALES), 0, 0] + [rng.choice(SCALES) for _ in range(pad)])
    gram[2][3] = gram[3][2] = Fraction(1)
    base = MetricLieAlgebra.checked(LieAlgebra(k, {(0, 1): {2: 1}}), SymForm(Matrix(gram)))
    omega = [[Fraction(0)] * k for _ in range(k)]
    w = rng.choice(SCALES)
    omega[0][2], omega[2][0] = w, -w
    data = double_ext.ExtensionData(Matrix.zeros(k, k), to_vec([0] * k), Matrix(omega))
    return base, data, "DEG2_SEMIDEFINITE"


# Rungs in order of extension dimension; the last one is the top rung.
LADDER = (
    ("deg1-euclid", 5, lambda rng: deg1_rung(3, False, rng)),
    ("deg1-lorentz", 6, lambda rng: deg1_rung(4, True, rng)),
    ("deg1-euclid", 7, lambda rng: deg1_rung(5, False, rng)),
    ("engel", 7, lambda rng: engel_rung(1, rng)),
    ("deg1-lorentz", 8, lambda rng: deg1_rung(6, True, rng)),
    ("engel", 8, lambda rng: engel_rung(2, rng)),
    ("deg1-euclid", 9, lambda rng: deg1_rung(7, False, rng)),
    ("engel", 9, lambda rng: engel_rung(3, rng)),
    ("engel", 10, lambda rng: engel_rung(4, rng)),
)
LADDER_MIN = (LADDER[0], LADDER[3])


def reduce_ladder(seed: int, size: str) -> Plan:
    """``extend2`` then ``reduce`` (with its own isotropy algebra) on each rung.

    Gate: the quotient equals the base exactly, with the expected degeneracy
    tag and quotient dimension.
    """
    rng = random.Random(seed)
    ops = []
    for family, dim, make in LADDER if size == "full" else LADDER_MIN:
        base, data, tag = make(rng)
        ops.append(Op(f"{family}-d{dim}", _rung_op(base, data, tag)))
    return Plan(tuple(ops), ops[-1].label)


def _rung_op(base: MetricLieAlgebra, data, tag: str) -> Callable[[], int]:
    def run() -> int:
        m = double_ext.extend2(base, data)
        result = double_ext.reduce(m)
        got = result.witness.case.tag.value
        if got != tag:
            raise GateError(f"degeneracy {got}, expected {tag}")
        if result.m0.dim != base.dim:
            raise GateError(f"quotient dimension {result.m0.dim}, expected {base.dim}")
        if result.m0 != base:
            raise GateError("quotient differs from the base algebra")
        return 1

    return run


WORKLOADS = {
    "paper_pipeline": paper_pipeline,
    "go_audit": go_audit,
    "reduce_ladder": reduce_ladder,
}
