"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every check is an identity over the rationals, so the tolerance is zero by
construction.  Each criterion prints a single PASS/FAIL line (visible with
``pytest -s`` and in captured output on failure).
"""

import random
import re
from contextlib import contextmanager
from fractions import Fraction

import pytest

from conftest import necessary_condition_counterexample
from gonil.catalog import (
    EXAMPLE_NAMES,
    build_example,
    de5_data,
    de7_lorentz_data,
    verify_paper_example,
)
from gonil.double_ext import (
    DegeneracyTag,
    ExtensionData,
    ReductionError,
    THEOREM_SCOPE_MESSAGE,
    classify_degeneracy,
    extend2,
    reduce,
    reduction_witness,
)
from gonil.go_engine import (
    go_random_audit,
    linear_go_certificate,
    necessary_condition_check,
)
from gonil.isotropy import isotropy_algebra
from gonil.lie import LieAlgebra, abelian
from gonil.linalg import Matrix, Subspace, rref, solve_particular, symmetric_signature, to_vec
from gonil.metric import MetricLieAlgebra, SymForm
from oracles import (
    polarized_defects_by_pairing,
    random_rational_matrix,
    random_symmetric_matrix,
    signature_by_descartes,
    signature_by_random_congruence,
)


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE[{num}]: FAIL - {label}")
        raise
    print(f"ACCEPTANCE[{num}]: PASS - {label}")


def test_criterion_1_paper_reproduction(paper):
    with criterion(1, "12-dim example reproduction: all verification sub-checks pass"):
        report = verify_paper_example(paper)
        by_name = {r.name: r.passed for r in report.records}
        assert by_name["jacobi"]
        assert by_name["nprime_dim"]
        assert by_name["signature_ambient"]
        assert by_name["signature_nprime"]
        assert by_name["signature_v"]
        assert by_name["step"]
        assert by_name["nprime_abelian"]
        assert by_name["witness_in_isotropy"]
        assert by_name["go_polarized"]
        assert report.passed, [r.name for r in report.records if not r.passed]


def test_criterion_2_linear_certificate(paper, paper_iso):
    with criterion(2, "linear certificate feasible; stored operator table solves the system"):
        cert = linear_go_certificate(paper.algebra, paper_iso)
        assert cert is not None
        # substituting the stored table: each operator is a valid unknown
        # assignment (inside the operator space) ...
        table_coords = [paper_iso.coordinates(op) for op in paper.witness_operators]
        assert all(c is not None for c in table_coords)
        # ... and satisfies every polarized equation of the system
        assert polarized_defects_by_pairing(paper.algebra, paper.witness_operators) == []


def test_criterion_3_negative_control(filiform4):
    with criterion(3, "Euclidean filiform audit is REFUTED, reproducibly"):
        iso = isotropy_algebra(filiform4)
        report = go_random_audit(filiform4, iso, 200, seed=1, bound=5)
        assert report.verdict == "REFUTED"
        assert len(report.failures) >= 1
        again = go_random_audit(filiform4, iso, 200, seed=1, bound=5)
        assert again.failures[0] == report.failures[0]
        assert again.lines() == report.lines()


def test_criterion_4_k_nullity_across_catalog():
    with criterion(4, "k = 0 on every non-null feasible audit point, all catalog examples"):
        checked = 0
        for name in EXAMPLE_NAMES:
            m = build_example(name).algebra
            iso = isotropy_algebra(m)
            samples = 200 if m.dim <= 7 else 60
            report = go_random_audit(m, iso, samples, seed=4, bound=7)
            points = list(report.points)
            if report.null_point is not None:
                points.append(report.null_point)
            for point in points:
                if point.feasible and m.pair(point.T, point.T) != 0:
                    assert point.certificate.k == 0, (name, point.T)
                    checked += 1
        assert checked > 0


def test_criterion_5_round_trips(de5, de7):
    with criterion(5, "reduce inverts the forward extension bit-exactly (de5, de7_lorentz)"):
        for m, (base, _data) in ((de5, de5_data()), (de7, de7_lorentz_data())):
            result = reduce(m)
            assert result.m0.algebra.table == base.algebra.table
            assert result.m0.form.gram == base.form.gram
            assert m.dim - result.m0.dim == 2
            sig, sig0 = m.form.signature(), result.m0.form.signature()
            assert (sig.p - sig0.p, sig.q - sig0.q, sig0.r) == (1, 1, 0)


def test_criterion_6_flag_falsifiability(de5):
    with criterion(6, "injected bracket on de5 trips exactly the orthogonal/central flag"):
        table = de5.algebra.table
        table[(0, 4)] = {2: Fraction(1)}  # [f, e] := e2
        perturbed = MetricLieAlgebra(LieAlgebra(5, table, validate=False), de5.form)
        with pytest.raises(ReductionError, match="input is not G-GO") as exc_info:
            reduction_witness(perturbed)
        flags = exc_info.value.witness.checks
        assert flags.orthogonal_central is False
        assert flags.inclusion is True
        assert flags.invariance is True
        assert flags.dimension is True


def test_criterion_7_case_dispatcher(paper, de5):
    with criterion(7, "degeneracy dispatcher: de5, the 12-dim example, and the out-of-scope case"):
        assert classify_degeneracy(de5).tag == DegeneracyTag.DEG1_SEMIDEFINITE
        assert classify_degeneracy(paper.algebra).tag == DegeneracyTag.NONDEGENERATE
        # artificial degeneracy-1, index-2 restriction
        g = [[Fraction(0)] * 8 for _ in range(8)]
        for i, dv in enumerate((1, 1, 1, 1, -1, 1, -1, 1)):
            g[i][i] = Fraction(dv)
        base = MetricLieAlgebra.checked(abelian(8), SymForm(Matrix(g)))
        d = [[Fraction(0)] * 8 for _ in range(8)]
        d[1][0] = d[2][3] = d[4][5] = d[6][7] = Fraction(1)
        om = [[Fraction(0)] * 8 for _ in range(8)]
        om[0][3], om[3][0] = Fraction(1), Fraction(-1)
        outside = extend2(base, ExtensionData(Matrix(d), to_vec([0] * 8), Matrix(om)))
        case = classify_degeneracy(outside)
        assert case.tag == DegeneracyTag.OTHER
        assert (case.restriction_signature.r, min(case.restriction_signature[:2])) == (1, 2)
        with pytest.raises(ReductionError, match=re.escape(THEOREM_SCOPE_MESSAGE)):
            reduction_witness(outside)


def test_criterion_8_oracle_equivalence():
    with criterion(8, "signature agrees with brute-force oracles; solve/kernel back-substitute"):
        rng = random.Random(2026)
        for _ in range(100):
            n = rng.randint(2, 6)
            g = random_symmetric_matrix(rng, n)
            sig = symmetric_signature(g)
            assert sig == signature_by_random_congruence(g, rng)
            assert sig == signature_by_descartes(g)
        for _ in range(100):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
            a = random_rational_matrix(rng, nrows, ncols)
            x0 = to_vec([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)])
            b = a @ x0
            x = solve_particular(a, b)
            assert x is not None
            assert a @ x == b
            ker = Subspace.solving(ncols, map(enumerate, a.rows))
            for v in ker.basis.rows:
                assert not any(a @ v)
            assert len(rref(a).pivots) + ker.dim == ncols


def test_criterion_9_normal_forms():
    with criterion(9, "triangular family dimensions, skewness, and abelian subfamilies"):
        from gonil.normal_forms import iwasawa_nilpotent_basis, maximal_abelian_family

        for m in range(3, 11):
            family = iwasawa_nilpotent_basis(1, m)
            assert family.dim == m - 2
            for a in family.generators:
                assert (a.transpose() @ family.gram + family.gram @ a).is_zero()
                for b in family.generators:
                    assert (a @ b - b @ a).is_zero()
        for m in range(4, 11):
            family = iwasawa_nilpotent_basis(2, m)
            assert family.dim == 2 * (m - 4) + 2
            for a in family.generators:
                assert (a.transpose() @ family.gram + family.gram @ a).is_zero()
            for which in (1, 3):
                gens = maximal_abelian_family(which, m)
                for a in gens:
                    assert family.contains(a)
                    for b in gens:
                        assert (a @ b - b @ a).is_zero()


def test_criterion_10_necessary_conditions(paper, heis3):
    with criterion(10, "polarized identities pass on GO examples, fail with the exact triple"):
        assert necessary_condition_check(paper.algebra).passed
        assert necessary_condition_check(heis3).passed
        report = necessary_condition_check(necessary_condition_counterexample())
        assert not report.passed
        # ambient basis vector f, and the first n'-basis vector (e2) twice;
        # the polarized defect 2<[f,e2],e2> = 2 pins <[f,e2],e2> = 1
        assert (0, 0, 0) in {(a, i, j) for (a, i, j, _d) in report.violations}
        defect = dict(((a, i, j), d) for (a, i, j, d) in report.violations)[(0, 0, 0)]
        assert defect == 2
