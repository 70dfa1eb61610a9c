import hashlib
from collections import Counter
from fractions import Fraction

import pytest

from gonil import go_engine, linalg, metric
from gonil.catalog import (
    EXAMPLE_NAMES,
    CatalogError,
    NamedExample,
    build_example,
    paper_isotropy_operator,
    verify_paper_example,
)
from gonil.lie import LieAlgebra
from gonil.linalg import Matrix
from gonil.metric import MetricLieAlgebra, SymForm


def test_every_named_example_builds():
    for name in EXAMPLE_NAMES:
        example = build_example(name)
        assert example.algebra.dim == example.expected["dim"].value


def test_example_names_follow_the_registration_order():
    assert EXAMPLE_NAMES == ("paper_2_3", "abelian_n", "heis3", "filiform4", "de5", "de7_lorentz")


def test_unknown_name_rejected():
    with pytest.raises(CatalogError, match="unknown example"):
        build_example("nope")


def test_expected_values_have_sources():
    for name in EXAMPLE_NAMES:
        for key, exp in build_example(name).expected.items():
            assert exp.source in ("stated", "derived"), (name, key)


def test_verify_paper_example_full_pass(paper):
    report = verify_paper_example(paper)
    assert report.passed
    names = [r.name for r in report.records]
    for required in (
        "jacobi",
        "nprime_dim",
        "signature_ambient",
        "signature_nprime",
        "signature_v",
        "step",
        "nprime_abelian",
        "witness_skew",
        "witness_in_isotropy",
        "go_polarized",
        "ideal_1",
        "ideal_2",
        "ideals_intersect_trivially",
        "ideals_commute",
        "ideal_2_abelian",
        "linear_go_feasible",
    ):
        assert required in names


def test_verify_fails_on_perturbed_form(paper):
    # <f4, f4> = 2 breaks skewness of the stored operators at one entry
    rows = [list(r) for r in paper.algebra.form.gram.rows]
    rows[3][3] = Fraction(2)
    perturbed = MetricLieAlgebra(paper.algebra.algebra, SymForm(Matrix(rows)))
    example = NamedExample("perturbed", perturbed, {}, paper.witness_operators)
    report = verify_paper_example(example)
    by_name = {r.name: r.passed for r in report.records}
    assert not by_name["witness_skew"]
    assert not report.passed


def test_verify_fails_on_removed_bracket(paper):
    # dropping [f1, f4] = e4 leaves a nonzero polarized orbit value
    table = paper.algebra.algebra.table
    del table[(0, 3)]
    thinned = MetricLieAlgebra(LieAlgebra(12, table), paper.algebra.form)
    example = NamedExample("thinned", thinned, {}, paper.witness_operators)
    report = verify_paper_example(example)
    by_name = {r.name: r.passed for r in report.records}
    assert not by_name["go_polarized"]


def test_verify_reads_the_polarized_identity_off_the_rational_witnesses(paper):
    # Halving one witness keeps it a skew derivation inside the isotropy
    # algebra, which the checks on its cleared int entries see; the polarized
    # identity is not homogeneous in A, so it fails.  The witness has an odd
    # entry, so clearing the halved one would give it back: none reaches that check.
    ops = list(paper.witness_operators)
    b = next(b for b, op in enumerate(ops) if any(x.denominator == 1 and x % 2 for x in op.vectorize()))
    ops[b] = ops[b].scale(Fraction(1, 2))
    report = verify_paper_example(NamedExample("halved", paper.algebra, {}, tuple(ops)))
    by_name = {r.name: r.passed for r in report.records}
    assert by_name["witness_skew"] and by_name["witness_derivation"] and by_name["witness_in_isotropy"]
    assert not by_name["go_polarized"] and not report.passed


def test_verify_fails_on_a_missing_witness(paper):
    example = NamedExample("short", paper.algebra, {}, paper.witness_operators[:-1])
    lines = verify_paper_example(example).lines()
    assert "CHECK[witness_count]: FAIL (11 stored operators)" in lines
    assert "CHECK[go_polarized]: FAIL (1 nonzero polarized values, first at [('missing witnesses',)])" in lines


def test_paper_operator_linear_in_t(paper):
    t1 = tuple(Fraction(x) for x in (1, 0, 2, 0, 0, 0, 0, 0, 0, 3, 0, 0))
    t2 = tuple(Fraction(x) for x in (0, 1, 0, 0, 5, 0, 0, 0, 1, 0, 0, 2))
    combined = tuple(a + b for a, b in zip(t1, t2))
    assert paper_isotropy_operator(combined) == (
        paper_isotropy_operator(t1) + paper_isotropy_operator(t2)
    )


def test_paper_operator_rejects_bad_length():
    with pytest.raises(CatalogError):
        paper_isotropy_operator((1, 2, 3))


def test_paper_witness_span_dimension(paper):
    # the table depends on exactly six independent linear functionals of the
    # tangent vector: y1, y2, y3-x4, x2+y4, x3+y5, x1-y6
    from gonil.linalg import Subspace

    span = Subspace.span(144, [op.vectorize() for op in paper.witness_operators])
    assert span.dim == 6


def test_de7_expected_degenerate_restriction(de7):
    assert tuple(de7.form.signature()) == (5, 2, 0)


def test_catalog_mismatch_detected(monkeypatch):
    import gonil.catalog as cat

    original = cat._BUILDERS["heis3"]

    def broken():
        m, expected, witnesses = original()
        bad = dict(expected)
        bad["step"] = cat.Expected(7, "stated")
        return m, bad, witnesses

    monkeypatch.setitem(cat._BUILDERS, "heis3", broken)
    with pytest.raises(CatalogError, match="pinned"):
        cat.build_example("heis3")


def _nudged(paper):
    # One witness entry moved by 1/3: the first polarized value printed is not an integer.
    ops = list(paper.witness_operators)
    ops[4] = ops[4] + Matrix([[Fraction(1, 3) if (i, j) == (2, 7) else 0 for j in range(12)] for i in range(12)])
    return NamedExample("nudged", paper.algebra, {}, tuple(ops))


def _perturbed(paper):
    rows = [list(r) for r in paper.algebra.form.gram.rows]
    rows[3][3] = Fraction(2)
    perturbed = MetricLieAlgebra(paper.algebra.algebra, SymForm(Matrix(rows)))
    return NamedExample("perturbed", perturbed, {}, paper.witness_operators)


def _thinned(paper):
    table = paper.algebra.algebra.table
    del table[(0, 3)]
    thinned = MetricLieAlgebra(LieAlgebra(12, table), paper.algebra.form)
    return NamedExample("thinned", thinned, {}, paper.witness_operators)


def _halved(paper):
    ops = list(paper.witness_operators)
    b = next(b for b, op in enumerate(ops) if any(x.denominator == 1 and x % 2 for x in op.vectorize()))
    ops[b] = ops[b].scale(Fraction(1, 2))
    return NamedExample("halved", paper.algebra, {}, tuple(ops))


# sha256 of verify-paper's report lines, joined by newlines, on failing variants, and the first nonzero
# polarized value that the go_polarized line prints; the digests were taken before the polarized and
# witness checks were summed in integers.
FAIL_REPORTS = {
    "perturbed": (
        _perturbed,
        "60b474edba849eda92bb86aeaa84931c04675bdd2d85ab857b277f763e669f93",
        "(0, 3, 5, Fraction(1, 1))",
    ),
    "thinned": (
        _thinned,
        "dc79f6455b208e2907d0b3494851c9e714bfd458bda0bb6c953c2281d5b299c8",
        "(0, 8, 3, Fraction(-1, 1))",
    ),
    "halved": (
        _halved,
        "69278dd38d0d6157cdf023a2d8afe316e6bc8840e67ea1abfc7eec2f6e6a7a7c",
        "(0, 1, 2, Fraction(-1, 2))",
    ),
    "short": (
        lambda paper: NamedExample("short", paper.algebra, {}, paper.witness_operators[:-1]),
        "2a7c1c7513fe14f67ebf3d9258b1275c93cb4ba971e405ac5b8f33c0e0159e6f",
        "('missing witnesses',)",
    ),
    "nudged": (
        _nudged,
        "757945c77fd59d9630071d5c949d0166f274d9d6a8d95834cc4a4cac30d988ab",
        "(4, 5, 7, Fraction(1, 3))",
    ),
}


@pytest.mark.parametrize("name", list(FAIL_REPORTS))
def test_verify_paper_fail_reports_keep_their_bytes(paper, name):
    build, digest, first = FAIL_REPORTS[name]
    lines = verify_paper_example(build(paper)).lines()
    assert lines[-1].startswith("SUMMARY: FAIL")
    polarized = next(line for line in lines if line.startswith("CHECK[go_polarized]"))
    assert polarized.endswith(f"first at [{first}])")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


def test_a_warm_verify_paper_pass_restricts_and_diagonalizes_no_form(monkeypatch):
    # The metric algebra keeps its forms restricted to n' and v, as it keeps n',
    # and the example keeps its cleared witnesses: a second pass, and the
    # necessary-condition check, restrict and diagonalize nothing again.
    example = build_example("paper_2_3")
    first = verify_paper_example(example).lines()
    calls = Counter()
    for module, name in ((metric, "restrict_form"), (metric, "_diagonalize"), (linalg, "_diagonalize")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real=real, name=name: calls.update([name]) or real(*args))
    for_witnesses = example._cleared_witnesses
    assert verify_paper_example(example).lines() == first and first[-1].startswith("SUMMARY: PASS")
    assert go_engine.necessary_condition_check(example.algebra).passed
    assert example._cleared_witnesses is for_witnesses
    assert calls == Counter()
