import random
from fractions import Fraction

import pytest

from conftest import combination, dense_twin, heisenberg, necessary_condition_counterexample
from gonil.cli import MAX_BOUND
from gonil.go_engine import (
    GOEngineError,
    _uniform_draws,
    check_subisotropy,
    first_null_vector,
    go_certificate_at,
    go_random_audit,
    linear_go_certificate,
    necessary_condition_check,
)
from gonil import linalg
from gonil.isotropy import OperatorSpace, isotropy_algebra
from gonil.linalg import Matrix, basis_vec, to_vec, vec_add, vec_scale


def witness_at(h, cert, t):
    """A(T) = sum_j (L T)_j D_j from a linear certificate L and h's basis operators D_j."""
    return combination(h.ambient_dim, h.basis, cert.coeffs @ to_vec(t))


def test_abelian_certificate_is_trivial(abelian4):
    iso = isotropy_algebra(abelian4)
    cert = go_certificate_at(abelian4, iso, [1, 2, 3, 4])
    assert cert is not None
    assert cert.k == 0
    assert combination(4, iso.basis, cert.A_coeffs).is_zero()


def test_paper_certificate_at_f4(paper, paper_iso):
    t = basis_vec(12, 3)  # f4
    cert = go_certificate_at(paper.algebra, paper_iso, t)
    assert cert is not None and cert.k == 0
    # the stored operator at f4 is itself one solution of the same system
    m = paper.algebra
    a = paper.witness_operators[3]
    for b in range(12):
        eb = basis_vec(12, b)
        assert m.pair(vec_add(m.algebra.bracket(t, eb), a @ eb), t) == 0


def test_zero_vector_rejected(heis3):
    iso = isotropy_algebra(heis3)
    with pytest.raises(GOEngineError, match="nonzero"):
        go_certificate_at(heis3, iso, [0, 0, 0])


def test_subisotropy_check_rejects_non_derivation(heis3):
    bad = OperatorSpace.from_operators(3, [Matrix([[0, 1, 0], [-1, 0, 0], [0, 0, 1]])])
    with pytest.raises(GOEngineError):
        check_subisotropy(heis3, bad)


def test_subisotropy_check_reports_the_first_failing_operator(heis3):
    # Operator by operator, skewness before the derivation identity.  Each
    # family is already canonical (first nonzero row-major entries 2 then 4,
    # or 0 then 2), so the space checks the operators in the listed order.
    skew_only = Matrix([[0, 0, 1], [0, 0, 0], [-1, 0, 0]])  # e1 -> -e3, e3 -> e1
    derivation_only = Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 1]])
    late_derivation_only = Matrix([[0, 0, 0], [0, 1, 0], [0, 0, 1]])
    neither = Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    for ops, failure in (
        ((skew_only, late_derivation_only), "derivation"),
        ((derivation_only, skew_only), "skewness"),
        ((neither,), "skewness"),
    ):
        h = OperatorSpace.from_operators(3, ops)
        assert h.basis == ops
        with pytest.raises(GOEngineError, match=f"\\({failure} fails\\)"):
            check_subisotropy(heis3, h)


def test_filiform_audit_refuted(filiform4):
    iso = isotropy_algebra(filiform4)
    report = go_random_audit(filiform4, iso, 200, seed=1, bound=5)
    assert report.verdict == "REFUTED"
    assert report.failures
    again = go_random_audit(filiform4, iso, 200, seed=1, bound=5)
    assert report.lines() == again.lines()  # same seed, identical witness


def test_heisenberg_audit_consistent(heis3):
    iso = isotropy_algebra(heis3)
    report = go_random_audit(heis3, iso, 200, seed=3, bound=10)
    assert report.verdict == "CONSISTENT"
    assert report.null_point is None  # definite form has no null vectors


def _randint_samples(dim, samples, seed, bound):
    """The audit's draws as ``Fraction(rng.randint(-bound, bound))`` entries, all-zero vectors redrawn, and the redraw count."""
    rng, out, redraws = random.Random(seed), [], 0
    while len(out) < samples:
        t = tuple(Fraction(rng.randint(-bound, bound)) for _ in range(dim))
        if not any(t):
            redraws += 1
        else:
            out.append(t)
    return out, redraws


@pytest.mark.parametrize("bound", [1, 2, 10, MAX_BOUND])
def test_audit_samples_are_the_randint_draws(heis3, bound):
    iso = isotropy_algebra(heis3)
    for seed in (1, 2, 8):
        expected, redraws = _randint_samples(heis3.dim, 60, seed, bound)
        got = [p.T for p in go_random_audit(heis3, iso, 60, seed, bound).points]
        assert got == expected and all(type(x) is Fraction for t in got for x in t)
        assert redraws > 0 or bound > 1  # at bound 1, some vector of each seed is drawn zero and redrawn


@pytest.mark.parametrize("bound", [0, 1, 5, 10, MAX_BOUND])
def test_draws_are_the_randrange_stream(bound):
    # Spans 1, 3, 11, 21 and the largest the CLI takes; each run of this suite checks its own Python's random.
    span = 2 * bound + 1
    for seed in range(25):
        rng, draws = random.Random(seed), _uniform_draws(seed, bound)
        assert [next(draws) for _ in range(600)] == [rng.randrange(span) - bound for _ in range(600)]


def test_paper_audit_consistent_with_null_sample(paper, paper_iso):
    report = go_random_audit(paper.algebra, paper_iso, 200, seed=7, bound=10)
    assert report.verdict == "CONSISTENT"
    assert not report.failures
    assert report.null_point is not None and report.null_point.feasible
    assert paper.algebra.pair(report.null_point.T, report.null_point.T) == 0


def test_k_vanishes_on_non_null_vectors(paper, paper_iso, de5, de7, heis3, abelian4):
    cases = [
        (paper.algebra, paper_iso, 40),
        (de5, isotropy_algebra(de5), 60),
        (de7, isotropy_algebra(de7), 40),
        (heis3, isotropy_algebra(heis3), 60),
        (abelian4, isotropy_algebra(abelian4), 40),
    ]
    for m, iso, samples in cases:
        report = go_random_audit(m, iso, samples, seed=5, bound=6)
        for point in report.points:
            if point.feasible and m.pair(point.T, point.T) != 0:
                assert point.certificate.k == 0


def test_scaling_covariance(de5):
    iso = isotropy_algebra(de5)
    rng = random.Random(17)
    for _ in range(15):
        t = tuple(Fraction(rng.randint(-4, 4)) for _ in range(5))
        if not any(t):
            continue
        cert = go_certificate_at(de5, iso, t)
        assert cert is not None
        doubled = go_certificate_at(de5, iso, vec_scale(2, t))
        assert doubled is not None
        # the doubled witness (2A, 2k) satisfies the identity at 2T
        a = combination(5, iso.basis, cert.A_coeffs)
        for b in range(5):
            eb = basis_vec(5, b)
            t2 = vec_scale(2, t)
            lhs = de5.pair(vec_add(de5.algebra.bracket(t2, eb), a.scale(2) @ eb), t2)
            assert lhs == 2 * cert.k * de5.pair(t2, eb)


def test_linear_certificate_abelian(abelian4):
    iso = isotropy_algebra(abelian4)
    cert = linear_go_certificate(abelian4, iso)
    assert cert is not None
    assert cert.coeffs.is_zero()  # L = 0 is the canonical witness


def test_linear_certificate_filiform_infeasible(filiform4):
    iso = isotropy_algebra(filiform4)
    assert linear_go_certificate(filiform4, iso) is None


def test_linear_certificate_de5_consistent_with_pointwise(de5):
    iso = isotropy_algebra(de5)
    cert = linear_go_certificate(de5, iso)
    assert cert is not None
    rng = random.Random(23)
    for _ in range(10):
        t = tuple(Fraction(rng.randint(-5, 5)) for _ in range(5))
        if not any(t):
            continue
        a = witness_at(iso, cert, t)
        for b in range(5):
            eb = basis_vec(5, b)
            assert de5.pair(vec_add(de5.algebra.bracket(t, eb), a @ eb), t) == 0


def test_linear_certificate_paper_consistent_with_pointwise(paper, paper_iso):
    m = paper.algebra
    cert = linear_go_certificate(m, paper_iso)
    assert cert is not None
    rng = random.Random(31)
    for _ in range(5):
        t = tuple(Fraction(rng.randint(-3, 3)) for _ in range(12))
        if not any(t):
            continue
        a = witness_at(paper_iso, cert, t)
        for b in range(12):
            eb = basis_vec(12, b)
            assert m.pair(vec_add(m.algebra.bracket(t, eb), a @ eb), t) == 0


def test_linear_certificate_found_on_euclidean_h25():
    # 144 isotropy operators and 3600 unknowns: eliminated over nonzero entries, this runs in well under a second.
    m = heisenberg(12)
    iso = isotropy_algebra(m)
    assert iso.dim == 144
    cert = linear_go_certificate(m, iso)
    assert cert is not None
    t = tuple(Fraction(i % 5 - 2) for i in range(25))
    a = witness_at(iso, cert, t)
    for b in range(25):
        eb = basis_vec(25, b)
        assert m.pair(vec_add(m.algebra.bracket(t, eb), a @ eb), t) == 0


def test_both_certificate_solves_insert_their_rows_sparsest_first(monkeypatch, paper, paper_iso, de5):
    # The solver orders the rows, whoever built them: a sample's and the linear system's reach _forward sorted.
    # The linear half runs on de5's seed-7 dense twin: paper_2_3's reached rows all have two entries.
    twin = dense_twin(de5, 7)
    twin_iso = isotropy_algebra(twin)
    forward, lengths = linalg._forward, []

    def recording(rows):
        rows = list(rows)
        lengths.append([len(row) for row in rows])
        return forward(rows)

    monkeypatch.setattr(linalg, "_forward", recording)
    assert go_certificate_at(paper.algebra, paper_iso, range(1, 13)) is not None
    assert linear_go_certificate(twin, twin_iso) is not None
    assert len(lengths) == 2 and all(len(set(row_lengths)) > 1 for row_lengths in lengths)
    assert all(row_lengths == sorted(row_lengths) for row_lengths in lengths)


def test_first_null_vector(paper, heis3):
    nv = first_null_vector(paper.algebra)
    assert nv is not None
    assert paper.algebra.pair(nv, nv) == 0
    assert first_null_vector(heis3) is None


def test_necessary_conditions_pass_on_paper_and_heis(paper, heis3):
    assert necessary_condition_check(paper.algebra).passed
    assert necessary_condition_check(heis3).passed


def test_necessary_conditions_vacuous_on_abelian(abelian4):
    report = necessary_condition_check(abelian4)
    assert report.passed and not report.violations


def test_necessary_conditions_skipped_on_degenerate_restriction(de5):
    report = necessary_condition_check(de5)
    assert report.skipped
    assert "degenerate" in report.notice


def test_necessary_conditions_counterexample_triple():
    m = necessary_condition_counterexample()
    report = necessary_condition_check(m)
    assert not report.passed
    # n' = span(e2, e3) in canonical order, so (f, e2, e2) is (0, 0, 0);
    # the polarized defect is 2 <[f,e2], e2> = 2
    assert report.violations == ((0, 0, 0, Fraction(2)),)
    assert m.nprime().basis.row(0) == to_vec([0, 0, 1, 0])


def test_audit_consistent_implies_necessary_conditions(paper, heis3, abelian4):
    # the identities are consequences of the orbit property on nondegenerate n'
    for m in (paper.algebra, heis3, abelian4):
        iso = isotropy_algebra(m)
        report = go_random_audit(m, iso, 30, seed=11, bound=4)
        if report.verdict == "CONSISTENT":
            assert necessary_condition_check(m).passed


def test_audit_requires_positive_samples(heis3):
    iso = isotropy_algebra(heis3)
    with pytest.raises(GOEngineError):
        go_random_audit(heis3, iso, 0, seed=1)
