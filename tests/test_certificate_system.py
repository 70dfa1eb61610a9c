"""The per-sample certificate system against the dense solve it replaced.

``go_certificate_at`` contracts T with tensors built once per (m, h) and solves
only for a particular solution.  ``oracles.certificate_by_dense_solve`` builds
the same system from whole matrices, one product per operator, and solves it
with ``solve_particular``.  Both must return the same (A_coeffs, k), or None.
``linear_go_certificate`` reads its polarized system off the same tensors and
is compared with the dense (a, b, c) assembly of
``oracles.linear_certificate_by_dense_assembly`` in the same way.  The
integer per-certificate check accepts exactly the certificates that
``oracles.certificate_holds_by_fractions`` accepts, and a sample reads only
the built system: no matrix is built, multiplied or solved densely.
"""

import math
import random
from dataclasses import fields, replace
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from conftest import (
    dense_twin,
    heisenberg,
    necessary_condition_counterexample,
    random_nilpotent_table,
    rescaled,
    sheared,
    sheared_gram,
)
from gonil import go_engine, linalg
from gonil.catalog import EXAMPLE_NAMES, build_example
from gonil.go_engine import (
    GOCertificate,
    GOEngineError,
    _CertificateSystem,
    _integer_vector,
    _verify_certificate,
    first_null_vector,
    go_certificate_at,
    go_random_audit,
    linear_go_certificate,
)
from gonil.isotropy import OperatorSpace, isotropy_algebra
from gonil.lie import LieAlgebra
from gonil.linalg import Matrix, vec_scale
from gonil.metric import MetricLieAlgebra, SymForm
from oracles import (
    certificate_by_dense_solve,
    certificate_holds_by_fractions,
    certificate_tensors_by_dense_products,
    linear_certificate_by_dense_assembly,
    lowered_brackets,
)

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# Heisenberg algebras of signatures (4, 0), (4, 1) and (5, 2) (the arguments of
# conftest.heisenberg): the row a sample's system drops, as skewness makes it
# redundant, is there the only dependent row.
HEISENBERGS = {
    "heisenberg(2)": (2, ()),
    "heisenberg(2, negative=(0,))": (2, (0,)),
    "heisenberg(3, negative=(0, 3))": (3, (0, 3)),
}


@pytest.fixture(scope="module")
def spaces(paper, paper_iso):
    """name -> (m, h) for every catalog entry and every entry of HEISENBERGS, h its isotropy algebra."""
    out = {"paper_2_3": (paper.algebra, paper_iso)}
    for name in EXAMPLE_NAMES:
        if name not in out:
            m = build_example(name).algebra
            out[name] = (m, isotropy_algebra(m))
    for name, (k, negative) in HEISENBERGS.items():
        m = heisenberg(k, negative)
        out[name] = (m, isotropy_algebra(m))
    return out


def _result(m, h, t):
    cert = go_certificate_at(m, h, t)
    return None if cert is None else (cert.A_coeffs, cert.k)


def _vector(draw, n, rational: bool):
    den = st.integers(2, 4) if rational else st.just(1)
    entries = st.builds(Fraction, st.integers(-4, 4), den)
    return draw(st.lists(entries, min_size=n, max_size=n).filter(any))


@seed(20261018)
@SETTINGS
@given(name=st.sampled_from(EXAMPLE_NAMES + tuple(HEISENBERGS)), rational=st.booleans(), data=st.data())
def test_certificate_matches_dense_oracle_on_catalog(spaces, name, rational, data):
    m, h = spaces[name]
    t = _vector(data.draw, m.dim, rational)
    assert _result(m, h, t) == certificate_by_dense_solve(m, h, t)


@seed(20261018)
@SETTINGS
@given(
    name=st.sampled_from(("paper_2_3", "de7_lorentz")),
    scale=st.builds(Fraction, st.integers(1, 5).map(lambda x: x * (-1) ** x), st.integers(1, 4)),
)
def test_certificate_matches_dense_oracle_on_null_vectors(spaces, name, scale):
    m, h = spaces[name]
    t = vec_scale(scale, first_null_vector(m))
    assert m.pair(t, t) == 0
    assert _result(m, h, t) == certificate_by_dense_solve(m, h, t)


@seed(20261018)
@SETTINGS
@given(k=st.integers(0, 8), rational=st.booleans(), data=st.data())
def test_certificate_matches_dense_oracle_on_isotropy_subspaces(paper, paper_iso, k, rational, data):
    m = paper.algebra
    sub = OperatorSpace.from_operators(m.dim, paper_iso.basis[:k])
    assert sub.dim == k < paper_iso.dim
    t = _vector(data.draw, m.dim, rational)
    assert _result(m, sub, t) == certificate_by_dense_solve(m, sub, t)


@pytest.mark.parametrize("k", [4, 7, None])
def test_audit_on_isotropy_subspace_matches_dense_oracle(paper, paper_iso, k):
    # One system serves every sample of the audit; a proper subspace of the
    # isotropy algebra makes some samples infeasible.  On the Lorentz H_3 with
    # its whole isotropy algebra (k None), entries in [-1, 1] draw null and
    # non-null T alike: one audit solves both with and without the k column.
    if k is None:
        m = heisenberg(1, negative=(0,))
        sub = isotropy_algebra(m)
        report = go_random_audit(m, sub, 30, seed=1, bound=1)
        assert {m.pair(p.T, p.T) == 0 for p in report.points} == {True, False}
    else:
        m = paper.algebra
        sub = OperatorSpace.from_operators(m.dim, paper_iso.basis[:k])
        report = go_random_audit(m, sub, 20, seed=1, bound=3)
        assert report.failures
    for p in list(report.points) + [report.null_point]:
        got = None if p.certificate is None else (p.certificate.A_coeffs, p.certificate.k)
        assert got == certificate_by_dense_solve(m, sub, p.T)


def _linear_result(m, h):
    cert = linear_go_certificate(m, h)
    return None if cert is None else cert.coeffs


def test_linear_certificate_matches_dense_assembly_on_catalog(checked_spaces):
    # The counterexample has <[e_a, e_b], e_a> != 0, a diagonal monomial term.
    # In the rescaled entries the bracket table, the Gram matrix and h's basis
    # all carry denominators, so the integer check reads three scales.
    m = necessary_condition_counterexample()
    pairs = list(checked_spaces.values()) + [(m, isotropy_algebra(m))]
    assert any(m.algebra._den > 1 and m.form._den > 1 and h.span.den > 1 for m, h in pairs)
    for m, h in pairs:
        assert _linear_result(m, h) == linear_certificate_by_dense_assembly(m, h)


@pytest.mark.parametrize("drop, feasible", [(0, True), (1, False), (6, True), (8, False)])
def test_linear_certificate_on_isotropy_hyperplanes(paper, paper_iso, drop, feasible):
    m = paper.algebra
    sub = OperatorSpace.from_operators(m.dim, paper_iso.basis[:drop] + paper_iso.basis[drop + 1 :])
    got = _linear_result(m, sub)
    assert (got is not None) == feasible
    assert got == linear_certificate_by_dense_assembly(m, sub)


@seed(20261018)
@settings(max_examples=20, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_linear_certificate_matches_dense_assembly_on_isotropy_subspaces(paper, paper_iso, data):
    m = paper.algebra
    keep = data.draw(st.lists(st.integers(0, paper_iso.dim - 1), max_size=paper_iso.dim - 1, unique=True))
    sub = OperatorSpace.from_operators(m.dim, [paper_iso.basis[j] for j in sorted(keep)])
    assert sub.dim == len(keep) < paper_iso.dim
    assert _linear_result(m, sub) == linear_certificate_by_dense_assembly(m, sub)


@pytest.mark.parametrize("name", ["de5", "de7_lorentz"])
def test_linear_certificate_matches_dense_assembly_in_sheared_basis(spaces, name):
    # A change of basis keeps a linear witness, and here the diagonal
    # monomials T_a T_a carry nonzero bracket terms.
    m = sheared(spaces[name][0])
    low = lowered_brackets(m)
    assert any(low[a][b][a] for a in range(m.dim) for b in range(m.dim))
    h = isotropy_algebra(m)
    got = _linear_result(m, h)
    assert got is not None
    assert got == linear_certificate_by_dense_assembly(m, h)


@st.composite
def sheared_random_algebras(draw):
    """A random nilpotent algebra of dim 3-7 with a sheared form that is negative on 0-2 diagonal entries."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(3, 7))
    diagonal = draw(st.lists(st.sampled_from([1, 2, Fraction(1, 2)]), min_size=n, max_size=n))
    for i in draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True)):
        diagonal[i] = -diagonal[i]
    return MetricLieAlgebra(LieAlgebra(n, random_nilpotent_table(rng, n)), SymForm(sheared_gram(rng, diagonal)))


@seed(20261022)
@settings(max_examples=100, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(m=sheared_random_algebras())
def test_reached_linear_certificate_matches_dense_assembly_on_random_algebras(m):
    # The solve reads only the rows the right-hand side reaches; the oracle solves every polarized row densely.
    # Either both find the same canonical solution, or both return None.
    h = isotropy_algebra(m)
    assert _linear_result(m, h) == linear_certificate_by_dense_assembly(m, h)


def test_reached_linear_certificate_matches_dense_assembly_on_twins_and_split_h9(spaces):
    # Each seed-7 dense twin is one block, every row of it reached; H_9 of signature (7, 2) leaves most out.
    for m in (dense_twin(spaces["de5"][0], 7), dense_twin(spaces["de7_lorentz"][0], 7), heisenberg(4, (7, 8))):
        h = isotropy_algebra(m)
        got = _linear_result(m, h)
        assert got is not None and got == linear_certificate_by_dense_assembly(m, h)


def test_linear_certificate_solves_only_the_rows_its_right_hand_side_reaches(spaces, monkeypatch):
    # paper_2_3, de7_lorentz, and H_41 Euclidean and of signature (39, 2): the whole polarized system has 324,
    # 70, 32,760 and 31,012 rows.
    h41s = [(m, isotropy_algebra(m)) for m in (heisenberg(20), heisenberg(20, (39, 40)))]
    cases = [spaces["paper_2_3"], spaces["de7_lorentz"], *h41s]
    solve, counts = go_engine._solve_rows, []

    def counting(rows, ncols):
        rows = list(rows)
        counts.append(len(rows))
        return solve(rows, ncols)

    monkeypatch.setattr(go_engine, "_solve_rows", counting)
    assert all(linear_go_certificate(m, h) is not None for m, h in cases)
    assert counts == [23, 2, 40, 40]


SCALES = (Fraction(1, 2), Fraction(2, 3), Fraction(3), Fraction(-5, 4), Fraction(1), Fraction(6, 5))


@pytest.fixture(scope="module")
def checked_spaces(spaces):
    """The catalog's (m, h), and three entries again in a rescaled basis with rational data."""
    out = dict(spaces)
    for name in ("paper_2_3", "de5", "de7_lorentz"):
        m = rescaled(spaces[name][0], [SCALES[i % len(SCALES)] for i in range(spaces[name][0].dim)])
        out[f"{name}/rescaled"] = (m, isotropy_algebra(m))
    return out


CHECKED_NAMES = EXAMPLE_NAMES + ("paper_2_3/rescaled", "de5/rescaled", "de7_lorentz/rescaled")
NULL_NAMES = ("paper_2_3", "de5", "de7_lorentz", "paper_2_3/rescaled", "de5/rescaled", "de7_lorentz/rescaled")
NUDGES = st.one_of(st.sampled_from([1, -1]), st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(2, 5)))


def test_rescaled_spaces_carry_denominators(checked_spaces):
    for name in CHECKED_NAMES:
        m, h = checked_spaces[name]
        assert ((m.algebra._den, h.span.den) != (1, 1)) == name.endswith("/rescaled"), name
        assert any(x.denominator > 1 for row in m.form.gram.rows for x in row) == name.endswith("/rescaled"), name
        assert (first_null_vector(m) is not None) == (name in NULL_NAMES), name


def _accepted(system, cert):
    try:
        _verify_certificate(system, cert, *_integer_vector(cert.T))
    except AssertionError:
        return False
    return True


@seed(20261018)
@SETTINGS
@given(
    name=st.sampled_from(CHECKED_NAMES),
    kind=st.sampled_from(["integer", "rational", "null"]),
    scale=st.builds(Fraction, st.integers(1, 5).map(lambda x: x * (-1) ** x), st.integers(1, 4)),
    nudge=NUDGES,
    data=st.data(),
)
def test_integer_check_accepts_exactly_what_the_fraction_oracle_accepts(checked_spaces, name, kind, scale, nudge, data):
    if kind == "null":
        name = data.draw(st.sampled_from(NULL_NAMES))
    m, h = checked_spaces[name]
    system = _CertificateSystem.build(m, h)
    if kind == "null":
        t = vec_scale(scale, first_null_vector(m))
    else:
        t = tuple(_vector(data.draw, m.dim, kind == "rational"))
    cert = go_certificate_at(m, h, t, _system=system)
    assert (None if cert is None else (cert.A_coeffs, cert.k)) == certificate_by_dense_solve(m, h, t)
    if cert is None:  # infeasible at T: any candidate is wrong, the zero one included
        cert = GOCertificate(t, tuple(Fraction(0) for _ in range(h.dim)), Fraction(0))
    else:
        assert _accepted(system, cert) and certificate_holds_by_fractions(m, h, cert)
    candidates = [cert, replace(cert, k=cert.k + nudge)]
    for j in range(h.dim):
        coeffs = list(cert.A_coeffs)
        coeffs[j] += nudge
        candidates.append(replace(cert, A_coeffs=tuple(coeffs)))
    outcomes = [_accepted(system, c) for c in candidates]
    assert outcomes == [certificate_holds_by_fractions(m, h, c) for c in candidates]
    assert not outcomes[1]  # <T, e_b> != 0 for some b, so a changed k always breaks the identity


@pytest.mark.parametrize("name", ["paper_2_3", "de7_lorentz"])
def test_samples_build_no_matrix_and_solve_nothing_densely(spaces, name, monkeypatch):
    m, h = spaces[name]
    system = _CertificateSystem.build(m, h)
    rng = random.Random(11)
    vectors = [tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))) for _ in range(m.dim)) for _ in range(49)]
    vectors.append(first_null_vector(m))

    def results():
        out = []
        for t in vectors:
            cert = go_certificate_at(m, h, t, _system=system)
            out.append(None if cert is None else (cert.A_coeffs, cert.k))
        return out

    expected = results()

    def refuse(*args, **kwargs):
        raise AssertionError("a sample built, multiplied or densely solved a matrix")

    monkeypatch.setattr(Matrix, "__matmul__", refuse)
    monkeypatch.setattr(Matrix, "__init__", refuse)
    monkeypatch.setattr(linalg, "solve_particular", refuse)
    assert results() == expected
    assert any(r is not None for r in expected)


def test_null_vector_certificate_with_nonzero_k():
    # [e0, e1] = e2 with a split signature (2,2,0) form.  h is spanned by the
    # first isotropy operator plus half the third, whose canonical basis has
    # entries 1/2, so h.span.den = 2, and T = (-1/2, 0, 0, 1/2) is null with d = 2:
    # dropping d from the k column, or the span's den from the check's k side, breaks it.
    alg = LieAlgebra(4, {(0, 1): {2: 1}})
    gram = Matrix([[0, 0, 1, 0], [0, 1, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    m = MetricLieAlgebra.checked(alg, SymForm(gram))
    assert tuple(m.form.signature()) == (2, 2, 0)
    iso = isotropy_algebra(m)
    d = iso.basis[0]
    assert iso.dim == 3 and d == Matrix([[1, 0, 0, 0], [0, -2, 0, 0], [0, 0, -1, 0], [0, 2, 0, 2]])
    half = Fraction(1, 2)
    h = OperatorSpace.from_operators(4, [d + iso.basis[2].scale(half)])
    assert h.basis == (Matrix([[1, 0, 0, 0], [0, -2, 0, 0], [0, half, -1, 0], [-half, 2, 0, 2]]),)
    assert h.span.den == 2
    t = (-half, Fraction(0), Fraction(0), half)
    assert m.pair(t, t) == 0
    cert = go_certificate_at(m, h, t)
    assert cert.A_coeffs == (Fraction(1, 3),) and cert.k == Fraction(-1, 3)
    assert certificate_holds_by_fractions(m, h, cert)
    assert go_certificate_at(m, iso, t).k == 0


@pytest.mark.parametrize("name", CHECKED_NAMES + ("de5/sheared",))
def test_system_tensors_match_their_dense_products(checked_spaces, name):
    # paired is G D_j summed over D_j's triples, h's one view of its entries;
    # both must equal the dense products' entries, cleared as documented.  The
    # tensors are summed in ints from the cleared Gram matrix, h's triples and
    # the int lowered tensor, and divided by what their scale shares with every
    # entry: the factor left is the least common denominator of G, the G D_j
    # and the lowered brackets, as when they were summed in Fractions.
    if name == "de5/sheared":  # a Gram matrix with off-diagonal entries
        m = sheared(checked_spaces["de5"][0])
        h = isotropy_algebra(m)
    else:
        m, h = checked_spaces[name]
    system = _CertificateSystem.build(m, h)
    paired, ops = certificate_tensors_by_dense_products(m, h)
    b, ((e, v),) = next((b, row[:1]) for b, row in enumerate(system.gram_rows) if row)
    den = v / m.form.gram[b, e]  # the common denominator the tensors were cleared by
    low = lowered_brackets(m)  # low[a][c][b] = <[e_a, e_c], e_b>
    values = chain(chain(*m.form.gram.rows), (x for entries in paired for *_, x in entries), chain(*chain(*low)))
    assert den == math.lcm(*[x.denominator for x in values])
    n = m.dim
    quadratic = [(a, c, b, low[a][c][b] * den) for a in range(n) for c in range(n) for b in range(n) if low[a][c][b]]
    assert system.quadratic == tuple(quadratic)
    assert system.paired == tuple(tuple((e, b, x * den) for e, b, x in entries) for entries in paired)
    assert h._triples == tuple(tuple((k, c, x * h.span.den) for k, c, x in entries) for entries in ops)
    assert len(system.paired) == len(h._triples) == h.dim
    # the system keeps its contracted tensors only; the checks read h's triples and m's cleared tables
    assert [field.name for field in fields(system)] == ["m", "h", "gram_rows", "paired", "quadratic"]


def test_isotropy_algebra_of_another_metric_is_checked_like_a_bare_space(heis3):
    # h keeps heis3's rows; under any other m of the same dimension (another
    # form, a rescaled basis, another bracket) it is checked from fresh rows
    # and fails exactly as a bare space of the same operators does.
    h = isotropy_algebra(heis3)
    bare = OperatorSpace(h.ambient_dim, h.span)
    others = (
        heisenberg(1, negative=(1,)),
        rescaled(heis3, (1, 2, 1)),
        MetricLieAlgebra.checked(LieAlgebra(3, {(0, 2): {1: 1}}), heis3.form),
    )
    calls = (
        lambda m, s: go_certificate_at(m, s, (1, 2, 3)),
        lambda m, s: go_random_audit(m, s, 3, seed=1),
        lambda m, s: linear_go_certificate(m, s),
    )
    messages = set()
    for m in others:
        for call in calls:
            with pytest.raises(GOEngineError) as kept:
                call(m, h)
            with pytest.raises(GOEngineError) as fresh:
                call(m, bare)
            assert str(kept.value) == str(fresh.value)
            messages.add(str(kept.value))
    prefix = "operator space is not inside the isotropy algebra"
    assert messages == {f"{prefix} ({what} fails)" for what in ("skewness", "derivation")}
    # an equal algebra built again is another object: its rows are rebuilt, and it passes
    again = build_example("heis3").algebra
    assert again == heis3 and again is not heis3
    assert go_certificate_at(again, h, (1, 2, 3)) == go_certificate_at(again, bare, (1, 2, 3))
