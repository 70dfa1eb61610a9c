import random
from collections import Counter
from fractions import Fraction
from functools import cached_property

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import gonil.isotropy as isotropy
import gonil.metric as metric
from conftest import ENTRY, rescaled
from gonil.catalog import EXAMPLE_NAMES, build_example, verify_paper_example
from gonil.go_engine import check_subisotropy, first_null_vector, necessary_condition_check
from gonil.io import algebra_from_dict, algebra_to_dict
from gonil.lie import abelian
from gonil.linalg import DimensionMismatch, Matrix, Subspace
from gonil.metric import (
    MetricLieAlgebra,
    PreconditionError,
    SymForm,
    orth_complement,
    radical_of_restriction,
    restrict_form,
)
from oracles import pair_by_dense_product, random_invertible_matrix


def random_metric_abelian(rng, n):
    # congruence image of a random +/-1 diagonal: nondegenerate, mixed signature
    p = random_invertible_matrix(rng, n, 3)
    signs = Matrix([[Fraction(rng.choice((1, -1))) if i == j else Fraction(0) for j in range(n)] for i in range(n)])
    gram = p.transpose() @ signs @ p
    return MetricLieAlgebra.checked(abelian(n), SymForm(gram))


def test_gram_matrix_is_checked_symmetric_once(monkeypatch):
    # SymForm checks its Gram matrix on construction; its signature and the audit's null vector reuse that.
    calls = []
    real = Matrix.is_symmetric
    monkeypatch.setattr(Matrix, "is_symmetric", lambda self: calls.append(self) or real(self))
    m = MetricLieAlgebra(abelian(3), SymForm(Matrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]])))
    assert m.form.signature() == (2, 1, 0) and first_null_vector(m) is not None
    assert calls == [m.form.gram]


def test_orth_complement_of_zero(abelian4):
    assert orth_complement(abelian4, Subspace.zero(4)) == Subspace.full(4)


def test_orth_complement_paper(paper):
    m = paper.algebra
    v = orth_complement(m, m.nprime())
    f_span = Subspace.span(12, [[1 if j == i else 0 for j in range(12)] for i in range(8)])
    assert v == f_span


def test_double_complement_random():
    rng = random.Random(21)
    for _ in range(20):
        n = rng.randint(2, 5)
        m = random_metric_abelian(rng, n)
        v = Subspace.span(n, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))])
        w = orth_complement(m, v)
        assert v.dim + w.dim == n
        assert orth_complement(m, w) == v


def test_restrict_paper_nprime(paper):
    m = paper.algebra
    assert tuple(restrict_form(m, m.nprime()).signature()) == (3, 1, 0)


def test_restrict_de5_nprime(de5):
    sig = restrict_form(de5, de5.nprime()).signature()
    assert tuple(sig) == (1, 0, 1)  # degeneracy 1, semidefinite


def test_radical_of_zero_form():
    gram = Matrix.zeros(3, 3)
    assert SymForm(gram).radical().dim == 3


def test_radical_of_restriction_is_ambient(de5):
    rad = radical_of_restriction(de5, de5.nprime())
    assert rad.dim == 1
    assert rad.contains_vector((0, 0, 0, 0, 1))  # the central direction e


def test_pair_checks_both_lengths(heis3):
    for x, y in (((1,), (1, 0, 0)), ((1, 0, 0, 0), (1, 0, 0)), ((1, 0, 0), (1,))):
        with pytest.raises(DimensionMismatch):
            heis3.pair(x, y)
        with pytest.raises(DimensionMismatch):
            heis3.form.pair(x, y)
    assert heis3.pair((1, 0, 0), (1, 0, 0)) == 1


@pytest.mark.parametrize("entry", [orth_complement, restrict_form, radical_of_restriction, isotropy.is_adh_invariant])
def test_subspace_entries_refuse_a_subspace_of_another_dimension(heis3, entry):
    for v in (Subspace.full(2), Subspace.zero(4)):
        with pytest.raises(DimensionMismatch, match="subspace ambient dimension differs from the algebra"):
            entry(heis3, v)


def test_full_signature_paper(paper):
    assert tuple(paper.algebra.form.signature()) == (8, 4, 0)


def test_signature_additivity_on_orthogonal_split(paper):
    m = paper.algebra
    s1 = restrict_form(m, m.nprime()).signature()
    s2 = restrict_form(m, m.v_complement()).signature()
    total = m.form.signature()
    assert (s1.p + s2.p, s1.q + s2.q, s1.r + s2.r) == tuple(total)


def test_checked_rejects_degenerate_form():
    with pytest.raises(PreconditionError, match="nondegenerate"):
        MetricLieAlgebra.checked(abelian(2), SymForm(Matrix([[1, 0], [0, 0]])))


def test_checked_rejects_non_nilpotent():
    from gonil.lie import LieAlgebra

    solvable = LieAlgebra(2, {(0, 1): {1: 1}})
    with pytest.raises(PreconditionError, match="nilpotent"):
        MetricLieAlgebra.checked(solvable, SymForm(Matrix.identity(2)))


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_metric_algebras_compare_and_hash_by_algebra_and_form(name):
    # The frozen dataclass's own == and hash, over (algebra, form); a form compares its Gram matrix.
    m, twin = build_example(name).algebra, build_example(name).algebra
    assert m is not twin and m == twin and hash(m) == hash(twin)
    assert m != rescaled(m, [2] * m.dim)  # every bracket and Gram entry doubled or quadrupled
    assert (m == m.algebra) is False


@st.composite
def form_and_vectors(draw):
    """A symmetric rational Gram matrix with zero entries, and two vectors of its dimension with zeros."""
    n = draw(st.integers(1, 7))
    upper = {(i, j): draw(ENTRY) for i in range(n) for j in range(i, n)}
    gram = Matrix([[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)])
    x, y = ([draw(ENTRY) for _ in range(n)] for _ in range(2))
    return SymForm(gram), x, y


@seed(20261019)
@settings(max_examples=200, deadline=None, database=None)
@given(form_and_vectors())
def test_pair_over_nonzero_entries_matches_the_dense_product(case):
    form, x, y = case
    assert form.pair(x, y) == pair_by_dense_product(form, x, y) == form.pair(y, x)
    assert type(form.pair(x, y)) is Fraction
    for bad in ([*x, 0], x[:-1]):
        with pytest.raises(DimensionMismatch):
            form.pair(bad, y)
        with pytest.raises(DimensionMismatch):
            form.pair(x, bad)


def _count_builds(monkeypatch) -> Counter:
    """Count each build of skew rows, of a by-entry index and of a lowered bracket tensor."""
    counts = Counter()

    def counted(name, f):
        def wrapper(*args):
            counts[name] += 1
            return f(*args)
        return wrapper

    skew_rows = counted("skew rows", metric._skew_rows)
    for module in (metric, isotropy):
        monkeypatch.setattr(module, "_skew_rows", skew_rows)
    monkeypatch.setattr(metric, "_indexed", counted("index", metric._indexed))
    lowered = cached_property(counted("lowered", MetricLieAlgebra.__dict__["_lowered"].func))
    lowered.__set_name__(MetricLieAlgebra, "_lowered")
    monkeypatch.setattr(MetricLieAlgebra, "_lowered", lowered)
    return counts


def test_a_second_pass_on_one_metric_algebra_builds_no_rows_index_or_tensor(monkeypatch):
    # One paper pass: the isotropy algebra, its witness checks, the linear
    # certificate and its polarized check, then the necessary condition.
    example = build_example("paper_2_3")
    counts = _count_builds(monkeypatch)
    per_pass = []
    for _ in range(2):
        before = counts.copy()
        assert verify_paper_example(example).passed
        assert necessary_condition_check(example.algebra).passed
        per_pass.append(counts - before)
    assert per_pass == [Counter({"skew rows": 1, "index": 2, "lowered": 1}), Counter()]


def test_an_equal_but_distinct_metric_algebra_checks_h_by_its_own_rows(paper, paper_iso, monkeypatch):
    m = paper.algebra
    twin, _ = algebra_from_dict(algebra_to_dict(m))
    assert twin == m and twin is not m
    counts = _count_builds(monkeypatch)
    for _ in range(2):
        check_subisotropy(twin, paper_iso)
    assert counts == Counter({"skew rows": 1, "index": 2})
