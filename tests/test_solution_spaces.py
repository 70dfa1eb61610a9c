"""Every subspace cut out by linear equations against the dense construction it replaced.

``Subspace.solving`` is the one constructor for such subspaces: centralizers,
transporters, intersections, orthogonal complements and radicals hand it their
equations as sparse rows.  It is checked against
``oracles.kernel_by_naive_rref``, which shares no code with the integer core.
``oracles`` also keeps the earlier bodies, which stacked dense products into
one matrix, took its kernel and answered empty inputs separately; each property
compares a rewritten function with its oracle on random rational subspaces,
the zero and the full subspace included, of catalog algebras and of random
small nilpotent metric algebras, and asserts that every outcome was reached.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import random_nilpotent_table, sheared_gram, sparse_rows
from gonil.catalog import EXAMPLE_NAMES, build_example
from gonil.lie import LieAlgebra, centralizer, lower_central_series, transporter
from gonil.linalg import DimensionMismatch, Matrix, Subspace
from gonil.metric import MetricLieAlgebra, SymForm, orth_complement, radical_of_restriction
from oracles import (
    annihilator_by_kernel,
    centralizer_by_stacked_ads,
    dot,
    intersect_by_stacked_annihilators,
    kernel_by_naive_rref,
    orth_complement_by_product,
    radical_by_kernel,
    radical_of_restriction_by_restricted_kernel,
    transporter_by_stacked_products,
)

CATALOG = [build_example(name).algebra for name in EXAMPLE_NAMES]
SETTINGS = settings(max_examples=150, deadline=None, database=None)


@st.composite
def metric_algebras(draw):
    """A catalog entry, or a random nilpotent algebra of dimension 1..6 with a sheared form, degenerate now and then."""
    if draw(st.booleans()):
        return draw(st.sampled_from(CATALOG))
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(1, 6))
    diagonal = draw(st.lists(st.sampled_from([1, 1, -1, -1, 2, Fraction(1, 2), 0]), min_size=n, max_size=n))
    return MetricLieAlgebra(LieAlgebra(n, random_nilpotent_table(rng, n)), SymForm(sheared_gram(rng, diagonal)))


@st.composite
def subspaces(draw, m):
    """The zero or the full subspace, a term of the lower central series, or the span of random sparse rows."""
    n = m.dim
    kind = draw(st.sampled_from(["zero", "full", "series", "span", "span"]))
    if kind == "zero":
        return Subspace.zero(n)
    if kind == "full":
        return Subspace.full(n)
    if kind == "series":
        return draw(st.sampled_from(lower_central_series(m.algebra)))
    return Subspace.span(n, draw(sparse_rows(draw(st.integers(1, n)), n)))


def test_solving_matches_the_naive_kernel():
    outcomes = set()

    @seed(20261018)
    @settings(max_examples=300, deadline=None, database=None)
    @given(ncols=st.integers(0, 6), nrows=st.integers(0, 5), data=st.data())
    def check(ncols, nrows, data):
        rows = data.draw(sparse_rows(nrows, ncols))
        repeats = [rows[i] for i in data.draw(st.lists(st.integers(0, nrows - 1), max_size=2))] if rows else []
        rows += repeats
        expected = kernel_by_naive_rref(Matrix(rows, ncols=ncols))
        sparse = [[(j, x) for j, x in enumerate(row) if x] for row in rows]
        # Each entry x at column j also given as x - y there and, after the row's other entries, y there again.
        split = data.draw(st.lists(st.sampled_from([0, 1, -1, Fraction(1, 2)]), min_size=ncols, max_size=ncols))
        tail = [(j, y) for j, y in enumerate(split) if y]
        repeated = [[(j, x - y) for j, (x, y) in enumerate(zip(row, split))] + tail for row in rows]
        for given_rows in (sparse, map(enumerate, rows), repeated):
            space = Subspace.solving(ncols, given_rows)
            assert space.basis == expected
        assert all(dot(x, row) == 0 for x in space.basis.rows for row in rows)
        outcomes.add("zero" if space.dim == 0 else "full" if space.dim == ncols else "proper")
        outcomes.add("no rows" if not rows else "duplicate rows" if repeats else "rows")
        if rows and any(split):
            outcomes.add("repeated columns")

    check()
    assert outcomes == {"zero", "proper", "full", "no rows", "duplicate rows", "rows", "repeated columns"}


def test_centralizer_and_transporter_match_stacked_oracles():
    outcomes = set()

    @seed(20261018)
    @SETTINGS
    @given(data=st.data())
    def check(data):
        m = data.draw(metric_algebras())
        v, w = data.draw(subspaces(m)), data.draw(subspaces(m))
        got = centralizer(m.algebra, v)
        assert got == centralizer_by_stacked_ads(m.algebra, v)
        moved = transporter(m.algebra, v, w)
        assert moved == transporter_by_stacked_products(m.algebra, v, w)
        assert got <= moved
        outcomes.add(("centralizer", "full" if got.dim == m.dim else "proper"))
        outcomes.add(("transporter", "full" if moved.dim == m.dim else "proper"))

    check()
    assert outcomes >= {
        ("centralizer", "proper"),
        ("centralizer", "full"),
        ("transporter", "proper"),
        ("transporter", "full"),
    }


def test_transporter_weighs_every_annihilator_entry():
    # With W of codimension 1 or 2, W's annihilator rows have several nonzero entries of
    # different values, and the transporter often lies strictly between V's centralizer
    # and the whole algebra, where it depends on those values, not just on where they sit.
    outcomes = set()

    @seed(20261018)
    @settings(max_examples=100, deadline=None, database=None)
    @given(n=st.integers(3, 6), codim=st.integers(1, 2), vdim=st.integers(1, 3), data=st.data())
    def check(n, codim, vdim, data):
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        alg = LieAlgebra(n, random_nilpotent_table(rng, n))
        v, w = (
            Subspace.span(n, [[rng.choice([0, 0, 1, -1, 2, Fraction(1, 2)]) for _ in range(n)] for _ in range(k)])
            for k in (vdim, n - codim)
        )
        moved = transporter(alg, v, w)
        assert moved == transporter_by_stacked_products(alg, v, w)
        outcomes.add("full" if moved.dim == n else "centralizer" if moved == centralizer(alg, v) else "between")

    check()
    assert outcomes == {"full", "centralizer", "between"}


def test_intersection_and_annihilator_match_stacked_oracles():
    outcomes = set()

    @seed(20261018)
    @SETTINGS
    @given(data=st.data())
    def check(data):
        m = data.draw(metric_algebras())
        v, w = data.draw(subspaces(m)), data.draw(subspaces(m))
        assert v.annihilator().basis == annihilator_by_kernel(v)
        meet = v.intersect(w)
        assert meet == intersect_by_stacked_annihilators(v, w)
        assert meet <= v and meet <= w
        outcomes.add("trivial" if meet.dim == 0 else "nontrivial")

    check()
    assert outcomes == {"trivial", "nontrivial"}


def test_orth_complement_and_radicals_match_dense_oracles():
    outcomes = set()

    @seed(20261018)
    @SETTINGS
    @given(data=st.data())
    def check(data):
        m = data.draw(metric_algebras())
        v = data.draw(subspaces(m))
        perp = orth_complement(m, v)
        assert perp == orth_complement_by_product(m, v)
        rad = radical_of_restriction(m, v)
        assert rad == radical_of_restriction_by_restricted_kernel(m, v)
        form_rad = m.form.radical()
        assert form_rad == radical_by_kernel(m.form)
        outcomes.add(("perp", "full" if perp.dim == m.dim else "proper"))
        outcomes.add(("restricted radical", "zero" if rad.dim == 0 else "nonzero"))
        outcomes.add(("form radical", "zero" if form_rad.dim == 0 else "nonzero"))

    check()
    assert outcomes == {
        ("perp", "full"),
        ("perp", "proper"),
        ("restricted radical", "zero"),
        ("restricted radical", "nonzero"),
        ("form radical", "zero"),
        ("form radical", "nonzero"),
    }


def test_the_rewritten_paths_refuse_a_foreign_subspace(heis3):
    alg, outside = heis3.algebra, Subspace.full(4)
    for call in (
        lambda: centralizer(alg, outside),
        lambda: transporter(alg, Subspace.full(3), outside),
        lambda: orth_complement(heis3, outside),
        lambda: radical_of_restriction(heis3, outside),
        lambda: Subspace.full(3).intersect(outside),
    ):
        with pytest.raises(DimensionMismatch):
            call()


def test_a_foreign_zero_subspace_is_refused_before_any_product(heis3):
    # The zero subspace has no basis rows, so no product with G ever sees its length.
    for call in (orth_complement, radical_of_restriction):
        with pytest.raises(DimensionMismatch):
            call(heis3, Subspace.zero(4))
