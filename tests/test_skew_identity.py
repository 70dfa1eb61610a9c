"""``isotropy.skew_defects`` against one oracle, ``oracles.skew_defect_by_products``.

``skew_defects`` evaluates the sparse rows of D^T G + G D that
the isotropy kernel solves; ``oracles.skew_defect_by_products`` forms the
same matrix with two dense products.  Since D^T G + G D is symmetric, its
first nonzero entry in row-major order has a <= b, so both name the same
entry.  Each property asserts that both outcomes (skew, not skew) were reached.
"""

from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from gonil.catalog import EXAMPLE_NAMES, build_example
from gonil.isotropy import isotropy_algebra, skew_defects, skew_space
from gonil.linalg import DimensionMismatch, Matrix, symmetric_signature
from gonil.metric import SymForm
from oracles import skew_defect_by_products

SMALL = st.sampled_from([0, 0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])
NONZERO = st.sampled_from([1, 2, Fraction(1, 3), Fraction(5, 2)])


@st.composite
def forms(draw):
    """A definite, indefinite or degenerate form: a diagonal moved by a sparse unipotent congruence."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["definite", "indefinite", "degenerate"]))
    diag = [draw(NONZERO) for _ in range(n)]
    if kind == "definite" and draw(st.booleans()):
        diag = [-x for x in diag]
    if kind == "indefinite":
        if n == 1:
            kind = "definite"
        else:
            neg = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
            diag = [-x if i in neg else x for i, x in enumerate(diag)]
    if kind == "degenerate":
        zero = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
        diag = [0 if i in zero else x * draw(st.sampled_from([1, -1])) for i, x in enumerate(diag)]
    p = [[1 if i == j else (draw(SMALL) if i < j else 0) for j in range(n)] for i in range(n)]
    gram = [[sum(p[k][i] * diag[k] * p[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    form = SymForm(Matrix(gram, ncols=n))
    sig = symmetric_signature(form.gram)
    if kind == "degenerate":
        assert sig.r > 0
    else:
        assert sig.r == 0 and (0 in (sig.p, sig.q)) == (kind == "definite")
    return kind, form


def test_skew_defects_match_the_dense_products():
    outcomes, kinds = set(), set()

    @seed(20261018)
    @settings(max_examples=300, deadline=None, database=None)
    @given(drawn=forms(), count=st.integers(1, 3), data=st.data())
    def check(drawn, count, data):
        kind, form = drawn
        n = form.dim
        skew = skew_space(form).basis
        ops = []
        for _ in range(count):
            op = Matrix.zeros(n, n)
            for c, s in zip(data.draw(st.lists(SMALL, min_size=len(skew), max_size=len(skew))), skew):
                op = op + s.scale(c)
            cells = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), SMALL), max_size=3))
            entries = [[0] * n for _ in range(n)]
            for a, b, c in cells:
                entries[a][b] = c
            ops.append(op + Matrix(entries))
        expected = [skew_defect_by_products(form, op) for op in ops]
        assert skew_defects(form, ops) == expected
        outcomes.update(defect is None for defect in expected)
        kinds.add(kind)

    check()
    assert outcomes == {True, False}
    assert kinds == {"definite", "indefinite", "degenerate"}


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_skew_defects_on_catalog_isotropy_bases(name, paper_iso):
    m = build_example(name).algebra
    basis = (paper_iso if name == "paper_2_3" else isotropy_algebra(m)).basis
    assert skew_defects(m.form, basis) == [skew_defect_by_products(m.form, op) for op in basis] == [None] * len(basis)
    n = m.dim
    perturbed = []
    for j, op in enumerate(basis):  # one entry moved, at a different cell per operator
        entries = [list(row) for row in op.rows]
        entries[j % n][(3 * j + 1) % n] += 1
        perturbed.append(Matrix(entries))
    expected = [skew_defect_by_products(m.form, op) for op in perturbed]
    assert skew_defects(m.form, perturbed) == expected
    assert None not in expected  # a nondegenerate G makes every nonzero change break skewness


def test_skew_defects_refuse_a_wrong_size():
    form = SymForm(Matrix.identity(3))
    with pytest.raises(DimensionMismatch, match="operator size differs"):
        skew_defects(form, [Matrix.zeros(2, 2)])
    with pytest.raises(DimensionMismatch, match="operator size differs"):
        skew_defects(form, [Matrix.zeros(3, 3), Matrix.zeros(3, 2)])
