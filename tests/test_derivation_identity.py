"""``jacobi_defect`` and ``derivation_defects`` against one bracket-loop oracle each.

``jacobi_defect`` and ``derivation_defects`` read the sparse derivation rows
off the bracket table; ``oracles.jacobi_defect_by_brackets`` and
``oracles.derivation_defect_by_brackets`` evaluate the same identities with
generic brackets on basis vectors.  Each property asserts that both of its
outcomes (identity holds, identity fails) were reached.
"""

from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from gonil.catalog import EXAMPLE_NAMES, build_example
from gonil.isotropy import derivation_defects
from gonil.lie import JacobiError, LieAlgebra, jacobi_defect
from gonil.linalg import DimensionMismatch, Matrix
from oracles import ad_by_table, derivation_defect_by_brackets, jacobi_defect_by_brackets

SMALL = st.sampled_from([0, 0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])
KINDS = st.sampled_from(["inner", "sparse", "both"])
ALGEBRAS = {name: build_example(name).algebra.algebra for name in EXAMPLE_NAMES}


@st.composite
def antisymmetric_tables(draw):
    """A random rational table on dimension 2..6: sparse, so some tables satisfy Jacobi."""
    n = draw(st.integers(2, 6))
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.integers(0, 3)) == 0:
                table[(i, j)] = {k: draw(SMALL) for k in range(n) if draw(st.booleans())}
    return n, table


def test_jacobi_defect_matches_bracket_oracle():
    outcomes = set()

    @seed(20261018)
    @settings(max_examples=300, deadline=None, database=None)
    @given(antisymmetric_tables())
    def check(drawn):
        alg = LieAlgebra(*drawn, validate=False)
        expected = jacobi_defect_by_brackets(alg)
        assert jacobi_defect(alg) == expected  # triples, defect vectors and order
        outcomes.add(bool(expected))

    check()
    assert outcomes == {True, False}


def test_jacobi_defect_divides_the_cleared_sums_by_the_common_denominator_squared():
    # Denominators 3, 5 and 4: the cleared view is 60 times the table, a multiple of none of them alone.
    table = {
        (0, 1): {2: Fraction(1, 3)},
        (0, 2): {3: Fraction(2, 5)},
        (1, 2): {3: Fraction(-3, 4)},
        (1, 3): {0: Fraction(1, 3)},
    }
    alg = LieAlgebra(4, table, validate=False)
    assert alg._den == 60
    zero = Fraction(0)
    # At (0, 1, 2) only [e_1, [e_2, e_0]] = (-2/5)(1/3) e_0 survives,
    # at (1, 2, 3) only [e_2, [e_3, e_1]] = (1/3)(2/5) e_3.
    expected = [((0, 1, 2), (Fraction(-2, 15), zero, zero, zero)), ((1, 2, 3), (zero, zero, zero, Fraction(2, 15)))]
    assert jacobi_defect(alg) == jacobi_defect_by_brackets(alg) == expected
    with pytest.raises(JacobiError, match=r"^Jacobi identity fails at 2 triple\(s\), e\.g\. \(0, 1, 2\), \(1, 2, 3\)$"):
        LieAlgebra(4, table)


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_jacobi_defect_empty_on_catalog(name):
    assert jacobi_defect(ALGEBRAS[name]) == jacobi_defect_by_brackets(ALGEBRAS[name]) == []


def test_derivation_defect_matches_bracket_oracle():
    outcomes = set()

    @seed(20261018)
    @settings(max_examples=300, deadline=None, database=None)
    @given(name=st.sampled_from(EXAMPLE_NAMES), kinds=st.lists(KINDS, min_size=1, max_size=3), data=st.data())
    def check(name, kinds, data):
        alg = ALGEBRAS[name]
        n = alg.dim
        ops = []
        for kind in kinds:
            op = Matrix.zeros(n, n)
            if kind != "sparse":  # the inner derivation ad(x)
                op = op + ad_by_table(alg, data.draw(st.lists(SMALL, min_size=n, max_size=n)))
            if kind != "inner":
                cells = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), SMALL), max_size=3))
                entries = [[0] * n for _ in range(n)]
                for l, k, c in cells:
                    entries[l][k] = c
                op = op + Matrix(entries)
            ops.append(op)
        expected = [derivation_defect_by_brackets(alg, op) for op in ops]
        assert derivation_defects(alg, ops) == expected
        outcomes.update(defect is None for defect in expected)

    check()
    assert outcomes == {True, False}


def test_derivation_defect_refuses_a_wrong_size():
    with pytest.raises(DimensionMismatch):
        derivation_defects(ALGEBRAS["heis3"], [Matrix.zeros(2, 2)])
    with pytest.raises(DimensionMismatch):
        derivation_defects(ALGEBRAS["heis3"], [Matrix.zeros(3, 3), Matrix.zeros(2, 2)])

