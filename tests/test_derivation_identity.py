"""``jacobi_defect``, ``derivation_rows`` and ``derivation_defects`` against one oracle each.

``jacobi_defect`` sums each stored bracket against the nonzero ad of its
targets, and ``derivation_rows`` walks the nonzero ad of each pair; both read
the algebra's sparse ``_ad``, and ``derivation_defects`` reads the listed
rows.  ``oracles.jacobi_defect_by_brackets`` and
``oracles.derivation_defect_by_brackets`` evaluate the same identities with
generic brackets on basis vectors, and
``oracles.derivation_rows_by_elementary_operators`` evaluates the derivation
identity densely on every elementary operator.  Each Jacobi and defect
property asserts that both of its outcomes (identity holds, identity fails)
were reached.
"""

from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from gonil.catalog import EXAMPLE_NAMES, build_example
from gonil.isotropy import derivation_defects
from gonil.lie import JacobiError, LieAlgebra, derivation_rows, jacobi_defect
from gonil.linalg import DimensionMismatch, Matrix
from oracles import (
    ad_by_table,
    derivation_defect_by_brackets,
    derivation_rows_by_elementary_operators,
    jacobi_defect_by_brackets,
)

SMALL = st.sampled_from([0, 0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])
KINDS = st.sampled_from(["inner", "sparse", "both"])
ALGEBRAS = {name: build_example(name).algebra.algebra for name in EXAMPLE_NAMES}


@st.composite
def antisymmetric_tables(draw):
    """A random rational table on dimension 2..9, each pair stored with odds 1, 1/2, 1/4 or 1/8: the sparse
    and small tables often satisfy Jacobi, the dense ones rarely."""
    n = draw(st.integers(2, 9))
    odds = draw(st.sampled_from((1, 2, 4, 8)))
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.integers(1, odds)) == 1:
                table[(i, j)] = {k: draw(SMALL) for k in range(n) if draw(st.booleans())}
    return n, table


def jacobi_terms(alg) -> set[str]:
    """Where the outer index a of the table's nonzero terms [e_a, [e_p, e_q]] = sum_t c_t [e_a, e_t], p < q, sits:
    below, between or above p and q, and "inside" when a target t is one of a, p, q; read off the rational table."""
    table = alg.table
    brackets = set(table) | {(j, i) for i, j in table}
    terms = set()
    for (p, q), targets in table.items():
        for t in targets:
            for a in range(alg.dim):
                if a not in (p, q) and (t, a) in brackets:
                    terms.add("below" if a < p else "between" if a < q else "above")
                    terms.update(["inside"] if t in (a, p, q) else [])
    return terms


def test_jacobi_defect_matches_bracket_oracle():
    outcomes, terms = set(), set()

    @seed(20261018)
    @settings(max_examples=300, deadline=None, database=None)
    @given(antisymmetric_tables())
    def check(drawn):
        alg = LieAlgebra(*drawn, validate=False)
        expected = jacobi_defect_by_brackets(alg)
        assert jacobi_defect(alg) == expected  # triples, defect vectors and order
        outcomes.add(bool(expected))
        terms.update(jacobi_terms(alg))

    check()
    assert outcomes == {True, False}
    assert terms == {"below", "between", "above", "inside"}  # each sign of the sum, and targets in the triple


def test_derivation_rows_match_the_elementary_operator_oracle():
    # Keys (i, j, m), row order, and each row's entries and int values; invalid tables included.
    @seed(20261020)
    @settings(max_examples=100, deadline=None, database=None)
    @given(antisymmetric_tables())
    def check(drawn):
        alg = LieAlgebra(*drawn, validate=False)
        rows = list(derivation_rows(alg))
        assert rows == derivation_rows_by_elementary_operators(alg)
        assert all(type(c) is int for _, row in rows for c in row.values())

    check()


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_validation_and_the_jacobi_check_list_no_derivation_rows(name):
    # The Jacobi sums read the sparse ad, so a fresh algebra keeps no rows, nor its series, until a reader lists them.
    alg = ALGEBRAS[name]
    fresh = LieAlgebra(alg.dim, alg.table, validate=True)
    assert "_derivation_rows" not in vars(fresh) and "_lower_central_series" not in vars(fresh)
    assert jacobi_defect(fresh) == []
    assert "_derivation_rows" not in vars(fresh) and "_lower_central_series" not in vars(fresh)
    broken = LieAlgebra(3, {(0, 1): {0: 1}, (1, 2): {1: 1}}, validate=False)
    assert jacobi_defect(broken) and "_derivation_rows" not in vars(broken)


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_ad_holds_exactly_the_nonzero_brackets(name):
    # _ad[i] is keyed by the j with [e_i, e_j] != 0 only, and shares the _table dicts.
    alg = ALGEBRAS[name]
    n = alg.dim
    for i in range(n):
        assert sorted(alg._ad[i]) == [j for j in range(n) if any(alg.bracket_basis(i, j))]
    assert all(alg._ad[i][j] is targets for (i, j), targets in alg._table.items())


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

