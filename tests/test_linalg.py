import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from gonil.linalg import (
    DimensionMismatch,
    Matrix,
    _kernel_of_rows,
    _solve_rows,
    Subspace,
    congruence_diagonalize,
    rational_sqrt,
    rref,
    solve_particular,
    symmetric_signature,
    to_vec,
)
from conftest import ENTRY, sparse_rows
from oracles import (
    contains_by_elimination,
    coordinates_by_solve,
    dense_product,
    kernel_by_naive_rref,
    naive_rref,
    random_invertible_matrix,
    random_rational_matrix,
    random_symmetric_matrix,
    signature_by_descartes,
    signature_by_random_congruence,
)


def null_basis(a):
    """The canonical basis of {x : a x = 0}, solved by Subspace.solving."""
    return Subspace.solving(a.ncols, map(enumerate, a.rows)).basis


def test_solve_identity():
    assert solve_particular(Matrix.identity(3), [1, 2, 3]) == to_vec([1, 2, 3])
    assert null_basis(Matrix.identity(3)).nrows == 0


def test_solve_inconsistent_rows():
    a = Matrix([[1, 1], [1, 1]])
    assert solve_particular(a, [0, 1]) is None


def test_solve_random_invertible_by_substitution():
    rng = random.Random(42)
    for _ in range(20):
        a = random_invertible_matrix(rng, 3)
        b = to_vec([rng.randint(-9, 9) for _ in range(3)])
        x = solve_particular(a, b)
        assert x is not None
        assert a @ x == b
        assert null_basis(a).nrows == 0


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        solve_particular(Matrix.identity(3), [1, 2])


@pytest.mark.parametrize(
    "rows",
    [
        [[(3, 1)]],  # used to wrap to x_0 under the kernel's reversed columns
        [[(-1, 1)]],
        [[(0, 1), (3, 2)], [(0, 2), (3, 4)]],  # the second row cancels
        [[(0, 1), (-1, 2)], [(1, 1), (-1, 2)]],  # never a pivot
    ],
)
def test_solving_refuses_a_column_outside_the_ambient_space(rows):
    with pytest.raises(DimensionMismatch):
        Subspace.solving(3, rows)


@pytest.mark.parametrize(
    "rows, basis",
    [
        ([[(0, 1), (0, -1), (1, 1)]], [[1, 0]]),  # x_0 - x_0 + x_1 = 0, not -x_0 + x_1 = 0
        ([[(1, 1), (0, 1), (1, Fraction(1, 2))]], [[1, Fraction(-2, 3)]]),
        ([[(0, 2), (1, 1), (0, -2)], [(1, 0), (0, 0)]], [[1, 0]]),
    ],
)
def test_solving_sums_a_repeated_column(rows, basis):
    assert Subspace.solving(2, rows).basis == Matrix(basis, ncols=2)


@pytest.mark.parametrize("rows", [[{-1: 1}], [{0: 1, 5: 1}, {0: 2, 5: 2}], [{0: 1, -1: 1}]])
def test_solve_rows_refuses_a_column_outside_the_system(rows):
    # {-1: 1} used to land on the right-hand side and read as infeasible.
    with pytest.raises(DimensionMismatch, match=r"^row column outside 0\.\.3$"):
        _solve_rows(rows, 3)


def test_kernel_zero_matrix():
    assert null_basis(Matrix.zeros(2, 3)).nrows == 3


def test_kernel_identity():
    assert null_basis(Matrix.identity(4)).nrows == 0


def test_kernel_single_row_by_substitution():
    a = Matrix([[1, 2, 3]])
    k = null_basis(a)
    assert k.nrows == 2
    for v in k.rows:
        assert not any(a @ v)


def test_solve_and_kernel_back_substitution_random():
    # 100 random systems, mixed shapes; exactness is the whole point.
    rng = random.Random(7)
    for _ in range(100):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        a = random_rational_matrix(rng, nrows, ncols)
        x0 = to_vec([Fraction(rng.randint(-5, 5), rng.randint(1, 2)) for _ in range(ncols)])
        b = a @ x0
        x = solve_particular(a, b)
        assert x is not None, "consistent by construction"
        assert a @ x == b
        ker = null_basis(a)
        for v in ker.rows:
            assert not any(a @ v)
        assert len(rref(a).pivots) + ker.nrows == ncols


def test_rref_matches_naive_fraction_reference():
    rng = random.Random(555)
    for _ in range(60):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        m = Matrix(
            [
                [Fraction(rng.randint(-50, 50), rng.randint(1, 17)) for _ in range(nc)]
                for _ in range(nr)
            ],
            ncols=nc,
        )
        assert rref(m) == naive_rref(m)


def test_signature_on_degenerate_low_rank_forms():
    rng = random.Random(556)
    for _ in range(30):
        n = rng.randint(3, 7)
        r = rng.randint(1, n - 1)
        b = Matrix([[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(r)], ncols=n)
        signs = Matrix(
            [[Fraction(rng.choice((1, -1))) if i == j else Fraction(0) for j in range(r)] for i in range(r)]
        )
        g = b.transpose() @ signs @ b
        sig = symmetric_signature(g)
        assert sig == signature_by_descartes(g)
        assert sig.r >= n - r


def test_rref_canonical_and_idempotent():
    rng = random.Random(3)
    for _ in range(25):
        m = random_rational_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        red, pivots = rref(m)
        again, pivots2 = rref(red)
        assert red == again and pivots == pivots2
        for i, pc in enumerate(pivots):
            assert red[i, pc] == 1
            assert all(red[r, pc] == 0 for r in range(red.nrows) if r != i)


def test_signature_diag():
    assert symmetric_signature(Matrix([[1, 0, 0], [0, 1, 0], [0, 0, -1]])) == (2, 1, 0)


def test_signature_hyperbolic_plane():
    assert symmetric_signature(Matrix([[0, 1], [1, 0]])) == (1, 1, 0)


def test_signature_rejects_asymmetric():
    with pytest.raises(ValueError):
        symmetric_signature(Matrix([[0, 1], [2, 0]]))
    with pytest.raises(ValueError):
        congruence_diagonalize(Matrix([[0, 1], [2, 0]]))


def test_signature_lorentz_block_form():
    # antidiagonal ones framing an identity block: one hyperbolic plane plus
    # two positive directions
    g = Matrix([[0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0]])
    assert symmetric_signature(g) == (3, 1, 0)


def test_signature_eight_dim_block_form():
    # blocks (2,1,2,1,2): two hyperbolic pairs, a third plane, and I_2
    g = [[0] * 8 for _ in range(8)]
    for a, b in ((0, 6), (1, 7), (2, 5)):
        g[a][b] = g[b][a] = 1
    g[3][3] = g[4][4] = 1
    assert symmetric_signature(Matrix(g)) == (5, 3, 0)


def test_signature_agrees_with_oracles_on_random_instances():
    rng = random.Random(2024)
    for _ in range(100):
        n = rng.randint(2, 6)
        g = random_symmetric_matrix(rng, n)
        sig = symmetric_signature(g)
        assert sig == signature_by_descartes(g)
        assert sig == signature_by_random_congruence(g, rng)
        assert sig.p + sig.q + sig.r == n


def test_signature_congruence_invariance():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(2, 4)
        g = random_symmetric_matrix(rng, n)
        p = random_invertible_matrix(rng, n)
        assert symmetric_signature(p.transpose() @ g @ p) == symmetric_signature(g)


def test_congruence_diagonalize_certifies_itself():
    rng = random.Random(5)
    for _ in range(25):
        g = random_symmetric_matrix(rng, rng.randint(1, 5))
        basis, diag = congruence_diagonalize(g)
        prod = basis @ g @ basis.transpose()
        for i in range(g.nrows):
            for j in range(g.nrows):
                assert prod[i, j] == (diag[i] if i == j else 0)


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-1)) is None


def test_subspace_sum_intersection_dims():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(2, 6)
        v = Subspace.span(n, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))])
        w = Subspace.span(n, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))])
        s, t = v.plus(w), v.intersect(w)
        assert s.dim + t.dim == v.dim + w.dim
        assert t <= v and t <= w and v <= s and w <= s


def test_subspace_membership_and_coordinates():
    v = Subspace.span(4, [[1, 0, 2, 0], [0, 1, -1, 0]])
    assert v.contains_vector([2, 3, 1, 0])
    assert not v.contains_vector([0, 0, 0, 1])
    coords = v.coordinates([2, 3, 1, 0])
    assert coords is not None
    recovered = [Fraction(0)] * 4
    for c, row in zip(coords, v.basis.rows):
        recovered = [a + c * b for a, b in zip(recovered, row)]
    assert tuple(recovered) == to_vec([2, 3, 1, 0])


def test_span_and_from_vector_convert_once_and_build_no_checked_matrix(monkeypatch):
    rng = random.Random(17)
    spans = [(3, []), (3, [(0, 0, 0)]), (2, [[1, 2], (Fraction(1, 2), 1)]), (3, [(0, 2, 1), (0, 0, 5), (0, 2, 6)])]
    spans += [(5, random_rational_matrix(rng, 4, 5).rows), (4, [[rng.randint(-3, 3) for _ in range(4)] for _ in range(6)])]
    vectors = [((7,), 1), ([1, 0, Fraction(2, 3), -4], 2), (random_rational_matrix(rng, 1, 9).row(0), 3)]
    bad = [lambda: Subspace.span(3, [(1, 2, 3), (1, 2)]), lambda: Matrix.from_vector([1, 2, 3], 2)]

    def run():
        errors = []
        for call in bad:
            with pytest.raises(DimensionMismatch) as exc:
                call()
            errors.append(str(exc.value))
        return [Subspace.span(n, vecs) for n, vecs in spans], [Matrix.from_vector(v, n) for v, n in vectors], errors

    before = run()
    assert before[2] == ["spanning vector has wrong length", "vector length is not n*n"]

    def refuse(self, *args, **kwargs):
        raise AssertionError("Matrix.__init__ was called")

    monkeypatch.setattr(Matrix, "__init__", refuse)
    after = run()
    assert after == before
    assert [m.rows for m in after[1]] == [m.rows for m in before[1]]
    assert all(type(a) is Fraction for m in after[1] for r in m.rows for a in r)
    assert all(type(a) is Fraction for s in after[0] for r in s.basis.rows for a in r)


def test_subspace_complement_rows():
    big = Subspace.span(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    small = Subspace.span(4, [[0, 1, 1, 0]])
    comp = small.complement_within(big).basis
    assert comp.nrows == 2
    rebuilt = Subspace.span(4, list(comp.rows) + list(small.basis.rows))
    assert rebuilt == big


def _assert_fraction_entries(rows):
    assert all(type(x) is Fraction for row in rows for x in row)


@seed(20261018)
@settings(max_examples=150, deadline=None, database=None)
@given(shape=st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)), data=st.data())
def test_matmul_matches_dense_oracle(shape, data):
    r, k, c = shape
    a_rows = data.draw(sparse_rows(r, k))
    b_rows = data.draw(sparse_rows(k, c))
    a, b = Matrix(a_rows, ncols=k), Matrix(b_rows, ncols=c)
    product = a @ b
    expected = Matrix(dense_product(a.rows, b.rows, c), ncols=c)
    assert (product.nrows, product.ncols) == (r, c)
    _assert_fraction_entries(product.rows)
    assert product == expected and hash(product) == hash(expected)

    vec = data.draw(st.lists(ENTRY, min_size=k, max_size=k))
    image = a @ vec
    assert image == tuple(row[0] for row in dense_product(a.rows, [[x] for x in to_vec(vec)], 1))
    _assert_fraction_entries([image])


@seed(20261018)
@settings(max_examples=100, deadline=None, database=None)
@given(shape=st.tuples(st.integers(0, 5), st.integers(0, 5)), data=st.data())
def test_sum_difference_and_commutator_match_dense_oracle(shape, data):
    r, c = shape
    a = Matrix(data.draw(sparse_rows(r, c)), ncols=c)
    b = Matrix(data.draw(sparse_rows(r, c)), ncols=c)
    for got, op in ((a + b, operator.add), (a - b, operator.sub)):
        expected = Matrix([[op(x, y) for x, y in zip(s, t)] for s, t in zip(a.rows, b.rows)], ncols=c)
        _assert_fraction_entries(got.rows)
        assert got == expected and hash(got) == hash(expected)
    with pytest.raises(DimensionMismatch):
        a - Matrix.zeros(r + 1, c)
    x = Matrix(data.draw(sparse_rows(c, c)), ncols=c)
    y = Matrix(data.draw(sparse_rows(c, c)), ncols=c)
    xy, yx = dense_product(x.rows, y.rows, c), dense_product(y.rows, x.rows, c)
    expected = Matrix([[p - q for p, q in zip(s, t)] for s, t in zip(xy, yx)], ncols=c)
    got = x @ y - y @ x
    _assert_fraction_entries(got.rows)
    assert got == expected and hash(got) == hash(expected)


def test_subspace_coordinates_match_elimination_oracles():
    outcomes = set()

    @seed(20261018)
    @settings(max_examples=200, deadline=None, database=None)
    @given(shape=st.tuples(st.integers(0, 6), st.integers(1, 9)), data=st.data())
    def check(shape, data):
        k, n = shape
        space = Subspace.span(n, data.draw(sparse_rows(k, n)))
        coeffs = data.draw(st.lists(ENTRY, min_size=space.dim, max_size=space.dim))
        member = space.basis.transpose() @ coeffs
        assert space.coordinates(member) == to_vec(coeffs)
        for vec in (member, data.draw(st.lists(ENTRY, min_size=n, max_size=n))):
            expected = coordinates_by_solve(space, vec)
            assert space.coordinates(vec) == expected
            assert space.contains_vector(vec) == contains_by_elimination(space, vec) == (expected is not None)
            outcomes.add(expected is not None)

    check()
    assert outcomes == {True, False}


def _oracle_annihilator(basis: Matrix) -> Matrix:
    """The rows y with basis y = 0, by the naive oracle; the identity for the zero subspace."""
    return kernel_by_naive_rref(basis) if basis.nrows else Matrix.identity(basis.ncols)


def test_sparse_store_matches_naive_rref_subspaces():
    # Every constructor stores the oracle's reduced rows as their nonzero entries; basis rebuilds its matrix.
    outcomes = set()

    @seed(20261019)
    @settings(max_examples=150, deadline=None, database=None)
    @given(shape=st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(1, 7)), data=st.data())
    def check(shape, data):
        ka, kb, n = shape
        a, b = Matrix(data.draw(sparse_rows(ka, n)), ncols=n), Matrix(data.draw(sparse_rows(kb, n)), ncols=n)
        va, vb = Subspace.span(n, a.rows), Subspace.span(n, b.rows)
        span_a, span_b = naive_rref(a)[0], naive_rref(b)[0]
        stacked = Matrix(a.rows + b.rows, ncols=n)
        annihilators = Matrix(_oracle_annihilator(span_a).rows + _oracle_annihilator(span_b).rows, ncols=n)
        cases = [
            (Subspace.solving(n, map(enumerate, a.rows)), kernel_by_naive_rref(a)),
            (va, span_a),
            (vb, span_b),
            (va.plus(vb), naive_rref(stacked)[0]),
            (va.intersect(vb), kernel_by_naive_rref(annihilators)),
        ]
        for got, expected in cases:
            assert got.rows == tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in expected.rows)
            assert got.basis == expected
            assert got.pivots == naive_rref(expected)[1]
        spaces = [got for got, _ in cases] + [Subspace.from_basis(n, expected) for _, expected in cases]
        for x in spaces:
            for y in spaces:
                assert (x == y) == (x.basis == y.basis)
                assert x != y or hash(x) == hash(y)
                outcomes.add(x == y)
        outcomes.add("meet" if cases[-1][0].dim else "no meet")

    check()
    assert outcomes == {True, False, "meet", "no meet"}


@pytest.mark.parametrize(
    "rows",
    [[[1, 1], [0, 1]], [[2, 0]], [[0, 1], [1, 0]], [[1, 0], [0, 0]], [[1, 0], [1, 0]], [[1, 1], [0, 0]]],
)
def test_subspace_refuses_a_basis_not_in_reduced_echelon_form(rows):
    with pytest.raises(ValueError, match="not in reduced echelon form"):
        Subspace.from_basis(2, Matrix(rows, ncols=2))


@pytest.mark.parametrize(
    "rows",  # each case is (den, rows), the int form Subspace(n, den, entries) takes
    [
        (1, ((),)),  # an empty row
        (1, (((0, 2),),)),  # a leading entry other than the scale
        (1, (((0, 1), (1, 0)),)),  # a stored zero
        (1, (((0, 1), (2, 1), (1, 1)),)),  # columns out of order
        (1, (((0, 1), (1, 1), (1, 2)),)),  # a column twice
        (1, (((1, 1),), ((0, 1),))),  # pivots out of order
        (1, (((0, 1), (1, 3)), ((1, 1),))),  # another row's pivot column
        (2, (((0, 2), (1, 4)),)),  # a scale other than the least: (1, 2) at scale 1
        (1, (((0, 1), (1, Fraction(1, 2))),)),  # a rational entry: (1, 1/2) is stored at scale 2
    ],
)
def test_subspace_refuses_sparse_rows_not_in_reduced_echelon_form(rows):
    with pytest.raises(ValueError, match="not in reduced echelon form"):
        Subspace(3, *rows)


@pytest.mark.parametrize("rows", [(((3, 1),),), (((-1, 1), (0, 2)),), (((0, 1), (5, 2)),)])
def test_subspace_refuses_a_sparse_column_outside_the_space(rows):
    with pytest.raises(DimensionMismatch, match=r"^subspace row column outside 0\.\.2$"):
        Subspace(3, 1, rows)


def _stored(oracle: Matrix) -> tuple[int, tuple]:
    """Dense oracle rows as a Subspace stores them: their least common denominator L, each row's nonzeros times L."""
    den = math.lcm(*(x.denominator for row in oracle.rows for x in row))
    return den, tuple(tuple((j, int(x * den)) for j, x in enumerate(row) if x) for row in oracle.rows)


def test_span_and_solving_store_the_oracle_rows_at_their_least_scale():
    # The stored form is canonical: the oracle's reduced rows at their least
    # common denominator, whatever the order of the rows given.
    scales = set()

    @seed(20261020)
    @settings(max_examples=25, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(a=_sparse_system(), data=st.data())
    def check(a, data):
        shuffled = [a.rows[i] for i in data.draw(st.permutations(range(a.nrows)))]
        for build, oracle in (
            (lambda rows: Subspace.span(a.ncols, rows), naive_rref(a)[0]),
            (lambda rows: Subspace.solving(a.ncols, map(enumerate, rows)), kernel_by_naive_rref(a)),
        ):
            space, again = build(a.rows), build(shuffled)
            assert (space.den, space.entries) == _stored(oracle)
            assert space.rows == tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in oracle.rows)
            assert space == again and hash(space) == hash(again)
            scales.add(space.den > 1)

    check()
    assert scales == {True, False}


@pytest.mark.parametrize("ncols", [3, 6])
def test_subspace_refuses_a_basis_of_another_width(ncols):
    # A 3-wide row in a 5-dim space would read as "dim 1 of 5", unequal to its own span.
    rows = [[1, 0, 2] + [0] * (ncols - 3)]
    with pytest.raises(DimensionMismatch, match="^subspace basis width differs from its ambient dimension$"):
        Subspace.from_basis(5, Matrix(rows, ncols=ncols))
    assert Subspace.from_basis(ncols, Matrix(rows, ncols=ncols)) == Subspace.span(ncols, rows)


def test_solve_particular_is_none_exactly_when_b_raises_the_rank():
    rng = random.Random(29)
    infeasible = 0
    for _ in range(60):
        nrows, ncols = rng.randint(0, 5), rng.randint(1, 5)
        a = random_rational_matrix(rng, nrows, ncols, bound=2)
        b = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(nrows)]
        x = solve_particular(a, b)
        aug = Matrix([row + (bi,) for row, bi in zip(a.rows, b)], ncols=ncols + 1)
        if x is None:
            infeasible += 1
            assert len(rref(aug).pivots) > len(rref(a).pivots)
        else:
            assert a @ x == to_vec(b) and len(rref(aug).pivots) == len(rref(a).pivots)
    assert infeasible > 0


@st.composite
def _sparse_system(draw):
    """A rational matrix up to 40 x 60, mostly zeros, with whole rows and columns zeroed."""
    nrows, ncols = draw(st.integers(0, 40)), draw(st.integers(1, 60))
    density = draw(st.sampled_from([0.05, 0.15, 0.3]))
    rng = draw(st.randoms(use_true_random=False))
    zero_rows = draw(st.sets(st.integers(0, max(nrows - 1, 0)), max_size=3))
    zero_cols = draw(st.sets(st.integers(0, ncols - 1), max_size=3))
    rows = [
        [
            Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 4]), rng.randint(1, 4))
            if i not in zero_rows and j not in zero_cols and rng.random() < density
            else Fraction(0)
            for j in range(ncols)
        ]
        for i in range(nrows)
    ]
    return Matrix(rows, ncols=ncols)


def _solution_by_naive_rref(a, b):
    red, pivots = naive_rref(Matrix([row + (bi,) for row, bi in zip(a.rows, b)], ncols=a.ncols + 1))
    if pivots and pivots[-1] == a.ncols:
        return None
    x = [Fraction(0)] * a.ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r, a.ncols]
    return tuple(x)


def test_elimination_matches_naive_rref_on_sparse_systems():
    outcomes, zeros = set(), set()

    @seed(20261018)
    @settings(max_examples=40, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(a=_sparse_system(), consistent=st.booleans(), data=st.data())
    def check(a, consistent, data):
        assert rref(a) == naive_rref(a)
        ker = null_basis(a)
        assert ker == kernel_by_naive_rref(a)
        assert len(rref(a).pivots) + ker.nrows == a.ncols
        if consistent:
            b = a @ data.draw(st.lists(ENTRY, min_size=a.ncols, max_size=a.ncols))
        else:
            b = to_vec(data.draw(st.lists(ENTRY, min_size=a.nrows, max_size=a.nrows)))
        x = solve_particular(a, b)
        assert x == _solution_by_naive_rref(a, b)
        assert consistent <= (x is not None)
        outcomes.add(x is not None)

        # The integer entries, on the same rows each cleared to {column: int}, zero entries dropped: the kernel
        # entry (without the rhs) returns the oracle kernel's nonzero entries, and the solve that certificates use x.
        scales = [math.lcm(bi.denominator, *(v.denominator for v in row)) for row, bi in zip(a.rows, b)]
        cleared = [[(j, int(v * s)) for j, v in enumerate((*row, bi))] for row, bi, s in zip(a.rows, b, scales)]
        oracle = tuple(tuple((j, v) for j, v in enumerate(row) if v) for row in kernel_by_naive_rref(a).rows)
        den = math.lcm(*(v.denominator for row in oracle for _, v in row))  # the oracle rows as a Subspace stores them
        stored = (den, tuple(tuple((j, int(v * den)) for j, v in row) for row in oracle))
        assert _kernel_of_rows([{j: v for j, v in row[:-1] if v}.items() for row in cleared], a.ncols) == stored
        assert _solve_rows([{j: v for j, v in row if v} for row in cleared], a.ncols) == x
        zeros.add(any(v == 0 for row in cleared for _, v in row))

    check()
    assert outcomes == {True, False} and True in zeros
