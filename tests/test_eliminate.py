"""The sparse integer core ``linalg._eliminate`` against the dense core it replaced.

``oracles.eliminate_dense`` recombines whole dense rows at every pivot; the
library's core inserts one row at a time over its nonzero entries and
back-reduces once.  Both return integer rows whose ratios are the reduced
echelon form, which is unique, so they must agree on the pivots and on each
row up to a nonzero factor.  The sparse core's rows are primitive with a
positive pivot entry, which makes them independent of the input order.

The library's core takes and returns each row as parallel lists of its
nonzero values and their columns; the dense oracle takes whole rows.  A small
adapter here converts between the two, so both are compared on dense rows.
Solves do not run the back-reduction: ``_solve_rows`` back-substitutes over
the inserted rows, and is compared with the solution read off the oracle's
reduced rows.  Kernels and row spaces first strip the columns that one-entry
rows force to zero (``linalg._presolve``); systems planted with such rows
check that step against both oracles.
"""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import gonil.go_engine as go_engine
import gonil.isotropy as isotropy
import gonil.linalg as linalg
from conftest import heisenberg, rescaled, sheared
from gonil.catalog import build_example
from oracles import eliminate_dense, kernel_by_naive_rref, naive_rref

BIG = 2**64
ENTRY = st.one_of(
    st.just(0),
    st.just(0),
    st.just(0),
    st.integers(-4, 4),
    st.builds(operator.mul, st.sampled_from([1, -1]), st.integers(BIG, 2**80)),
)


@st.composite
def integer_systems(draw):
    """Sparse integer rows, with zero rows, duplicates and integer combinations of earlier rows mixed in."""
    ncols = draw(st.integers(0, 7))
    base = draw(st.lists(st.lists(ENTRY, min_size=ncols, max_size=ncols), max_size=6))
    rows = [list(row) for row in base]
    for kind in draw(st.lists(st.sampled_from(["zero", "duplicate", "combination"]), max_size=3)):
        if kind == "zero":
            rows.append([0] * ncols)
        elif base:
            x, y = (base[draw(st.integers(0, len(base) - 1))] for _ in range(2))
            a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            rows.append(list(x) if kind == "duplicate" else [a * s + b * t for s, t in zip(x, y)])
    return [rows[i] for i in draw(st.permutations(range(len(rows))))]


def _copy(rows):
    return [list(row) for row in rows]


def _sparse(rows):
    """Dense integer rows as ``_eliminate``'s parallel (values, columns) lists."""
    return [[a for a in row if a] for row in rows], [[j for j, a in enumerate(row) if a] for row in rows]


def _dense(values, columns, ncols):
    rows = [[0] * ncols for _ in values]
    for row, vals, cols in zip(rows, values, columns):
        for a, j in zip(vals, cols):
            row[j] = a
    return rows


def eliminate_rows(rows):
    """``linalg._eliminate`` on dense rows, its pivot rows written back dense: (rows, pivots)."""
    values, pivots, columns = linalg._eliminate(*_sparse(rows))
    assert all(cols == sorted(cols) and cols[0] == pc for cols, pc in zip(columns, pivots))
    return _dense(values, columns, len(rows[0]) if rows else 0), pivots


def called_sparse(core):
    """A dense core such as ``eliminate_dense``, called and answering as ``_eliminate``; width = last column + 1."""

    def eliminate(values, columns, origins=None):
        rows, pivots = core(_dense(values, columns, 1 + max((j for cols in columns for j in cols), default=-1)))
        values, columns = _sparse(rows[: len(pivots)])
        return values, pivots, columns

    return eliminate


def test_eliminate_matches_the_dense_core():
    outcomes = set()

    @seed(20261018)
    @settings(max_examples=400, deadline=None, database=None)
    @given(rows=integer_systems(), data=st.data())
    def check(rows, data):
        ncols = len(rows[0]) if rows else 0
        got, pivots = eliminate_rows(_copy(rows))
        expected, expected_pivots = eliminate_dense(_copy(rows))
        assert pivots == expected_pivots
        assert all(not any(row) for row in got[len(pivots) :])
        for row, oracle, pc in zip(got, expected, pivots):
            assert row[pc] > 0 and math.gcd(*row) == 1
            # A nonzero multiple: both are nonzero at pc, so proportional exactly when these agree.
            assert [a * oracle[pc] for a in row] == [b * row[pc] for b in oracle]
            assert all(row[c] == 0 for c in pivots if c != pc)
        order = data.draw(st.permutations(range(len(rows))))
        assert eliminate_rows([list(rows[i]) for i in order]) == (got, pivots)

        if not rows:
            outcomes.add("no rows")
        if ncols == 0:
            outcomes.add("0 columns")
        if 0 < len(rows) < ncols:
            outcomes.add("more columns than rows")
        if any(not any(row) for row in rows):
            outcomes.add("zero row")
        if len({tuple(row) for row in rows}) < len(rows):
            outcomes.add("duplicate rows")
        if len(pivots) < min(len(rows), ncols):
            outcomes.add("rank deficient")
        if any(abs(a) >= BIG for row in rows for a in row):
            outcomes.add("entries above 64 bits")

    check()
    assert outcomes == {
        "no rows",
        "0 columns",
        "more columns than rows",
        "zero row",
        "duplicate rows",
        "rank deficient",
        "entries above 64 bits",
    }


def test_rank_mod_each_prime_matches_the_rref_oracle():
    # The integer systems above, sparse, against the rank of naive_rref over Q; the rows are read, never changed.
    outcomes = set()

    @seed(20261020)
    @settings(max_examples=200, deadline=None, database=None)
    @given(rows=integer_systems())
    def check(rows):
        rank = len(naive_rref(linalg.Matrix(rows, ncols=len(rows[0]) if rows else 0))[1])
        sparse = [{j: a for j, a in enumerate(row) if a} for row in rows]
        kept = [dict(row) for row in sparse]
        assert [linalg._rank_mod(sparse, p) for p in linalg._PRIMES] == [rank] * len(linalg._PRIMES)
        assert sparse == kept
        outcomes.add("full rank" if rank == len(rows) else "rank deficient")

    check()
    assert outcomes == {"full rank", "rank deficient"}


@st.composite
def presolve_systems(draw):
    """(rows of (column, nonzero int) pairs, ncols, the planted kinds): one-entry rows and duplicates of them, a
    cascade chain {a, b}, {b, c}, ..., {z} that forces each of its columns in turn, rows on forced columns only, which
    stripping empties, and other rows, some sharing a factor; shuffled, an empty row sometimes among them."""
    ncols = draw(st.integers(1, 8))
    column, value = st.integers(0, ncols - 1), st.one_of(st.integers(1, 4), st.integers(-4, -1), st.just(BIG + 1))
    singles = [{c: draw(value)} for c in draw(st.lists(column, max_size=3))]
    copied = draw(st.lists(st.sampled_from(singles), max_size=2)) if singles else []
    duplicates = [{c: draw(value)} for row in copied for c in row]
    chain = draw(st.lists(column, unique=True, max_size=5))
    cascade = [{a: draw(value), b: draw(value)} for a, b in zip(chain, chain[1:])]
    cascade += [{c: draw(value)} for c in chain[-1:]]
    forced = sorted({c for row in singles + cascade for c in row})
    emptied = [{c: draw(value) for c in draw(st.lists(st.sampled_from(forced), min_size=2, max_size=3, unique=True))}
               for _ in range(draw(st.integers(0, 2)) if len(forced) > 1 else 0)]
    others = [{c: k * draw(value) for c in draw(st.lists(column, unique=True, min_size=2, max_size=ncols))}
              for k in draw(st.lists(st.sampled_from([1, 1, 6, -10]), max_size=4))] if ncols > 1 else []
    rows = singles + duplicates + cascade + emptied + others + draw(st.sampled_from([[], [{}]]))
    kinds = {"duplicate" if duplicates else None, "cascade" if len(chain) > 2 else None, "emptied" if emptied else None}
    return [list(rows[i].items()) for i in draw(st.permutations(range(len(rows))))], ncols, kinds - {None}


def test_presolved_kernels_and_row_spaces_match_the_oracles():
    outcomes = set()

    @seed(20261021)
    @settings(max_examples=150, deadline=None, database=None)
    @given(system=presolve_systems())
    def check(system):
        rows, ncols, kinds = system
        dense = [[dict(row).get(j, 0) for j in range(ncols)] for row in rows]
        for flip in (False, True):
            values, pivots, columns = linalg._echelon(rows, ncols, flip)
            expected, expected_pivots = eliminate_dense([row[::-1] if flip else list(row) for row in dense])
            assert pivots == expected_pivots
            for vals, cols, oracle, pc in zip(values, columns, expected, pivots):
                g = math.gcd(*oracle) * (1 if oracle[pc] > 0 else -1)  # the oracle's row, primitive and positive at pc
                assert dict(zip(cols, vals)) == {j: a // g for j, a in enumerate(oracle) if a}
        matrix = linalg.Matrix(dense, ncols=ncols)
        assert linalg.Subspace(ncols, *linalg._row_space(rows, ncols)).basis == naive_rref(matrix)[0]
        origins = {}
        kernel = linalg.Subspace(ncols, *linalg._kernel_of_rows(rows, ncols, origins))
        assert kernel.basis == kernel_by_naive_rref(matrix)
        # The rows origins names are distinct nonempty input rows, as many as the pivots and of that rank over Q.
        nonempty = [row for row in dense if any(row)]
        named = sorted(origins.values())
        assert len(set(named)) == len(named) == ncols - kernel.dim
        assert len(naive_rref(linalg.Matrix([nonempty[i] for i in named], ncols=ncols))[1]) == len(named)
        for bad in (-1, ncols):  # a one-entry row outside the system is refused, never forced
            for read in (linalg._kernel_of_rows, linalg._row_space):
                with pytest.raises(linalg.DimensionMismatch):
                    read([*rows, [(bad, 1)]], ncols)
        split = [tuple(zip(*row)) for row in rows if row]  # per nonempty row, its (columns, values)
        forced = linalg._presolve([vals for _, vals in split], [cols for cols, _ in split])[0]
        outcomes.update(kinds, ["forced" if forced else "nothing forced"])
        if len(forced) == ncols:
            outcomes.add("every column forced")

    check()
    assert outcomes == {"duplicate", "cascade", "emptied", "forced", "nothing forced", "every column forced"}


def _captured_calls(monkeypatch, module, name, run, copy=list):
    """Run, recording the (rows, ncols) of every call of module.name, each row copied by ``copy``.

    The call runs on a second copy: ``_solve_rows`` consumes its dict rows.
    """
    calls = []
    real = getattr(module, name)

    def record(rows, ncols, *origins):
        rows = [copy(row) for row in rows]
        calls.append((rows, ncols))
        return real([copy(row) for row in rows], ncols, *origins)

    monkeypatch.setattr(module, name, record)
    run()
    monkeypatch.undo()
    return calls


def solution_by_dense_core(rows, ncols):
    """The canonical solution of ``_solve_rows``'s {column: int} rows, read off ``eliminate_dense``'s reduced rows."""
    dense = [[0] * (ncols + 1) for _ in rows]
    for out, row in zip(dense, rows):
        for j, a in row.items():
            out[j] = a
    reduced, pivots = eliminate_dense(dense)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for row, pc in zip(reduced, pivots):  # each reduced row is zero at every other pivot, free unknowns are zero
        x[pc] = Fraction(row[ncols], row[pc])
    return tuple(x)


def test_h13_systems_solve_alike_under_both_cores(monkeypatch):
    # The Euclidean H_13: its isotropy kernel (169 unknowns) and its linear-certificate system.
    m = heisenberg(6)
    h = isotropy.isotropy_algebra(m)
    kernels = _captured_calls(monkeypatch, linalg, "_kernel_of_rows", lambda: isotropy.isotropy_algebra(m))
    solves = _captured_calls(monkeypatch, go_engine, "_solve_rows", lambda: go_engine.linear_go_certificate(m, h), dict)
    assert [ncols for _, ncols in kernels] == [169] and len(solves) == 1
    solved = [linalg._solve_rows([dict(row) for row in rows], ncols) for rows, ncols in solves]  # a solve consumes its rows
    got = [linalg._kernel_of_rows(*call) for call in kernels], solved
    assert len(got[0][0][1]) == 36 and got[1][0] is not None  # a kernel is (den, rows)
    # The solve back-substitutes over ``_forward``'s echelon rows, so it is compared with the dense core directly.
    assert got[1] == [solution_by_dense_core(*call) for call in solves]
    monkeypatch.setattr(linalg, "_eliminate", called_sparse(eliminate_dense))
    assert got[0] == [linalg._kernel_of_rows(*call) for call in kernels]


def test_sheared_certificate_solve_matches_the_dense_core(monkeypatch):
    # H_13's solve has unit pivots and never reads a solved unknown; paper_2_3, rescaled and sheared, does both.
    scales = [1, 2, 3, Fraction(1, 2), 5, 1, 1, 2, 3, 1, 1, 2]
    m = sheared(rescaled(build_example("paper_2_3").algebra, scales))
    h = isotropy.isotropy_algebra(m)
    calls = []  # the system is captured unsolved, so the library's own certificate check does not run
    monkeypatch.setattr(go_engine, "_solve_rows", lambda rows, ncols: calls.append(([dict(row) for row in rows], ncols)))
    assert go_engine.linear_go_certificate(m, h) is None
    [(rows, ncols)] = calls
    table = linalg._forward([dict(row) for row in rows])  # both consume their rows
    x = linalg._solve_rows([dict(row) for row in rows], ncols)
    assert any(row[pc] > 1 and x[pc] for pc, row in table.items())
    assert any(x[c] for pc, row in table.items() for c in row if pc < c < ncols)
    assert x == solution_by_dense_core(rows, ncols)
