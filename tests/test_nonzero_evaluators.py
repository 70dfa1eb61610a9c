"""The nonzero-entry evaluators against the dense loops they replace.

``skew_defects`` and ``derivation_defects`` index the identity rows by entry
once and add each operator's nonzero entries only into the rows that hold
them; ``oracles.skew_failures_by_products`` and
``oracles.derivation_failures_by_brackets`` evaluate each operator on its own,
with two dense products and with generic brackets.  ``congruence_diagonalize``
updates only nonzero entries; ``oracles.congruence_diagonalize_dense`` is its
earlier dense body, and both must return the same basis rows and values.
Each property asserts that every outcome it names was reached.
"""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import gonil.metric as metric
from conftest import combination, random_nilpotent_table, rescaled, sheared_gram
from gonil import isotropy, linalg
from gonil.catalog import EXAMPLE_NAMES, build_example
from gonil.double_ext import extend2
from gonil.go_engine import GOEngineError, check_subisotropy, first_null_vector
from gonil.isotropy import (
    OperatorSpace,
    _int_operators,
    _isotropy_defects,
    derivation_defects,
    derivation_space,
    isotropy_algebra,
    skew_defects,
    skew_space,
)
from gonil.lie import LieAlgebra, center, lower_central_series, transporter
from gonil.linalg import Matrix, _sparse_rows, congruence_diagonalize
from gonil.metric import MetricLieAlgebra, SymForm, orth_complement, radical_of_restriction
from oracles import (
    congruence_diagonalize_dense,
    derivation_failures_by_brackets,
    first_defects_in_fractions,
    skew_failures_by_products,
)
from test_double_ext import ladder_rungs

SMALL = st.sampled_from([0, 0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])
NONZERO = st.sampled_from([1, -1, 2, Fraction(1, 3), Fraction(-5, 2)])
CATALOG = {name: build_example(name).algebra for name in EXAMPLE_NAMES}
CATALOG_SPACES = {name: isotropy_algebra(m) for name, m in CATALOG.items()}
CATALOG_ISOTROPY = {name: h.basis for name, h in CATALOG_SPACES.items()}
LADDER = {label: (base, data) for label, base, data in ladder_rungs()}


@st.composite
def metric_algebras(draw):
    """A catalog entry with its isotropy basis, or a random nilpotent algebra of dimension 1..6 with a sheared form."""
    if draw(st.booleans()):
        name = draw(st.sampled_from(EXAMPLE_NAMES))
        return CATALOG[name], CATALOG_ISOTROPY[name]
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(1, 6))
    diagonal = draw(st.lists(st.sampled_from([1, 1, -1, -1, 2, Fraction(1, 2), 0]), min_size=n, max_size=n))
    m = MetricLieAlgebra(LieAlgebra(n, random_nilpotent_table(rng, n)), SymForm(sheared_gram(rng, diagonal)))
    return m, isotropy_algebra(m).basis


@st.composite
def operators(draw, n, isotropy):
    """A zero, sparse or dense operator, or an isotropy basis operator with one entry perturbed."""
    kind = draw(st.sampled_from(["zero", "sparse", "dense", "perturbed", "perturbed"]))
    if kind == "perturbed" and isotropy:
        entries = [list(row) for row in draw(st.sampled_from(isotropy)).rows]
    else:
        entries = [[0] * n for _ in range(n)]
    if kind == "dense":
        entries = [[draw(NONZERO) for _ in range(n)] for _ in range(n)]
    cells = {"zero": 0, "sparse": draw(st.integers(1, 3)), "dense": 0, "perturbed": 1}[kind]
    for _ in range(cells):
        l, k = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        entries[l][k] += draw(NONZERO)
    return Matrix(entries)


def test_defect_evaluators_match_the_per_operator_oracles():
    reached = set()

    @seed(20261018)
    @settings(max_examples=80, deadline=None, database=None)
    @given(drawn=metric_algebras(), data=st.data())
    def check(drawn, data):
        m, isotropy = drawn
        ops = data.draw(st.lists(operators(m.dim, isotropy), min_size=1, max_size=4))
        skew = [skew_failures_by_products(m.form, op) for op in ops]
        derivation = [derivation_failures_by_brackets(m.algebra, op) for op in ops]
        assert skew_defects(m.form, ops) == [f[0] if f else None for f in skew]
        assert derivation_defects(m.algebra, ops) == [f[0] if f else None for f in derivation]
        reached.update(("skew", min(len(f), 2)) for f in skew)
        reached.update(("derivation", min(len(f), 2)) for f in derivation)

    check()
    # no failure, one failing row, and several (where the first key must be chosen), for each identity
    assert reached == {(identity, count) for identity in ("skew", "derivation") for count in (0, 1, 2)}


def test_isotropy_defects_read_the_defects_of_fresh_rows():
    # A catalog entry's metric algebra keeps the rows its isotropy algebra
    # was solved from; integer combinations of that basis, some with one
    # entry perturbed or a skew operator added, read the same first defects
    # through the kept index as skew_defects and derivation_defects do
    # through rows built afresh.
    reached = set()
    skew_bases = {name: skew_space(m.form).basis for name, m in CATALOG.items()}

    @seed(20261019)
    @settings(max_examples=80, deadline=None, database=None)
    @given(name=st.sampled_from(EXAMPLE_NAMES), data=st.data())
    def check(name, data):
        m, h = CATALOG[name], CATALOG_SPACES[name]
        ops = []
        for _ in range(data.draw(st.integers(1, 3))):
            op = Matrix.zeros(m.dim, m.dim)
            for d in h.basis:
                op = op + d.scale(data.draw(st.integers(-3, 3)))
            change = data.draw(st.sampled_from(["none", "entry", "skew"]))
            if change == "entry":
                entries = [list(row) for row in op.rows]
                entries[data.draw(st.integers(0, m.dim - 1))][data.draw(st.integers(0, m.dim - 1))] += data.draw(NONZERO)
                op = Matrix(entries)
            elif change == "skew":
                op = op + data.draw(st.sampled_from(skew_bases[name])).scale(data.draw(NONZERO))
            ops.append(op)
        skew, derivation = _isotropy_defects(m, _int_operators(m.dim, ops)[1])
        assert [skew, derivation] == [skew_defects(m.form, ops), derivation_defects(m.algebra, ops)]
        reached.update(zip((s is None for s in skew), (d is None for d in derivation)))

    check()
    assert reached == {(True, True), (False, True), (True, False), (False, False)}


MIXED = st.sampled_from([Fraction(1, 3), Fraction(2, 5), Fraction(-3, 4), Fraction(5, 6), -1, 2])
SCALES = (Fraction(1, 2), Fraction(2, 3), 3)
RESCALED = {
    f"{name}/rescaled": rescaled(CATALOG[name], [SCALES[i % 3] for i in range(CATALOG[name].dim)])
    for name in ("paper_2_3", "de5", "de7_lorentz")
}
SUBISOTROPY = {name: (m, CATALOG_SPACES[name]) for name, m in CATALOG.items()}
SUBISOTROPY.update((name, (m, isotropy_algebra(m))) for name, m in RESCALED.items())


def test_integer_defect_sums_match_the_fraction_evaluation():
    # The kept identity rows hold ints, and the operators' entries are cleared
    # once, by _int_operators' common denominator, before they are summed; any
    # other positive multiple of them reads the same defects.  The oracle sums the rational
    # entries over the same index in Fractions.  The operators combine
    # an isotropy basis (three of them rescaled, so rows and basis carry
    # denominators) with mixed-denominator coefficients, some with one entry
    # perturbed, and check_subisotropy refuses their span exactly when one fails.
    reached = set()

    @seed(20261019)
    @settings(max_examples=80, deadline=None, database=None)
    @given(name=st.sampled_from(sorted(SUBISOTROPY)), data=st.data())
    def check(name, data):
        m, h = SUBISOTROPY[name]
        ops = []
        for _ in range(data.draw(st.integers(1, 3))):
            op = combination(m.dim, h.basis, [data.draw(MIXED) for _ in h.basis])
            if data.draw(st.booleans()):
                entries = [list(row) for row in op.rows]
                entries[data.draw(st.integers(0, m.dim - 1))][data.draw(st.integers(0, m.dim - 1))] += data.draw(MIXED)
                op = Matrix(entries)
            ops.append(op)
        sparse = [_sparse_rows(op.rows) for op in ops]
        expected = [first_defects_in_fractions(m.dim, index, sparse) for index in m._isotropy_index]
        _, cleared = _int_operators(m.dim, ops)
        assert _isotropy_defects(m, cleared) == expected
        scale = data.draw(st.integers(2, 7))
        assert _isotropy_defects(m, [[(k, scale * v) for k, v in op] for op in cleared]) == expected
        failing = any(key is not None for keys in expected for key in keys)
        try:
            check_subisotropy(m, OperatorSpace.from_operators(m.dim, ops))
        except GOEngineError:
            assert failing
        else:
            assert not failing
        reached.add("fails" if failing else "passes")
        if any(len({x.denominator for row in op.rows for x in row} - {1}) > 1 for op in ops):
            reached.add("mixed denominators")

    check()
    assert reached == {"fails", "passes", "mixed denominators"}


def test_subisotropy_names_each_failing_identity_on_a_perturbed_catalog_basis(paper, paper_iso):
    # A space's basis is canonical: each family spans op (pivot 1) and one
    # operator with a later pivot, so op comes first, passes, and the second fails.
    m = paper.algebra
    op = paper_iso.basis[0]
    entries = [list(row) for row in op.rows]
    entries[5][5] += 1  # fails both identities: skewness is named
    skew_only = next(s for s in skew_space(m.form).basis[2:] if not paper_iso.contains(s))
    for family, failure in (((op, Matrix(entries)), "skewness"), ((op, skew_only), "derivation")):
        h = OperatorSpace.from_operators(m.dim, family)
        assert h.dim == 2 and h.basis[0] == op
        with pytest.raises(GOEngineError, match=f"\\({failure} fails\\)"):
            check_subisotropy(m, h)


def _subisotropy_outcome(m, h):
    try:
        check_subisotropy(m, h)
    except GOEngineError as exc:
        return str(exc)
    return None


def _refuse(*args, **kwargs):
    raise AssertionError("entries cleared again")


def _refuse_everywhere(monkeypatch, names):
    """Point every gonil module's binding of each named linalg helper at _refuse; a renamed helper fails getattr."""
    for name in names:
        helper = getattr(linalg, name)
        for key, module in list(sys.modules.items()):
            if key == "gonil" or key.startswith("gonil."):
                for attr in [attr for attr, value in vars(module).items() if value is helper]:
                    monkeypatch.setattr(module, attr, _refuse)


@pytest.mark.parametrize("name", ["paper_2_3", "de5", "paper_2_3/rescaled", "de5/rescaled"])
def test_check_subisotropy_clears_nothing_once_the_int_rows_are_kept(name, monkeypatch):
    # h's entries are stored in ints once, in its span, and m keeps its indexed
    # identity rows: with m warm, checking h (passing, failing the derivation
    # identity, failing skewness) clears, converts and splits nothing again.
    m, iso = SUBISOTROPY[name]
    spaces = [iso, skew_space(m.form), derivation_space(m.algebra)]
    expected = [_subisotropy_outcome(m, h) for h in spaces]
    assert [e and e.split("(")[1] for e in expected] == [None, "derivation fails)", "skewness fails)"]
    _refuse_everywhere(monkeypatch, ("_to_ints", "_to_fractions", "_sparse_rows"))
    assert [_subisotropy_outcome(m, h) for h in spaces] == expected


def _stored_form_results(m):
    """The subspace and operator-space results that read only the stored int forms."""
    alg, nprime = m.algebra, m.nprime()
    return [
        isotropy_algebra(m),
        orth_complement(m, nprime),
        radical_of_restriction(m, nprime),
        lower_central_series(alg),
        center(alg),
        transporter(alg, nprime, m.v_complement()),
    ]


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_stored_form_readers_make_no_fraction(name, monkeypatch):
    # Subspaces, bracket tables and Gram matrices are stored as ints at one
    # scale: with the ints -> Fraction helper refused, every result is unchanged.
    m = CATALOG[name]
    fresh = MetricLieAlgebra(LieAlgebra(m.dim, m.algebra.table), SymForm(m.form.gram))
    expected = _stored_form_results(m)
    _refuse_everywhere(monkeypatch, ("_to_fractions",))
    assert _stored_form_results(m) == expected
    assert _stored_form_results(fresh) == expected


@st.composite
def symmetric_matrices(draw):
    """A sparse, dense, zero-diagonal, permutation or degenerate symmetric matrix of size 0..6."""
    kind = draw(st.sampled_from(["sparse", "dense", "zero_diagonal", "permutation", "degenerate"]))
    n = draw(st.integers(0 if kind == "sparse" else 1, 6))
    entries = [[0] * n for _ in range(n)]
    if kind == "permutation":  # an involution: pairs swapped, the rest fixed, each with a nonzero weight
        order = draw(st.permutations(range(n)))
        pairs = draw(st.integers(0, n // 2))
        for t in range(pairs):
            i, j = order[2 * t], order[2 * t + 1]
            entries[i][j] = entries[j][i] = draw(NONZERO)
        for i in order[2 * pairs :]:
            entries[i][i] = draw(NONZERO)
    elif kind == "degenerate":
        rng = random.Random(draw(st.integers(0, 2**32)))
        diagonal = draw(st.lists(st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2)]), min_size=n, max_size=n))
        entries = [list(row) for row in sheared_gram(rng, diagonal).rows]
    else:
        values = NONZERO if kind == "dense" else SMALL
        for i in range(n):
            for j in range(i if kind != "zero_diagonal" else i + 1, n):
                entries[i][j] = entries[j][i] = draw(values)
    return kind, Matrix(entries, ncols=n)


def test_congruence_diagonalize_matches_the_dense_loop():
    kinds, reached = set(), set()

    @seed(20261018)
    @settings(max_examples=200, deadline=None, database=None)
    @given(symmetric_matrices())
    def check(drawn):
        kind, g = drawn
        basis, diag = congruence_diagonalize(g)
        expected_basis, expected_diag = congruence_diagonalize_dense(g)
        assert (basis, diag) == (expected_basis, expected_diag)
        assert all(type(x) is Fraction for x in diag + basis.vectorize())
        kinds.add(kind)
        if g.nrows and not any(g[i, i] for i in range(g.nrows)) and not g.is_zero():
            reached.add("pair substitution first")  # no diagonal pivot, so b_i <- b_i + b_j runs
        if 0 in diag and not g.is_zero():
            reached.add("radical")
        if any(x < 0 for x in diag) and any(x > 0 for x in diag):
            reached.add("indefinite")

    check()
    assert kinds == {"sparse", "dense", "zero_diagonal", "permutation", "degenerate"}
    assert reached == {"pair substitution first", "radical", "indefinite"}


@pytest.mark.parametrize("name", EXAMPLE_NAMES + tuple(LADDER))
def test_first_null_vector_unchanged_on_the_catalog(name, monkeypatch):
    """On every catalog entry and every reduction ladder rung's extension, against the dense diagonalization."""
    m = CATALOG[name] if name in CATALOG else extend2(*LADDER[name])
    vector = first_null_vector(m)
    assert vector is not None or name in CATALOG  # the pair each extension adds gives values 2, -1/2
    monkeypatch.setattr(metric, "_diagonalize", congruence_diagonalize_dense)
    fresh = MetricLieAlgebra(m.algebra, SymForm(m.form.gram))  # its form diagonalizes on first use, by the oracle
    assert vector == first_null_vector(fresh)
