import itertools
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import ENTRY, combination, heisenberg, rescaled, sheared, sparse_rows
from gonil.catalog import EXAMPLE_NAMES, build_example, euclidean_abelian, paper_isotropy_operator
from gonil.double_ext import ExtensionData, extend2, reduce
from gonil.isotropy import (
    OperatorSpace,
    derivation_space,
    derivation_defects,
    is_adh_invariant,
    isotropy_algebra,
    skew_defects,
    skew_space,
)
from gonil.lie import abelian, bracket_subspaces, lower_central_series, transporter
from gonil.cli import main
from gonil.linalg import DimensionMismatch, Matrix, Subspace, basis_vec
from gonil.metric import SymForm, orth_complement
from gonil.normal_forms import _verify_abelian, maximal_abelian_family
from oracles import ad_by_table, adh_invariant_by_dense_products, commutator_closed_by_dense_products


def test_derivations_of_abelian_are_everything():
    assert derivation_space(abelian(3)).dim == 9


def test_derivations_of_heisenberg(heis3):
    # hand count: free 2x2 block on (e1, e2), two shears into e3, and the
    # forced trace action on e3 -> dimension 6
    assert derivation_space(heis3.algebra).dim == 6


def test_derivations_of_heisenberg_match_hand_family(heis3):
    # D e1 = a e1 + c e2 + p e3; D e2 = b e1 + d e2 + q e3; D e3 = (a+d) e3
    def hand(a, b, c, d, p, q):
        return Matrix([[a, b, 0], [c, d, 0], [p, q, a + d]])

    from gonil.isotropy import OperatorSpace

    computed = derivation_space(heis3.algebra)
    params = [hand(*[1 if i == j else 0 for j in range(6)]) for i in range(6)]
    hand_space = OperatorSpace.from_operators(3, params)
    assert all(hand_space.contains(op) for op in computed.basis)
    assert all(computed.contains(op) for op in params)


def test_skew_space_euclidean_dim():
    for n in (2, 3, 4):
        assert skew_space(SymForm(Matrix.identity(n))).dim == n * (n - 1) // 2


def test_isotropy_of_euclidean_abelian(abelian4):
    assert isotropy_algebra(abelian4).dim == 6


def test_paper_operators_are_derivations_and_skew(paper):
    m, ops = paper.algebra, list(paper.witness_operators)
    assert skew_defects(m.form, ops) == derivation_defects(m.algebra, ops) == [None] * len(ops)


def test_paper_operators_inside_isotropy(paper, paper_iso):
    for op in paper.witness_operators:
        assert paper_iso.contains(op)
    coeffs = [Fraction(j - 2, j + 1) for j in range(paper_iso.dim)]
    assert paper_iso.coordinates(combination(12, paper_iso.basis, coeffs)) == tuple(coeffs)


def test_isotropy_closed_and_annihilates_form(paper, paper_iso):
    g = paper.algebra.form.gram
    for d in paper_iso.basis:
        assert (d.transpose() @ g + g @ d).is_zero()
    assert commutator_closed_by_dense_products(paper_iso)


def test_nprime_and_v_are_invariant(paper, paper_iso, de5):
    m = paper.algebra
    assert is_adh_invariant(m, m.nprime(), paper_iso)
    assert is_adh_invariant(m, m.v_complement(), paper_iso)
    assert is_adh_invariant(de5, de5.nprime())
    assert is_adh_invariant(de5, de5.v_complement())


def test_span_f1_is_not_invariant(paper, paper_iso):
    # the stored operator at f6 maps f1 to -f4, so the line through f1 moves
    line = Subspace.span(12, [basis_vec(12, 0)])
    assert not is_adh_invariant(paper.algebra, line, paper_iso)
    op6 = paper_isotropy_operator(basis_vec(12, 5))
    assert (op6 @ basis_vec(12, 0)) == tuple(-x for x in basis_vec(12, 3))


def test_lower_central_terms_invariant(paper, paper_iso):
    m = paper.algebra
    for term in lower_central_series(m.algebra)[1:]:
        assert is_adh_invariant(m, term, paper_iso)


def test_invariance_calculus(paper, paper_iso):
    """Closure of invariant subspaces under the standard constructions."""
    m = paper.algebra
    alg = m.algebra
    chain = lower_central_series(alg)
    pool = [chain[1], chain[2], m.v_complement(), orth_complement(m, chain[2])]
    for v1, v2 in itertools.combinations(pool, 2):
        assert is_adh_invariant(m, v1, paper_iso)
        assert is_adh_invariant(m, v2, paper_iso)
        assert is_adh_invariant(m, orth_complement(m, v1), paper_iso)
        assert is_adh_invariant(m, v1.plus(v2), paper_iso)
        assert is_adh_invariant(m, v1.intersect(v2), paper_iso)
        assert is_adh_invariant(m, bracket_subspaces(alg, v1, v2), paper_iso)
        assert is_adh_invariant(m, transporter(alg, v1, v2), paper_iso)


SCALES = (Fraction(1, 2), Fraction(2, 3), Fraction(3), Fraction(-5, 4), Fraction(1), Fraction(6, 5))


def test_adh_invariance_matches_dense_product_oracle():
    # the catalog, and each entry again in a rescaled basis, whose isotropy span
    # has den > 1, and in a sheared one, whose Gram matrix is not diagonal
    catalog = {name: build_example(name).algebra for name in EXAMPLE_NAMES}
    for name, m in list(catalog.items()):
        catalog[f"{name}/rescaled"] = rescaled(m, [SCALES[i % len(SCALES)] for i in range(m.dim)])
        catalog[f"{name}/sheared"] = sheared(m)
    isotropy = {name: isotropy_algebra(m) for name, m in catalog.items()}
    outcomes, scaled = set(), set()

    @seed(20261019)
    @settings(max_examples=150, deadline=None, database=None)
    @given(name=st.sampled_from([name for name, h in isotropy.items() if h.dim]), data=st.data())
    def check(name, data):
        # spans of sparse random vectors, of coordinate vectors, or a lower central series term
        m, h = catalog[name], isotropy[name]
        n = m.dim
        source = data.draw(st.sampled_from(["sparse", "coordinates", "series"]))
        if source == "sparse":
            v = Subspace.span(n, data.draw(sparse_rows(data.draw(st.integers(1, n)), n)))
        elif source == "coordinates":
            axes = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
            v = Subspace.span(n, [basis_vec(n, i) for i in axes])
        else:
            v = data.draw(st.sampled_from(lower_central_series(m.algebra)))
        expected = adh_invariant_by_dense_products(v, h)
        assert is_adh_invariant(m, v, h) == expected
        side = "annihilator" if 2 * v.dim > n else "space"
        outcomes.add((side, expected))
        if h.span.den != 1:
            scaled.add(side)

    check()
    # each side of the check: V itself, or its annihilator when dim V > n/2; both at a span den > 1 too
    assert outcomes == {(side, verdict) for side in ("space", "annihilator") for verdict in (True, False)}
    assert scaled == {"space", "annihilator"}


def test_isotropy_of_de5_matches_hand_count(de5):
    # skew derivations of de5: two parameters, f -> p e2 + q e3 with
    # e2 -> -p e, e3 -> -q e; the central direction and e1 are annihilated
    iso = isotropy_algebra(de5)
    assert iso.dim == 2
    zero = tuple([Fraction(0)] * 5)
    for d in iso.basis:
        assert (d @ basis_vec(5, 4)) == zero
        assert (d @ basis_vec(5, 1)) == zero


def _extend2_outputs():
    heis3 = build_example("heis3").algebra
    filiform4 = build_example("filiform4").algebra
    de5 = build_example("de5").algebra
    plane = Matrix([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    shift = Matrix([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    return {
        "euclidean3_shift_plane": extend2(euclidean_abelian(3), ExtensionData(shift, (0, 0, 0), plane, Fraction(2))),
        "heis3_by_ad_e1": extend2(heis3, ExtensionData(ad_by_table(heis3.algebra, basis_vec(3, 0)), (0,) * 3, Matrix.zeros(3, 3))),
        "filiform4_by_ad_e1": extend2(
            filiform4, ExtensionData(ad_by_table(filiform4.algebra, basis_vec(4, 0)), (0,) * 4, Matrix.zeros(4, 4))
        ),
        "de5_plus_plane": extend2(de5, ExtensionData(Matrix.zeros(5, 5), (0,) * 5, Matrix.zeros(5, 5))),
    }


ISOTROPY_CASES = (
    {name: build_example(name).algebra for name in EXAMPLE_NAMES}
    | _extend2_outputs()
    | {f"heis{2 * k + 1}_euclidean": heisenberg(k) for k in (4, 5, 6)}
    | {"heis9_lorentz": heisenberg(4, negative=(0,))}
)
ISOTROPY_DIMS = {"heis9_euclidean": 16, "heis11_euclidean": 25, "heis13_euclidean": 36}


@pytest.mark.parametrize("name", sorted(ISOTROPY_CASES))
def test_isotropy_algebra_is_derivations_meet_skew(name):
    # The one-kernel isotropy algebra against the intersection of the two
    # spaces through Subspace.intersect; both bases are reduced echelon.
    m = ISOTROPY_CASES[name]
    n2 = m.dim * m.dim
    der = Subspace.span(n2, [op.vectorize() for op in derivation_space(m.algebra).basis])
    skew = Subspace.span(n2, [op.vectorize() for op in skew_space(m.form).basis])
    iso = isotropy_algebra(m)
    assert tuple(op.vectorize() for op in iso.basis) == der.intersect(skew).basis.rows
    assert iso.dim == ISOTROPY_DIMS.get(name, iso.dim)
    assert commutator_closed_by_dense_products(iso)


def test_closure_and_abelian_checks_form_no_dense_product(monkeypatch):
    # The isotropy algebra is no longer closure-checked; the abelian check still forms no dense product.
    gens = maximal_abelian_family(1, 8)

    def refuse(self, other):
        raise AssertionError("a dense product was formed")

    monkeypatch.setattr(Matrix, "__matmul__", refuse)
    _verify_abelian(gens)


def test_operator_space_refuses_an_operator_of_another_shape(heis3):
    # A 1x9 or 9x1 matrix holding an isotropy operator's entries has the right
    # number of entries but is no operator on the 3-dim algebra.
    iso = isotropy_algebra(heis3)
    first = iso.basis[0]
    assert iso.contains(first) and iso.coordinates(first) == (1,)
    entries = first.vectorize()
    for op in (Matrix([entries]), Matrix([[x] for x in entries]), Matrix.zeros(2, 2), Matrix.zeros(3, 4), Matrix.zeros(4, 3)):
        for ask in (iso.contains, iso.coordinates):
            with pytest.raises(DimensionMismatch, match="^operator size differs from the algebra's dimension$"):
                ask(op)


def test_adh_invariance_refuses_an_operator_space_of_another_dimension(paper, heis3, de7):
    # heis3's isotropy operators are 3x3; on a 12- or 7-dim algebra the size
    # mismatch is named, not read as a failed invariance.
    foreign = isotropy_algebra(heis3)
    message = "^operator space dimension differs from the algebra$"
    with pytest.raises(DimensionMismatch, match=message):
        is_adh_invariant(paper.algebra, paper.algebra.nprime(), foreign)
    with pytest.raises(DimensionMismatch, match=message):
        reduce(de7, foreign)
    assert is_adh_invariant(heis3, heis3.nprime(), foreign)


def test_operator_space_refuses_a_span_of_another_ambient_dimension(heis3):
    iso = isotropy_algebra(heis3)
    message = "^operator entries do not span an n\\^2-dimensional space$"
    for n, span in ((2, iso.span), (4, iso.span), (3, Subspace.full(3)), (3, Subspace.zero(3))):
        with pytest.raises(DimensionMismatch, match=message):
            OperatorSpace(n, span)
    # an operator of another shape is refused, even one with n^2 entries
    for n, ops in ((2, iso.basis), (3, [Matrix([iso.basis[0].vectorize()])]), (3, [Matrix.zeros(9, 1)])):
        with pytest.raises(DimensionMismatch, match="^operator size differs from the algebra's dimension$"):
            OperatorSpace.from_operators(n, ops)
    assert OperatorSpace(3, iso.span) == iso == OperatorSpace.from_operators(3, iso.basis)


def _stored_once_cases():
    cases = {name: build_example(name).algebra for name in EXAMPLE_NAMES}
    cases["de5/sheared"] = sheared(cases["de5"])
    for k in range(2, 7):
        for label, negative in (("euclidean", ()), ("lorentz", (0,)), ("split", (0, k))):
            cases[f"heis{2 * k + 1}_{label}"] = heisenberg(k, negative)
    return cases


STORED_ONCE_CASES = _stored_once_cases()
NONZERO = st.builds(Fraction, st.sampled_from((-3, -2, -1, 1, 2, 3)), st.integers(1, 4))


@pytest.mark.parametrize("name", sorted(STORED_ONCE_CASES))
def test_entries_and_dense_basis_are_read_off_the_one_span(name):
    # The (row, column, int) triples and the dense basis against the dense
    # operators' nonzero entries, times the span's one common denominator,
    # and vectorization; any spanning family gives the same space.
    h = isotropy_algebra(STORED_ONCE_CASES[name])
    n, den = h.ambient_dim, h.span.den
    nonzero = [[(r, c, den * v) for r, row in enumerate(op.rows) for c, v in enumerate(row) if v] for op in h.basis]
    assert h._triples == tuple(map(tuple, nonzero))
    assert all(type(v) is int and v for op in h._triples for *_, v in op)  # ints, and no zero entry is kept
    assert tuple(op.vectorize() for op in h.basis) == h.span.basis.rows

    @seed(20261019)
    @settings(max_examples=4, deadline=None, database=None)
    @given(data=st.data())
    def check(data):
        ops = [op.scale(data.draw(NONZERO)) for op in data.draw(st.permutations(h.basis))]
        coeffs = st.lists(ENTRY, min_size=h.dim, max_size=h.dim)
        ops += [combination(n, h.basis, data.draw(coeffs)) for _ in range(data.draw(st.integers(0, 3)))]
        assert OperatorSpace.from_operators(n, data.draw(st.permutations(ops))) == h

    check()


def test_only_the_isotropy_report_builds_dense_operators(monkeypatch, capsys):
    # go, linear-go and reduce read h through its span and kept entries; the
    # isotropy report builds each basis operator once, at the report edge.
    built = []
    from_vector = Matrix.from_vector.__func__
    monkeypatch.setattr(Matrix, "from_vector", classmethod(lambda cls, v, n: built.append(n) or from_vector(cls, v, n)))
    runs = [(["reduce", "catalog:de7_lorentz"], 0)]
    for name in ("paper_2_3", "de7_lorentz"):
        runs += [(["go", f"catalog:{name}", "--samples", "20", "--seed", "1"], 0), (["linear-go", f"catalog:{name}"], 0)]
    for argv, code in runs:
        assert main(argv) == code and built == [], argv
    capsys.readouterr()
    assert main(["isotropy", "catalog:de7_lorentz"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "ISOTROPY_DIM: 7" and built == [7] * 7
    assert sum(line.startswith("BASIS[") for line in out) == 7 * 7
