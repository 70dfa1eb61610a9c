import importlib.util
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from conftest import engel_witness_algebra, random_nilpotent_table, rescaled, sheared, sheared_gram
from gonil import double_ext
from gonil.catalog import EXAMPLE_NAMES, INVARIANTS, build_example, de5_data, de7_lorentz_data, euclidean_abelian
from gonil.cli import main
from gonil.double_ext import (
    DegeneracyTag,
    ExtensionData,
    ExtensionDataError,
    ReductionError,
    THEOREM_SCOPE_MESSAGE,
    classify_degeneracy,
    extend2,
    reduce,
    reduction_witness,
)
from gonil.io import save_algebra
from gonil.lie import (
    EngelError,
    LieAlgebra,
    NotNilpotentError,
    abelian,
    bracket_subspaces,
    derivation_rows,
    derived_subalgebra,
    jacobi_defect,
    lower_central_series,
    nilpotency_step,
)
from gonil import linalg
from gonil.isotropy import OperatorSpace, derivation_defects, derivation_space, isotropy_algebra
from gonil.linalg import Matrix, Subspace, _diagonalize, basis_vec, solve_particular, symmetric_signature, to_vec
from gonil.metric import MetricLieAlgebra, PreconditionError, SymForm, orth_complement, restrict_form
from oracles import (
    ad_by_table,
    derivation_defect_by_brackets,
    engel_split_by_flag,
    extension_identity_failure_by_pairing,
    lower_central_series_by_dense_brackets,
    omega_pair,
    quotient_by_dense_pivot_coordinates,
    quotient_by_transposed_solve,
)


def lorentz_abelian(n):
    rows = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    rows[n - 1][n - 1] = Fraction(-1)
    return MetricLieAlgebra.checked(abelian(n), SymForm(Matrix(rows)))


def index1_example():
    """R^4 base diag(1,1,-1,1); D: e1 -> e2, e4 -> e3; omega(e1,e4) = 1."""
    base = MetricLieAlgebra.checked(
        abelian(4), SymForm(Matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]]))
    )
    d = [[Fraction(0)] * 4 for _ in range(4)]
    d[1][0] = Fraction(1)
    d[2][3] = Fraction(1)
    om = [[Fraction(0)] * 4 for _ in range(4)]
    om[0][3], om[3][0] = Fraction(1), Fraction(-1)
    return base, extend2(base, ExtensionData(Matrix(d), to_vec([0] * 4), Matrix(om)))


def index2_example():
    """Degeneracy 1 with indefinite rank-4 restriction: outside the theorem's scope."""
    g = [[Fraction(0)] * 8 for _ in range(8)]
    for i, dv in enumerate((1, 1, 1, 1, -1, 1, -1, 1)):
        g[i][i] = Fraction(dv)
    base = MetricLieAlgebra.checked(abelian(8), SymForm(Matrix(g)))
    d = [[Fraction(0)] * 8 for _ in range(8)]
    d[1][0] = d[2][3] = d[4][5] = d[6][7] = Fraction(1)
    om = [[Fraction(0)] * 8 for _ in range(8)]
    om[0][3], om[3][0] = Fraction(1), Fraction(-1)
    return extend2(base, ExtensionData(Matrix(d), to_vec([0] * 8), Matrix(om)))


def test_classify_paper(paper):
    case = classify_degeneracy(paper.algebra)
    assert case.tag == DegeneracyTag.NONDEGENERATE
    assert tuple(case.restriction_signature) == (3, 1, 0)


def test_classify_de5(de5):
    case = classify_degeneracy(de5)
    assert case.tag == DegeneracyTag.DEG1_SEMIDEFINITE
    assert tuple(case.restriction_signature) == (1, 0, 1)


def test_classify_abelian(abelian4):
    case = classify_degeneracy(abelian4)
    assert case.tag == DegeneracyTag.NONDEGENERATE
    assert tuple(case.restriction_signature) == (0, 0, 0)


def test_classify_index1():
    _, m = index1_example()
    case = classify_degeneracy(m)
    assert case.tag == DegeneracyTag.DEG1_INDEX1
    assert tuple(case.restriction_signature) == (1, 1, 1)


def test_witness_de5(de5):
    w = reduction_witness(de5)
    assert w.eg == Subspace.span(5, [[0, 0, 0, 0, 1]])
    assert w.m1 == Subspace.span(
        5, [[0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]
    )
    assert all(vars(w.checks).values())


def test_witness_rejects_nondegenerate(paper):
    with pytest.raises(ReductionError, match="nondegenerate"):
        reduction_witness(paper.algebra)


def test_witness_flag_iii_falsified_by_injected_bracket(de5):
    # [f, e] = e2 leaves [eg, m1] = 0 but eg not central; [e1, e] = e2 brackets eg into m1 itself
    for pair in ((0, 4), (1, 4)):
        table = de5.algebra.table
        table[pair] = {2: Fraction(1)}
        perturbed = MetricLieAlgebra(LieAlgebra(5, table, validate=False), de5.form)
        assert classify_degeneracy(perturbed).tag == DegeneracyTag.DEG1_SEMIDEFINITE
        with pytest.raises(ReductionError, match=r"^witness check failed: \[eg, m1\] != 0 .*not G-GO") as exc_info:
            reduction_witness(perturbed)
        flags = exc_info.value.witness.checks
        assert not flags.orthogonal_central
        assert flags.inclusion and flags.invariance and flags.dimension


@pytest.mark.parametrize("flag", ["invariance", "dimension"])
def test_witness_and_reduce_name_exactly_the_one_failed_flag(monkeypatch, de5, flag):
    # (ii): an operator sending eg = span(e) to f; (iv): an empty radical leaves dim m1 + dim eg = 4 < 5.
    h = None
    if flag == "invariance":
        h = OperatorSpace.from_operators(5, [Matrix([[int((i, j) == (0, 4)) for j in range(5)] for i in range(5)])])
    else:
        monkeypatch.setattr(double_ext, "radical_of_restriction", lambda m, v: Subspace.zero(5))
    name = {"invariance": "(ii) invariance", "dimension": "(iv) dimension"}[flag]
    errors = []
    for run in (reduction_witness, reduce):
        with pytest.raises(ReductionError) as exc_info:
            run(de5, h)
        errors.append(exc_info.value)
    for error in errors:
        assert str(error) == f"witness check failed: {name}"
        assert [f for f, ok in vars(error.witness.checks).items() if not ok] == [flag]
    assert errors[0].witness == errors[1].witness


def test_reduce_de5_round_trip(de5):
    base, _ = de5_data()
    result = reduce(de5)
    assert result.m0 == base
    assert result.m0.dim == de5.dim - 2
    sig, sig0 = de5.form.signature(), result.m0.form.signature()
    assert (sig.p - 1, sig.q - 1) == (sig0.p, sig0.q)


def test_reduce_de7_round_trip(de7):
    base, _ = de7_lorentz_data()
    result = reduce(de7)
    assert result.m0 == base
    assert tuple(result.m0.form.signature()) == (4, 1, 0)


def test_reduce_index1_round_trip():
    base, m = index1_example()
    result = reduce(m)
    assert result.m0 == base


def test_reduce_rejects_eg_zero_path(paper):
    with pytest.raises(ReductionError):
        reduce(paper.algebra)


def test_reduce_complement_rows_shape(de5):
    result = reduce(de5)
    assert result.complement_rows.nrows == result.m0.dim
    assert result.complement_rows.ncols == de5.dim


def test_other_case_rejected_with_scope_message():
    import re

    m = index2_example()
    assert classify_degeneracy(m).tag == DegeneracyTag.OTHER
    with pytest.raises(ReductionError, match=re.escape(THEOREM_SCOPE_MESSAGE)):
        reduction_witness(m)


def test_deg2_direct_branch_reduces_by_four(de5):
    # a second central extension of de5 puts both null directions in the
    # radical, so one reduction drops four dimensions
    phi = to_vec([0, 0, 0, 1, 0])  # pair f' with e3
    a2 = extend2(de5, ExtensionData(Matrix.zeros(5, 5), phi, Matrix.zeros(5, 5)))
    case = classify_degeneracy(a2)
    assert case.tag == DegeneracyTag.DEG2_SEMIDEFINITE
    result = reduce(a2)
    assert result.witness.eg.dim == 2
    assert result.m0 == euclidean_abelian(3)
    assert a2.dim - result.m0.dim == 4
    sig, sig0 = a2.form.signature(), result.m0.form.signature()
    assert (sig.p - sig0.p, sig.q - sig0.q) == (2, 2)


def test_deg2_engel_branch_and_two_step_chain():
    m = engel_witness_algebra()
    case = classify_degeneracy(m)
    assert case.tag == DegeneracyTag.DEG2_SEMIDEFINITE
    assert tuple(case.restriction_signature) == (0, 0, 2)
    w = reduction_witness(m)
    assert w.engel_pair is not None and w.dual_pair is not None
    e1, e2 = w.engel_pair
    f1, f2 = w.dual_pair
    assert m.pair(f1, e1) == 1 and m.pair(f1, e2) == 0
    assert m.pair(f2, e1) == 0 and m.pair(f2, e2) == 1
    for x in (f1, f2):
        assert m.pair(x, x) == 0
    assert m.pair(f1, f2) == 0
    # [s, e2] = 0: e2 spans the common kernel of the action on the null plane
    assert w.eg.dim == 1 and w.eg.contains_vector(e2)
    for variant in (m, sheared(m, shift=-1)):  # e2 at the null plane's second pivot, then at its first
        w = reduction_witness(variant)
        assert (w.eg, w.m1, w.engel_pair, w.dual_pair) == engel_split_by_flag(variant)

    first = reduce(m)
    assert first.m0.dim == 4
    assert tuple(first.m0.form.signature()) == (3, 1, 0)
    # the quotient is again degenerate on its derived algebra: reduce once more
    second = reduce(first.m0)
    assert second.m0.dim == 2
    assert tuple(second.m0.form.signature()) == (2, 0, 0)
    # two 2-dim reductions total the 4-dim accounting: -4 dims, -(2,2) signature
    sig, sig2 = m.form.signature(), second.m0.form.signature()
    assert m.dim - second.m0.dim == 4
    assert (sig.p - sig2.p, sig.q - sig2.q) == (2, 2)


def test_engel_split_error_paths(monkeypatch, tmp_path, capsys):
    m = engel_witness_algebra()
    table = m.algebra.table
    table[(0, 3)] = {1: Fraction(1)}  # inject [a, z2] = b: s moves the null plane out of itself
    moved = MetricLieAlgebra(LieAlgebra(6, table, validate=False), m.form)
    with pytest.raises(ReductionError, match=r"^input is not G-GO: \[s, o\] does not stay inside o$"):
        reduction_witness(moved)
    path = tmp_path / "engel.json"
    save_algebra(path, m)
    # ad(s) is nilpotent on checked input, so only a broken centralizer reaches these branches
    monkeypatch.setattr(double_ext, "centralizer", lambda alg, v: Subspace.zero(alg.dim))
    with pytest.raises(EngelError, match="^no common kernel vector$"):
        reduction_witness(m)
    assert main(["reduce", str(path)]) == 1
    assert capsys.readouterr().out == "ERROR: no common kernel vector\n"
    monkeypatch.setattr(double_ext, "centralizer", lambda alg, v: Subspace.full(alg.dim))
    with pytest.raises(AssertionError, match="^internal: "):
        reduction_witness(m)


def test_quotients_are_valid_metric_algebras(de5, de7):
    for m in (de5, de7, engel_witness_algebra()):
        result = reduce(m)
        assert result.m0.form.signature().r == 0
        assert nilpotency_step(result.m0.algebra) >= 1  # raises if not nilpotent


def test_extend2_de5_invariants():
    base, data = de5_data()
    m = extend2(base, data)
    assert [s.dim for s in lower_central_series(m.algebra)] == [5, 2, 1, 0]
    assert nilpotency_step(m.algebra) == 3
    assert tuple(m.form.signature()) == (4, 1, 0)


def test_extend2_trivial_data_gives_abelian_plus_hyperbolic():
    base = euclidean_abelian(3)
    m = extend2(base, ExtensionData(Matrix.zeros(3, 3), to_vec([0, 0, 0]), Matrix.zeros(3, 3)))
    assert nilpotency_step(m.algebra) == 1
    assert tuple(m.form.signature()) == (4, 1, 0)


def test_extend2_rejects_non_nilpotent_derivation():
    base = euclidean_abelian(2)
    with pytest.raises(ExtensionDataError, match="nilpotent"):
        extend2(base, ExtensionData(Matrix.identity(2), to_vec([0, 0]), Matrix.zeros(2, 2)))


def test_extend2_rejects_asymmetric_omega():
    base = euclidean_abelian(2)
    omega = Matrix([[0, 1], [0, 0]])
    with pytest.raises(ExtensionDataError, match="antisymmetric"):
        extend2(base, ExtensionData(Matrix.zeros(2, 2), to_vec([0, 0]), omega))


def test_extend2_rejects_phi_omega_incompatibility(heis3):
    # phi([e1,e2]) = phi(e3) = 1 but omega terms vanish with D = 0
    phi = to_vec([0, 0, 1])
    with pytest.raises(ExtensionDataError, match="compatibility"):
        extend2(heis3, ExtensionData(Matrix.zeros(3, 3), phi, Matrix.zeros(3, 3)))


def test_extend2_rejects_cyclic_omega_violation(filiform4):
    # omega(e2, e4) = 1 leaves the cyclic sum at (e1, e2, e3) equal to
    # -omega(e2, [e1, e3]) = -1
    om = [[Fraction(0)] * 4 for _ in range(4)]
    om[1][3], om[3][1] = Fraction(1), Fraction(-1)
    with pytest.raises(ExtensionDataError, match="cyclic"):
        extend2(filiform4, ExtensionData(Matrix.zeros(4, 4), to_vec([0] * 4), Matrix(om)))


def test_extend2_rejects_non_derivation(heis3):
    d = [[Fraction(0)] * 3 for _ in range(3)]
    d[1][2] = Fraction(1)  # e3 -> e2 is not a derivation of heis3
    with pytest.raises(ExtensionDataError, match="derivation identity"):
        extend2(heis3, ExtensionData(Matrix(d), to_vec([0, 0, 0]), Matrix.zeros(3, 3)))


def test_extend2_on_a_non_jacobi_base_names_the_jacobi_failure():
    # Zero data meets every data identity, so only the base's own Jacobi defect,
    # shifted by f to the triple (1, 2, 3), is left to report.
    alg = LieAlgebra(3, {(0, 1): {0: 1}, (0, 2): {1: 1}, (1, 2): {0: 1}}, validate=False)
    base = MetricLieAlgebra(alg, SymForm(Matrix.identity(3)))
    with pytest.raises(ExtensionDataError) as info:
        extend2(base, ExtensionData(Matrix.zeros(3, 3), to_vec([0] * 3), Matrix.zeros(3, 3)))
    assert str(info.value) == "extension is not a Lie algebra: Jacobi identity fails at 1 triple(s), e.g. (1, 2, 3)"


def _rebind_everywhere(monkeypatch, original, replacement):
    """Point every gonil module attribute bound to original at replacement."""
    for name, module in list(sys.modules.items()):
        if name == "gonil" or name.startswith("gonil."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def test_extend2_runs_one_jacobi_check_and_no_dense_pairing(monkeypatch, heis3):
    import gonil.lie

    over_heis3 = ExtensionData(Matrix.zeros(3, 3), to_vec([1, 2, 0]), Matrix.zeros(3, 3))
    cases = [de5_data(), de7_lorentz_data(), (heis3, over_heis3)]
    calls = []
    original = gonil.lie.jacobi_defect

    def counted(alg):
        calls.append(alg.dim)
        return original(alg)

    def refuse(*args):
        raise AssertionError("a pairing was taken")

    _rebind_everywhere(monkeypatch, original, counted)
    monkeypatch.setattr(SymForm, "pair", refuse)
    for base, data in cases:
        calls.clear()
        extended = extend2(base, data)
        assert calls == [base.dim + 2] and extended.dim == base.dim + 2


# Bases whose bracket pairs each hit their own basis vector, so a phi that
# meets the phi-omega identity can be read off pair by pair.
VALIDATION_BASES = {
    "heis3": build_example("heis3").algebra,
    "filiform4": build_example("filiform4").algebra,
    "abelian3": euclidean_abelian(3),
    # free 2-step nilpotent on three generators: every cyclic sum has three terms
    "free3": MetricLieAlgebra.checked(
        LieAlgebra(6, {(0, 1): {3: 1}, (0, 2): {4: 1}, (1, 2): {5: 1}}), SymForm(Matrix.identity(6))
    ),
}


def _fitted_phi(alg, d, omega):
    k = alg.dim
    phi = [Fraction(0)] * k
    for (i, j), targets in alg.table.items():
        ((t, c),) = targets.items()
        omega_val = omega_pair(omega, d.column(i), basis_vec(k, j)) + omega_pair(omega, basis_vec(k, i), d.column(j))
        phi[t] = omega_val / c
    return to_vec(phi)


@seed(20261018)
@settings(max_examples=200, deadline=None, database=None)
@given(name=st.sampled_from(sorted(VALIDATION_BASES)), fit_phi=st.booleans(), data=st.data())
def test_extension_validate_matches_pairing_oracle(name, fit_phi, data):
    # Nonzero nilpotent derivations: inner ones on the non-abelian bases,
    # strictly lower-triangular ones on the abelian base.
    m0 = VALIDATION_BASES[name]
    k = m0.dim
    small = st.sampled_from([0, 0, 0, 1, -1, 2])
    if m0.algebra.table:
        d = ad_by_table(m0.algebra, data.draw(st.lists(small, min_size=k, max_size=k)))
    else:
        d = Matrix([[data.draw(small) if j < i else 0 for j in range(k)] for i in range(k)])
    assume(not d.is_zero())
    assert derivation_defects(m0.algebra, [d]) == [None] and d.is_nilpotent()
    sparse = st.sampled_from([0, 0, 0, 0, 0, 1, -1])
    upper = {(i, j): data.draw(sparse) for i in range(k) for j in range(i + 1, k)}
    omega = Matrix([[upper.get((i, j), 0) - upper.get((j, i), 0) for j in range(k)] for i in range(k)])
    if fit_phi:
        phi = _fitted_phi(m0.algebra, d, omega)
    else:
        phi = to_vec(data.draw(st.lists(small, min_size=k, max_size=k)))
    ext = ExtensionData(d, phi, omega)
    expected = extension_identity_failure_by_pairing(m0.algebra, ext)
    if expected is None:
        ext.validate(m0)
    else:
        with pytest.raises(ExtensionDataError) as info:
            ext.validate(m0)
        assert str(info.value) == expected


def _expected_validation_message(alg, ext) -> str | None:
    pair = derivation_defect_by_brackets(alg, ext.derivation)
    if pair is not None:
        return f"derivation identity fails on pair ({pair[0]},{pair[1]})"
    return extension_identity_failure_by_pairing(alg, ext)


def test_extension_validate_matches_bracket_oracles_on_lower_triangular_data():
    # Strictly lower-triangular D is nilpotent but often no derivation of the
    # non-abelian bases, so every identity gets its turn to fail first.
    outcomes = set()

    @seed(20261019)
    @settings(max_examples=200, deadline=None, database=None)
    @given(name=st.sampled_from(sorted(VALIDATION_BASES)), fit_phi=st.booleans(), data=st.data())
    def check(name, fit_phi, data):
        m0 = VALIDATION_BASES[name]
        k = m0.dim
        entry = st.sampled_from([0, 0, 0, 0, 1, -1, 2])
        # at most three nonzero entries below the diagonal, so D is a derivation now and then
        below = data.draw(st.dictionaries(st.sampled_from([(i, j) for i in range(k) for j in range(i)]), entry, max_size=3))
        d = Matrix([[below.get((i, j), 0) for j in range(k)] for i in range(k)])
        upper = {(i, j): data.draw(entry) for i in range(k) for j in range(i + 1, k)}
        omega = Matrix([[upper.get((i, j), 0) - upper.get((j, i), 0) for j in range(k)] for i in range(k)])
        phi = _fitted_phi(m0.algebra, d, omega) if fit_phi else to_vec(data.draw(st.lists(entry, min_size=k, max_size=k)))
        ext = ExtensionData(d, phi, omega)
        expected = _expected_validation_message(m0.algebra, ext)
        if expected is None:
            ext.validate(m0)
            outcomes.add("pass")
        else:
            with pytest.raises(ExtensionDataError) as info:
                ext.validate(m0)
            assert str(info.value) == expected
            outcomes.add(expected.split()[0])

    check()
    assert outcomes == {"derivation", "compatibility", "cyclic", "pass"}


def lorentz_chain():
    """The Lorentz R^3 base and its 2-dim extension by e1 -> e2 with omega(e1, e2) = 1, mu = 2."""
    base = lorentz_abelian(3)
    d = [[Fraction(0)] * 3 for _ in range(3)]
    d[1][0] = Fraction(1)
    om = [[Fraction(0)] * 3 for _ in range(3)]
    om[0][1], om[1][0] = Fraction(1), Fraction(-1)
    return base, extend2(base, ExtensionData(Matrix(d), to_vec([0, 0, 0]), Matrix(om), mu=Fraction(2)))


def test_round_trip_on_lorentz_chain():
    base, m = lorentz_chain()
    result = reduce(m)
    assert result.m0 == base


def test_quotient_brackets_match_transposed_solve(de5, de7, heis3):
    engel = engel_witness_algebra()
    _, chain = lorentz_chain()
    over_heis3 = extend2(heis3, ExtensionData(Matrix.zeros(3, 3), to_vec([1, 2, 0]), Matrix.zeros(3, 3)))
    cases = [de5, de7, engel, reduce(engel).m0, chain, over_heis3]
    # With f_i = e_i + e_(i-1) the central eg is no coordinate line, so its part must be removed.
    for m in cases + [sheared(m, shift=-1) for m in cases]:
        result = reduce(m)
        assert result.m0.algebra.table == quotient_by_transposed_solve(m, result)


def ladder_rungs(seed_value=11):
    """(label, base, data) for every rung recipe of the benchmark's reduce_ladder (DEG1 and Engel), at one seed."""
    workloads = sys.modules.get("perfbench_workloads")
    if workloads is None:  # registered before it runs: its dataclasses look their module up
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    rng = random.Random(seed_value)
    return [(f"{family}-d{dim}", *make(rng)[:2]) for family, dim, make in workloads.LADDER]


def test_quotient_coordinates_match_the_dense_pivot_reading(de5, de7):
    cases = [("de5", de5), ("de7_lorentz", de7)]
    cases += [(label, extend2(base, data)) for label, base, data in ladder_rungs()]
    assert {label.split("-")[0] for label, _ in cases} == {"de5", "de7_lorentz", "deg1", "engel"}
    # Sheared, the central eg is no coordinate line: its part is nonzero at pivots of the complement.
    cases += [(f"{label} sheared", sheared(m, shift=-1)) for label, m in cases]
    # Rescaled as well, eg's reduced row has denominators (eg.den = 60), which the quotient's scale carries.
    scales = [Fraction(1, 2), Fraction(2, 3), 3, Fraction(-5, 4), 1, Fraction(6, 5), 2]
    cases.append(("engel-d7 sheared, rescaled", rescaled(dict(cases)["engel-d7 sheared"], scales)))
    for label, m in cases:
        result = reduce(m)
        assert result.m0.algebra.table == quotient_by_dense_pivot_coordinates(m, result), label
    assert result.witness.eg.den == 60 and result.m0.algebra.table


def test_the_removed_projection_is_one_solve_per_m1_row(de5, de7):
    """README's replacement for ``QuotientResult.projection``: each m1 row solved on the complement-plus-eg rows."""
    for label, m in (("de5", de5), ("de7_lorentz sheared", sheared(de7, shift=-1))):
        result = reduce(m)
        comp, eg, m1 = result.complement_rows, result.witness.eg, result.witness.m1
        solver = Matrix([*comp.rows, *eg.basis.rows], ncols=m.dim).transpose()
        mixed = 0
        for row in m1.basis.rows:  # each column times the complement rows is its m1 row modulo eg
            column = solve_particular(solver, row)[: result.m0.dim]
            rest = tuple(a - b for a, b in zip(row, comp.transpose() @ column))
            assert eg.contains_vector(rest), label
            mixed += any(column) and any(rest)
        # Sheared, eg is no coordinate line: an m1 row has a part in the complement and one in eg.
        assert (mixed > 0) == label.endswith("sheared"), label


def test_reduce_restricts_the_form_on_the_complement_subspace_it_reads(monkeypatch):
    """reduce restricts the form to eg's complement in m1 as a Subspace: no dense basis is read back in."""
    builds = [(name, lambda name=name: build_example(name).algebra) for name in ("de5", "de7_lorentz")]
    builds += [(label, lambda base=base, data=data: extend2(base, data)) for label, base, data in ladder_rungs()]
    expected = {label: reduce(build()) for label, build in builds}

    def refuse(*args):
        raise AssertionError("a dense basis was read back in")

    monkeypatch.setattr(Subspace, "from_basis", classmethod(refuse))
    for label, build in builds:
        m = build()
        assert reduce(m) == expected[label], label
        eg, m1 = expected[label].witness.eg, expected[label].witness.m1
        comp = eg.complement_within(m1)
        form = restrict_form(m, comp)
        # The complement before it was a Subspace: m1's basis rows at the pivots eg does not use, as a dense matrix.
        old = Matrix([row for row, p in zip(m1.basis.rows, m1.pivots) if p not in eg.pivots], ncols=m.dim)
        assert isinstance(comp, Subspace) and comp.basis == old == expected[label].complement_rows, label
        assert form == expected[label].m0.form, label


def test_a_quotient_bracket_outside_m1_trips_the_membership_check(monkeypatch, de5):
    witness = reduction_witness(de5)
    outside = basis_vec(de5.dim, 0)  # f pairs with eg = span(e), so it is not in m1 = eg's orthogonal
    assert not witness.m1.contains_vector(outside)
    monkeypatch.setattr(double_ext, "reduction_witness", lambda m, h=None: witness)
    bracket = {j: a for j, a in enumerate(outside) if a}
    monkeypatch.setattr(LieAlgebra, "_bracket_sum", lambda self, xs, ys: dict(bracket))
    with pytest.raises(AssertionError, match="internal: vector outside m1"):
        reduce(de5)


def test_a_quotient_signature_off_the_accounting_is_an_internal_fault(monkeypatch, capsys, tmp_path):
    """The signature accounting is an internal check: ``gonil reduce`` exits 3 with one ``ERROR: internal:`` line."""
    monkeypatch.setattr(double_ext, "restrict_form", lambda m, v: SymForm(Matrix.identity(v.dim)))
    out_path = tmp_path / "q.json"
    assert main(["reduce", "catalog:de7_lorentz", "--output", str(out_path)]) == 3
    out, err = capsys.readouterr()
    assert out == "ERROR: internal: accounting failure: expected signature (4,1,0), got (5, 0, 0)\n"
    assert err == "" and not out_path.exists()


@pytest.mark.parametrize("label", ["de7_lorentz", "engel-d10"])
def test_one_round_trip_builds_each_signature_and_derived_algebra_it_needs_once(monkeypatch, label):
    # Signatures: the extension's form (extend2's check, read again by reduce's
    # accounting), the form on n' (classification) and the quotient form (m0's
    # check and the accounting).  Derived algebras: n' of the extension, kept
    # from extend2's nilpotency check for the classification, the witness and
    # v, and n' of m0 for its check.  Orthogonal complements: v and flag (iii),
    # plus m1 in the Engel split; the quotient's complement is read off the
    # witness.  Bracket subspaces: the lower central series past n' of the
    # extension and of m0, flag (iii)'s centrality, plus [o, s] once in the
    # Engel split.
    rungs = {rung: (base, data) for rung, base, data in ladder_rungs()}
    base, data = de7_lorentz_data() if label == "de7_lorentz" else rungs[label]
    counts = Counter()
    counted_functions = (_diagonalize, derived_subalgebra, orth_complement, bracket_subspaces)
    for original in counted_functions:  # a form's signature is counted off its diagonalization

        def counted(*args, original=original, **kwargs):
            counts[original.__name__] += 1
            return original(*args, **kwargs)

        _rebind_everywhere(monkeypatch, original, counted)
    assert reduce(extend2(base, data)).m0 == base
    complements, brackets = {"de7_lorentz": (2, 3), "engel-d10": (3, 5)}[label]
    assert counts == {
        "_diagonalize": 3,
        "derived_subalgebra": 2,
        "orth_complement": complements,
        "bracket_subspaces": brackets,
    }


@pytest.mark.parametrize("label", ["de7_lorentz", "engel-d10"])
def test_one_round_trip_lists_each_algebras_derivation_rows_once(monkeypatch, label):
    # extend2's Jacobi check reads the sparse ad and lists no rows; reduce's isotropy algebra lists them once.
    rungs = {rung: (base, data) for rung, base, data in ladder_rungs()}
    base, data = de7_lorentz_data() if label == "de7_lorentz" else rungs[label]
    listed = []  # every algebra whose rows are listed, kept alive so that no id is reused

    def listing(alg):
        listed.append(alg)
        return derivation_rows(alg)

    _rebind_everywhere(monkeypatch, derivation_rows, listing)
    m = extend2(base, data)
    assert reduce(m).m0 == base
    times = Counter(map(id, listed))
    assert times[id(m.algebra)] == 1 and set(times.values()) == {1}


def test_kept_derivation_rows_survive_every_reader():
    m = build_example("de7_lorentz").algebra
    alg = m.algebra
    jacobi_defect(alg)
    isotropy_algebra(m)
    derivation_space(alg)
    derivation_defects(alg, [Matrix.identity(alg.dim)])
    assert m._isotropy_rows[1] is alg._derivation_rows
    assert alg._derivation_rows == list(derivation_rows(alg))


def test_kept_lower_central_series_survives_every_reader():
    m = build_example("de7_lorentz").algebra
    alg = m.algebra
    kept = alg._lower_central_series
    MetricLieAlgebra.checked(alg, m.form)
    lower_central_series(alg)
    step = nilpotency_step(alg)
    for _, invariant in INVARIANTS.values():
        invariant(m)
    reduce(m)
    assert alg._lower_central_series is kept and m.nprime() is kept[1]
    assert list(kept) == lower_central_series_by_dense_brackets(alg)
    lower_central_series(alg).append(Subspace.zero(alg.dim))  # a fresh list: the kept series is not touched
    assert lower_central_series(alg) == list(kept) and nilpotency_step(alg) == step
    solvable = LieAlgebra(2, {(0, 1): {1: 1}})  # [e1, e2] = e2: the series stops at n'
    with pytest.raises(PreconditionError, match="algebra must be nilpotent"):
        MetricLieAlgebra.checked(solvable, SymForm(Matrix.identity(2)))
    with pytest.raises(NotNilpotentError):
        nilpotency_step(solvable)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-paper"],
        ["invariants", "catalog:paper_2_3"],
        ["go", "catalog:paper_2_3", "--samples", "2", "--seed", "1"],
        ["reduce", "catalog:de7_lorentz"],
    ],
)
def test_every_command_descends_each_algebras_series_once(monkeypatch, capsys, argv):
    # n', the nilpotency check, the series and the step all read the series the algebra keeps.
    descended = []  # every algebra whose series is built, kept alive so that no id is reused

    def counted(alg):
        descended.append(alg)
        return derived_subalgebra(alg)

    _rebind_everywhere(monkeypatch, derived_subalgebra, counted)
    assert main(argv) == 0
    capsys.readouterr()
    times = Counter(map(id, descended))
    assert descended and set(times.values()) == {1}, sorted(times.values())


def test_every_row_into_elimination_is_nonzero_ints_at_distinct_columns(monkeypatch):
    real, calls = linalg._echelon, []

    def checked(rows, ncols, *options):
        rows = [tuple(row) for row in rows]
        for row in rows:
            assert all(type(v) is int and v for _, v in row) and len({j for j, _ in row}) == len(row), row
        calls.append(len(rows))
        return real(rows, ncols, *options)

    monkeypatch.setattr(linalg, "_echelon", checked)
    for name in EXAMPLE_NAMES:  # catalog invariants: n', v, center, signature; then h, the radical, lower central series
        m = build_example(name).algebra
        isotropy_algebra(m)
        assert m.form.radical().dim == 0
        lower_central_series(m.algebra)
    for _, base, data in ladder_rungs():  # reduce: plus, intersect, centralizer, radical of a restriction, quotient
        assert reduce(extend2(base, data)).m0 == base
    assert len(calls) > 100 and sum(calls) > 1000


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_kept_values_equal_fresh_ones(name):
    m = build_example(name).algebra  # its pinned invariants have filled what m keeps
    assert m.nprime() is m.nprime() and m.form.signature() is m.form.signature()
    assert m.nprime() == derived_subalgebra(m.algebra)
    assert m.v_complement() == orth_complement(m, derived_subalgebra(m.algebra))
    assert m.form.signature() == symmetric_signature(m.form.gram)
    gram = m.form.gram.rows
    den = math.lcm(*(x.denominator for row in gram for x in row))
    assert m.form._den == den
    assert m.form._cleared == tuple(tuple((j, int(x * den)) for j, x in enumerate(row) if x) for row in gram)
    assert m._nprime_form == restrict_form(m, m.nprime()) and m._v_form == restrict_form(m, m.v_complement())


def _split_extension(table, k):
    """Base table and extension data of a table on (f, x_1..x_k, e) where nothing brackets into f and e is central."""
    e = k + 1
    d = [[0] * k for _ in range(k)]
    omega = [[0] * k for _ in range(k)]
    phi, base = [0] * k, {}
    for (i, j), targets in table.items():
        for t, c in targets.items():
            if i == 0 and t == e:
                phi[j - 1] = c
            elif i == 0:
                d[t - 1][j - 1] = c
            elif t == e:
                omega[i - 1][j - 1], omega[j - 1][i - 1] = c, -c
            else:
                base.setdefault((i - 1, j - 1), {})[t - 1] = c
    return base, Matrix(d), to_vec(phi), Matrix(omega)


def round_trip_case(rng: random.Random, shape: str, k: int):
    """A random nilpotent base of dimension k and valid data whose extension reduces in the given shape.

    The extension is drawn first, as a random nilpotent table on (f, x_1..x_k, e),
    so the data read off it is valid, and redrawn until the derived algebra holds
    e.  "de5" takes a Euclidean base, "de7" a Lorentz base (its negative square
    on one of the last two base vectors, which brackets reach most) whose
    restriction to the derived algebra has degeneracy 1, and "engel" the
    base (w, y_1..y_(k-2), z) with y Euclidean, <w, z> = 1, z in the derived
    algebra and some [y_i, z] = c e, c != 0, so the null plane (z, e) does not
    commute with its orthogonal and the reduction takes the Engel step.
    """
    while True:
        table = random_nilpotent_table(rng, k + 2)
        if shape == "engel":
            y_gram = sheared_gram(rng, [rng.choice([1, 2, Fraction(1, 2)]) for _ in range(k - 2)])
            gram = [[rng.choice([0, 1, -1])] + [0] * (k - 2) + [1]]
            gram += [[0, *row, 0] for row in y_gram.rows] + [[1] + [0] * (k - 1)]
            gram = Matrix(gram)
        else:
            diagonal = [rng.choice([1, 2, Fraction(1, 2)]) for _ in range(k)]
            if shape == "de7":
                diagonal[k - 1 - rng.randrange(2)] = -1
            gram = sheared_gram(rng, diagonal)
        base_table, d, phi, omega = _split_extension(table, k)
        base = MetricLieAlgebra.checked(LieAlgebra(k, base_table), SymForm(gram))
        data = ExtensionData(d, phi, omega, mu=Fraction(rng.choice([0, 1, -2])))
        m = extend2(base, data)
        nprime = m.nprime()
        if not nprime.contains_vector(basis_vec(k + 2, k + 1)):
            continue
        tag = classify_degeneracy(m).tag
        if shape == "de7" and tag not in (DegeneracyTag.DEG1_SEMIDEFINITE, DegeneracyTag.DEG1_INDEX1):
            continue
        if shape == "engel" and not (
            nprime.contains_vector(basis_vec(k + 2, k))
            and any(table.get((y, k), {}).get(k + 1) for y in range(2, k))
        ):
            continue
        return base, data, m, tag


def test_reduce_undoes_extend2_on_random_nilpotent_bases():
    # Runs through every subspace the reduction solves for: the radical on n',
    # the orthogonal complements, the Engel common kernel and the intersections.
    seen, non_abelian = set(), set()

    @seed(20261018)
    @settings(max_examples=90, deadline=None, database=None)
    @given(shape=st.sampled_from(["de5", "de7", "engel"]), k=st.integers(3, 5), rng_seed=st.integers(0, 2**32))
    def check(shape, k, rng_seed):
        base, data, m, tag = round_trip_case(random.Random(rng_seed), shape, k)
        result = reduce(m)
        assert result.m0 == base
        assert (result.witness.engel_pair is not None) == (shape == "engel")
        if shape == "de5":
            assert tag == DegeneracyTag.DEG1_SEMIDEFINITE
        if shape == "engel":
            assert tag == DegeneracyTag.DEG2_SEMIDEFINITE
            w = result.witness
            assert (w.eg, w.m1, w.engel_pair, w.dual_pair) == engel_split_by_flag(m)
        seen.add((shape, tag))
        if base.algebra.table:
            non_abelian.add(shape)

    check()
    assert non_abelian == {"de5", "de7", "engel"}
    assert seen == {
        ("de5", DegeneracyTag.DEG1_SEMIDEFINITE),
        ("de7", DegeneracyTag.DEG1_SEMIDEFINITE),
        ("de7", DegeneracyTag.DEG1_INDEX1),
        ("engel", DegeneracyTag.DEG2_SEMIDEFINITE),
    }
