import pytest

from gonil.lie import (
    JacobiError,
    LieAlgebra,
    NotNilpotentError,
    abelian,
    bracket_subspaces,
    center,
    centralizer,
    derived_subalgebra,
    is_ideal,
    jacobi_defect,
    lower_central_series,
    nilpotency_step,
    transporter,
)
from gonil.linalg import DimensionMismatch, Subspace, basis_vec


def test_jacobi_abelian_empty():
    assert jacobi_defect(abelian(5)) == []


def test_jacobi_paper_example_empty(paper):
    assert jacobi_defect(paper.algebra.algebra) == []


def test_jacobi_perturbed_table_reports_triple():
    # [e1,e2]=e1, [e1,e3]=e2 with the perturbation [e2,e3]=e1: the cyclic sum
    # at (0,1,2) leaves [e3,[e1,e2]] = -[e1,e3] = -e2 uncancelled.
    bad = LieAlgebra(
        3, {(0, 1): {0: 1}, (0, 2): {1: 1}, (1, 2): {0: 1}}, validate=False
    )
    defects = jacobi_defect(bad)
    assert defects
    (triple, vec) = defects[0]
    assert triple == (0, 1, 2)
    assert vec == tuple(-x for x in basis_vec(3, 1))


def test_constructor_rejects_jacobi_violation():
    with pytest.raises(JacobiError):
        LieAlgebra(3, {(0, 1): {0: 1}, (0, 2): {1: 1}, (1, 2): {0: 1}})


def test_lcs_abelian():
    assert [s.dim for s in lower_central_series(abelian(4))] == [4, 0]


def test_lcs_heisenberg(heis3):
    assert [s.dim for s in lower_central_series(heis3.algebra)] == [3, 1, 0]


def test_lcs_paper_example(paper):
    assert [s.dim for s in lower_central_series(paper.algebra.algebra)] == [12, 4, 3, 1, 0]


def test_series_first_steps():
    # sl2 is perfect: [n, n] = n, so the lower central series keeps it once.
    sl2 = LieAlgebra(3, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})  # h, e, f
    solvable = LieAlgebra(2, {(0, 1): {1: 1}})  # [e0, e1] = e1
    for alg, lower in ((sl2, [3, 3]), (solvable, [2, 1]), (abelian(1), [1, 0])):
        assert [s.dim for s in lower_central_series(alg)] == lower


def test_bracket_basis_refuses_out_of_range_indices(heis3):
    alg = heis3.algebra
    for i, j in ((-1, 0), (0, -1), (1, 7), (3, 0), (0, 3)):
        with pytest.raises(DimensionMismatch, match=r"^basis index out of range for dim 3$"):
            alg.bracket_basis(i, j)
    assert alg.bracket_basis(0, 1) == tuple(-x for x in alg.bracket_basis(1, 0)) != (0, 0, 0)


def test_algebra_refuses_a_negative_dimension():
    with pytest.raises(DimensionMismatch, match="^dimension -1 is negative$"):
        LieAlgebra(-1, {})
    assert LieAlgebra(0, {}).dim == 0


def test_mutating_the_returned_table_changes_no_bracket(heis3):
    alg = heis3.algebra
    before = [[alg.bracket_basis(i, j) for j in range(3)] for i in range(3)]
    table = alg.table
    for targets in table.values():
        for k in targets:
            targets[k] += 5
    table[(0, 2)] = {1: 1}
    assert [[alg.bracket_basis(i, j) for j in range(3)] for i in range(3)] == before
    assert alg.bracket((1, 1, 1), (0, 1, 2)) == alg.bracket_basis(0, 1)
    assert derived_subalgebra(alg).dim == 1 and center(alg).dim == 1


def test_step_abelian():
    assert nilpotency_step(abelian(3)) == 1


def test_step_paper_example(paper):
    assert nilpotency_step(paper.algebra.algebra) == 4


def test_step_filiform(filiform4):
    assert nilpotency_step(filiform4.algebra) == 3


def test_step_rejects_non_nilpotent():
    solvable = LieAlgebra(2, {(0, 1): {1: 1}})  # [e1,e2] = e2
    with pytest.raises(NotNilpotentError):
        nilpotency_step(solvable)


def test_center_abelian():
    assert center(abelian(6)).dim == 6


def test_center_paper_example(paper):
    z = center(paper.algebra.algebra)
    assert z.dim == 7
    assert z.contains_vector(basis_vec(12, 11))  # e4
    f4_plus_e2 = tuple(a + b for a, b in zip(basis_vec(12, 3), basis_vec(12, 9)))
    f6_minus_e1 = tuple(a - b for a, b in zip(basis_vec(12, 5), basis_vec(12, 8)))
    for vec in (basis_vec(12, 2), f4_plus_e2, f6_minus_e1, basis_vec(12, 6), basis_vec(12, 7)):
        assert z.contains_vector(vec)


def test_paper_six_dim_ideal(paper):
    alg = paper.algebra.algebra
    ideal = Subspace.span(12, [basis_vec(12, i) for i in (0, 1, 8, 9, 10, 11)])
    assert is_ideal(alg, ideal)


def test_center_equals_centralizer_of_full(paper):
    alg = paper.algebra.algebra
    assert center(alg) == centralizer(alg, Subspace.full(12))


def test_centralizer_monotone(paper):
    alg = paper.algebra.algebra
    chain = lower_central_series(alg)
    for small, large in zip(chain[1:], chain):
        assert centralizer(alg, large) <= centralizer(alg, small)


def test_series_terms_are_ad_invariant_ideals(paper, de5):
    for m in (paper.algebra, de5):
        alg = m.algebra
        full = Subspace.full(alg.dim)
        for term in lower_central_series(alg)[1:]:
            assert bracket_subspaces(alg, full, term) <= term and is_ideal(alg, term)


def test_transporter_generalizes_centralizer(heis3):
    alg = heis3.algebra
    v = derived_subalgebra(alg)
    assert transporter(alg, v, Subspace.zero(3)) == centralizer(alg, v)
