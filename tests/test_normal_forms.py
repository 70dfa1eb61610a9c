import itertools
from fractions import Fraction

import pytest

from gonil.normal_forms import (
    IwasawaFamily,
    NormalFormError,
    _verify_abelian,
    iwasawa_nilpotent_basis,
    maximal_abelian_family,
    q2_element,
    reference_gram,
)
from gonil.linalg import Matrix


def test_dimensions_match_parameter_counts():
    for m in range(3, 11):
        assert iwasawa_nilpotent_basis(1, m).dim == m - 2
    for m in range(4, 11):
        assert iwasawa_nilpotent_basis(2, m).dim == 2 * (m - 4) + 2


def test_minimum_sizes_rejected():
    with pytest.raises(NormalFormError):
        iwasawa_nilpotent_basis(1, 2)
    with pytest.raises(NormalFormError):
        iwasawa_nilpotent_basis(2, 3)
    with pytest.raises(NormalFormError):
        reference_gram(3, 6)


def test_generators_skew_against_reference_gram():
    for q, lo in ((1, 3), (2, 4)):
        for m in range(lo, 11):
            family = iwasawa_nilpotent_basis(q, m)
            g = family.gram
            for gen in family.generators:
                assert (gen.transpose() @ g + g @ gen).is_zero()
                assert gen.is_nilpotent()


def test_reference_gram_signatures():
    from gonil.linalg import symmetric_signature

    assert tuple(symmetric_signature(reference_gram(1, 5))) == (4, 1, 0)
    assert tuple(symmetric_signature(reference_gram(2, 6))) == (4, 2, 0)


def test_q1_family_abelian():
    for m in range(3, 9):
        family = iwasawa_nilpotent_basis(1, m)
        for a in family.generators:
            for b in family.generators:
                assert (a @ b - b @ a).is_zero()


def test_q2_family_not_abelian():
    family = iwasawa_nilpotent_basis(2, 6)
    assert any(
        not (a @ b - b @ a).is_zero()
        for a in family.generators
        for b in family.generators
    )
    outcomes = set()
    for a, b in itertools.combinations(family.generators, 2):
        commute = a @ b == b @ a
        outcomes.add(commute)
        if commute:
            _verify_abelian([a, b])
        else:
            with pytest.raises(NormalFormError, match="family is not abelian"):
                _verify_abelian([a, b])
    assert outcomes == {True, False}


def test_u1_family_abelian_and_inside():
    for m in (5, 6, 8):
        gens = maximal_abelian_family(1, m)
        assert len(gens) == m - 2
        family = iwasawa_nilpotent_basis(2, m)
        for g in gens:
            assert family.contains(g)


def test_u2_family_abelian_and_dimension():
    for m in (5, 6, 8):
        gens = maximal_abelian_family(2, m, u1=Fraction(1, 2), v1=Fraction(3))
        assert len(gens) == m - 3


def test_u2_requires_nonzero_v1():
    with pytest.raises(NormalFormError, match="v1 != 0"):
        maximal_abelian_family(2, 6, u1=1, v1=0)
    with pytest.raises(NormalFormError, match="parameters"):
        maximal_abelian_family(2, 6)


def test_u3_family_abelian_and_heisenberg_shaped():
    for m in (5, 6, 8):
        gens = maximal_abelian_family(3, m)
        assert len(gens) == m - 3
        # all generators have alpha = 0: entry (1, 0) vanishes
        for g in gens:
            assert g[1, 0] == 0


def test_membership_rejects_mixed_u_v_in_u1_span():
    m = 6
    generic = q2_element(m, 0, 0, [1, 0], [1, 0])  # both u and v nonzero
    u1_span = IwasawaFamily((m - 2, 2), m, reference_gram(2, m), maximal_abelian_family(1, m))
    assert not u1_span.contains(generic)
    full = iwasawa_nilpotent_basis(2, m)
    assert full.contains(generic)


def test_membership_shape_check():
    family = iwasawa_nilpotent_basis(2, 6)
    with pytest.raises(NormalFormError):
        family.contains(Matrix.identity(5))


def test_u2_first_generator_matches_block_layout():
    m = 6
    gens = maximal_abelian_family(2, m, u1=Fraction(2), v1=Fraction(5))
    g0 = gens[0]
    assert g0[1, 0] == 1  # alpha
    assert g0[2, 0] == 2 and g0[2, 1] == 5  # u1, v1 in the first middle slot
    assert g0[m - 2, m - 1] == -1
