"""Nilpotent triangular families for the indefinite orthogonal algebras.

For index 1 and index 2 reference forms in their standard block shapes, this
module builds the strictly-triangular nilpotent family u (every generator
skew for the reference form and nilpotent), plus, for index 2, the three
maximal abelian subfamilies used to classify abelian subalgebras of u.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from gonil.isotropy import OperatorSpace, skew_defects
from gonil.linalg import Matrix, _sparse_rows, basis_vec
from gonil.metric import SymForm


class NormalFormError(ValueError):
    pass


@dataclass(frozen=True)
class IwasawaFamily:
    """Generators of the nilpotent triangular factor for a reference form."""

    signature: tuple[int, int]
    dim_ambient: int
    gram: Matrix
    generators: tuple[Matrix, ...]

    @property
    def dim(self) -> int:
        return len(self.generators)

    @cached_property
    def _space(self) -> OperatorSpace:
        return OperatorSpace.from_operators(self.dim_ambient, self.generators)

    def contains(self, x: Matrix) -> bool:
        if x.nrows != self.dim_ambient or x.ncols != self.dim_ambient:
            raise NormalFormError("operator shape differs from the family ambient")
        return self._space.contains(x)


def reference_gram(q: int, m: int) -> Matrix:
    """The block Gram matrix the family is skew against: index q in {1, 2}.

    Vector i < q pairs with vector m - q + i (q null pairs); the vectors between are an identity block.
    """
    if q not in (1, 2):
        raise NormalFormError("index q must be 1 or 2")
    if m < q + 2:
        raise NormalFormError(f"index-{q} family needs m >= {q + 2}")
    partner = {i: m - q + i for i in range(q)} | {m - q + i: i for i in range(q)}
    return Matrix([[1 if partner.get(i, i) == j else 0 for j in range(m)] for i in range(m)])


def _q1_generator(m: int, t: int) -> Matrix:
    rows = [[Fraction(0)] * m for _ in range(m)]
    rows[1 + t][0] = Fraction(1)
    rows[m - 1][1 + t] = Fraction(-1)
    return Matrix(rows)


def q2_element(m: int, alpha, beta, u: Sequence, v: Sequence) -> Matrix:
    """General index-2 family element with parameters (alpha, beta, u, v)."""
    if len(u) != m - 4 or len(v) != m - 4:
        raise NormalFormError("u and v must have length m - 4")
    rows = [[Fraction(0)] * m for _ in range(m)]
    rows[1][0] = Fraction(alpha)
    for t in range(m - 4):
        rows[2 + t][0] = Fraction(u[t])
        rows[2 + t][1] = Fraction(v[t])
        rows[m - 2][2 + t] = -Fraction(u[t])
        rows[m - 1][2 + t] = -Fraction(v[t])
    rows[m - 2][1] = Fraction(beta)
    rows[m - 2][m - 1] = -Fraction(alpha)
    rows[m - 1][0] = -Fraction(beta)
    return Matrix(rows)


def iwasawa_nilpotent_basis(q: int, m: int) -> IwasawaFamily:
    """Generator matrices of the nilpotent triangular family.

    Index 1: one generator per middle coordinate, dim m - 2; the family is
    abelian.  Index 2: generators for alpha, beta and both middle parameter
    vectors, dim 2(m - 4) + 2.  Every generator is verified skew for the
    reference form and nilpotent.
    """
    gram = reference_gram(q, m)
    if q == 1:
        gens = tuple(_q1_generator(m, t) for t in range(m - 2))
    else:
        k = m - 4
        zero = [0] * k
        gens = [q2_element(m, 1, 0, zero, zero), q2_element(m, 0, 1, zero, zero)]
        for t in range(k):
            gens.append(q2_element(m, 0, 0, basis_vec(k, t), zero))
        for t in range(k):
            gens.append(q2_element(m, 0, 0, zero, basis_vec(k, t)))
        gens = tuple(gens)
    family = IwasawaFamily((m - q, q), m, gram, gens)
    for gen, skew in zip(gens, skew_defects(SymForm(gram), gens)):
        if skew is not None:
            raise NormalFormError("generator is not skew for the reference form")
        if not gen.is_nilpotent():
            raise NormalFormError("generator is not nilpotent")
    if q == 1:
        _verify_abelian(gens)
    return family


def maximal_abelian_family(
    which: int, m: int, u1=None, v1=None
) -> tuple[Matrix, ...]:
    """One of the three maximal abelian subfamilies of the index-2 family.

    1: all elements with v = 0.
    2: the line through (alpha=1, u=u1*e1, v=v1*e1), v1 != 0, plus the
       (w, beta) family supported away from the first middle coordinate.
    3: the u-side polarization (all u parameters plus beta) of the index-2
       family's Heisenberg subfamily {alpha = 0}; it is maximal abelian
       within that subfamily, and other polarizations (for example the
       v-side) are equally valid choices.

    Every returned family is verified abelian by exhaustive pairwise
    commutators and verified to lie inside the full family.
    """
    if which not in (1, 2, 3):
        raise NormalFormError("family selector must be 1, 2 or 3")
    k = m - 4
    family = iwasawa_nilpotent_basis(2, m)
    gens = family.generators  # alpha, beta, u_1..u_k, v_1..v_k
    if which == 1:
        gens = gens[: k + 2]
    elif which == 2:
        if m < 5:
            raise NormalFormError("family 2 needs m >= 5")
        if u1 is None or v1 is None:
            raise NormalFormError("family 2 needs parameters u1 and v1")
        v1 = Fraction(v1)
        if v1 == 0:
            raise NormalFormError("family 2 needs v1 != 0")
        u_vec = [Fraction(u1)] + [Fraction(0)] * (k - 1)
        v_vec = [v1] + [Fraction(0)] * (k - 1)
        gens = (q2_element(m, 1, 0, u_vec, v_vec), gens[1]) + gens[3 : k + 2]
    else:
        gens = gens[1 : k + 2]
    for gen in gens:
        if not family.contains(gen):
            raise NormalFormError("family generator escapes the ambient family")
    _verify_abelian(gens)
    return gens


def _verify_abelian(gens: Sequence[Matrix]) -> None:
    """Every AB - BA is zero, summed at (i, j) over the nonzero products A[i,k] B[k,j] of the sparse rows only."""
    ops = [_sparse_rows(g.rows) for g in gens]
    for i, a in enumerate(ops):
        for b in ops[i + 1 :]:
            acc = {}
            for left, right, sign in ((a, b, 1), (b, a, -1)):
                for r, row in enumerate(left):
                    for k, x in row:
                        for j, y in right[k]:
                            acc[r, j] = acc.get((r, j), 0) + sign * x * y
            if any(acc.values()):
                raise NormalFormError("family is not abelian")
