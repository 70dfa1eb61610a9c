"""Symmetric bilinear forms on a Lie algebra and the metric pairing.

Restriction, radical and orthogonal complement are exact subspace computations,
summed in ints over the nonzero entries of the cleared Gram matrix
(``linalg._times``) and of a subspace's stored rows.  The
Gram matrix stays the stored form at the edge, which diagonalization reads.
The frozen SymForm and MetricLieAlgebra keep what they fix on first use (the
cleared Gram matrix and its scale, its diagonalization and signature, v and
the forms restricted to n' and v, the isotropy identity rows and their index,
the lowered brackets with their scale); no kept value is ever mutated.  n' is
term 1 of the lower central series the algebra keeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Iterator, Sequence

from gonil.lie import LieAlgebra, _check_ambient
from gonil.linalg import (
    DimensionMismatch,
    Matrix,
    SignatureTriple,
    Subspace,
    Vec,
    _ZERO,
    _diagonalize,
    _times,
    _to_fractions,
    _to_ints,
    to_vec,
)


class PreconditionError(ValueError):
    """An operation's stated precondition does not hold for the given input."""


@dataclass(frozen=True)
class SymForm:
    """A symmetric bilinear form by its Gram matrix G; frozen, so it keeps its signature and, in ``_cleared``,
    each row's nonzero entries times ``_den``, their least common denominator, as (column, int) pairs."""

    gram: Matrix
    _den: int = field(init=False, repr=False, compare=False)
    _cleared: tuple[tuple[tuple[int, int], ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.gram.is_symmetric():
            raise PreconditionError("Gram matrix must be symmetric")
        for name, value in zip(("_den", "_cleared"), _to_ints(map(enumerate, self.gram.rows))):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.gram.nrows

    @cached_property
    def _diagonal(self) -> tuple[Matrix, Vec]:  # congruence basis rows and values; checked symmetric on construction
        return _diagonalize(self.gram)

    @cached_property
    def _signature(self) -> SignatureTriple:
        return SignatureTriple.of(self._diagonal[1])

    def pair(self, x: Sequence, y: Sequence) -> Fraction:
        x, y = to_vec(x), to_vec(y)
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch("pairing needs vectors of the form's dimension")
        rows = self._cleared
        total = sum([a * sum([y[j] * g for j, g in row if y[j]], _ZERO) for a, row in zip(x, rows) if a], _ZERO)
        return total / self._den

    def signature(self) -> SignatureTriple:
        return self._signature

    def is_nondegenerate(self) -> bool:
        return self.signature().r == 0

    def radical(self) -> Subspace:
        """{x : <x, .> = 0}, in the form's own coordinates."""
        return Subspace._kernel(self.dim, self._cleared)


@dataclass(frozen=True)
class MetricLieAlgebra:
    """A nilpotent Lie algebra together with a nondegenerate symmetric form."""

    algebra: LieAlgebra
    form: SymForm

    def __post_init__(self):
        if self.algebra.dim != self.form.dim:
            raise DimensionMismatch("algebra and form dimensions differ")

    @classmethod
    def checked(cls, algebra: LieAlgebra, form: SymForm) -> MetricLieAlgebra:
        """Construct with full invariant validation (nondegeneracy, nilpotency from the algebra's kept series)."""
        m = cls(algebra, form)
        if not form.is_nondegenerate():
            raise PreconditionError("metric form must be nondegenerate")
        if algebra._lower_central_series[-1].dim:
            raise PreconditionError("algebra must be nilpotent")
        return m

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def pair(self, x: Sequence, y: Sequence) -> Fraction:
        return self.form.pair(x, y)

    def nprime(self) -> Subspace:
        """The derived algebra [n, n]: term 1 of the algebra's kept lower central series."""
        return self.algebra._lower_central_series[1]

    def v_complement(self) -> Subspace:
        """The orthogonal complement of the derived algebra."""
        return self._v_complement

    @cached_property
    def _v_complement(self) -> Subspace:
        return orth_complement(self, self.nprime())

    @cached_property
    def _nprime_form(self) -> SymForm:  # the form restricted to n', which keeps its signature
        return restrict_form(self, self.nprime())

    @cached_property
    def _v_form(self) -> SymForm:
        return restrict_form(self, self._v_complement)

    @cached_property
    def _isotropy_rows(self) -> tuple[list, list]:
        """The form's skew rows and the algebra's derivation rows: the identities the isotropy algebra solves."""
        return list(_skew_rows(self.form)), self.algebra._derivation_rows

    @cached_property
    def _isotropy_index(self) -> list:
        """Both row sets _indexed, on the first defect check: isotropy_algebra's own, right after its kernel."""
        return [_indexed(rows) for rows in self._isotropy_rows]

    @cached_property
    def _lowered(self) -> tuple[int, dict[tuple[int, int], dict[int, int]]]:
        """(S, the nonzero S <[e_a, e_c], e_b> as {(a, c): {b: int}}) for S the form's ``_den`` times the algebra's.

        Summed in ints from the algebra's int bracket table and the cleared Gram matrix.
        """
        gram, low = self.form._cleared, {}
        for (i, j), targets in self.algebra._table.items():
            if row := {b: x for b, x in _times(gram, targets.items()).items() if x}:
                low[i, j], low[j, i] = row, {b: -x for b, x in row.items()}
        return self.form._den * self.algebra._den, low


def _skew_rows(form: SymForm) -> Iterator[tuple[tuple[int, int], dict[int, int]]]:
    """Entry (a, b), a <= b, of D^T G + G D as a sparse int row over the row-major entries of D; zero rows skipped.

    Read off the nonzero entries of G's rows a and b (G is symmetric), cleared to ints: a positive multiple.
    """
    n, g = form.dim, form._cleared
    for a in range(n):
        for b in range(a, n):
            row = {l * n + a: x for l, x in g[b]}  # (D^T G)[a, b] = sum_l D[l, a] G[l, b]
            for l, x in g[a]:  # (G D)[a, b] = sum_l G[a, l] D[l, b]
                row[l * n + b] = row.get(l * n + b, 0) + x
            if row:
                yield (a, b), row


def _indexed(keyed_rows) -> tuple[list, dict[int, list[tuple[int, Fraction]]]]:
    """The keys cut to two items (derivation row (i, j, m) is named (i, j)), and {entry: [(row index, coefficient)]}."""
    keys, by_entry = [], {}
    for r, (key, row) in enumerate(keyed_rows):
        keys.append(key[:2])
        for x, c in row.items():
            by_entry.setdefault(x, []).append((r, c))
    return keys, by_entry


def orth_complement(m: MetricLieAlgebra, v: Subspace) -> Subspace:
    """{x : <x, w> = 0 for all w in V} with respect to m's form."""
    _check_ambient(m.algebra, v)
    return Subspace._kernel(m.dim, _orth_rows(m, v))


def _orth_rows(m: MetricLieAlgebra, v: Subspace) -> Iterator:
    """(L G)(L' w) per stored row L' w of V, zero entries dropped, in ints: the rows cutting out V's orthogonal."""
    return ({i: a for i, a in _times(m.form._cleared, w).items() if a}.items() for w in v.entries)


def restrict_form(m: MetricLieAlgebra, v: Subspace) -> SymForm:
    """Gram matrix of the form in V's canonical basis: (L G w'_i) . w'_j over L L'^2, in ints, for the cleared
    Gram matrix L G and V's stored rows w'_i = L' w_i, summed over their nonzero entries."""
    _check_ambient(m.algebra, v)
    products = [_times(m.form._cleared, w) for w in v.entries]
    pairs = [[(j, sum([g[c] * b for c, b in y if c in g])) for j, y in enumerate(v.entries)] for g in products]
    return SymForm(Matrix([[x for _, x in _to_fractions(m.form._den * v.den**2, row)] for row in pairs], ncols=v.dim))


def radical_of_restriction(m: MetricLieAlgebra, v: Subspace) -> Subspace:
    """Radical of the form restricted to V, in ambient coordinates: the x in V with <x, w> = 0 for all w in V.

    One solve: V's annihilator rows cut out V, the rows G w its orthogonal complement.
    """
    _check_ambient(m.algebra, v)
    return Subspace._kernel(m.dim, chain(v.annihilator().entries, _orth_rows(m, v)))
