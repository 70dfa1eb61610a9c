"""Derivations, skew-symmetric operators, and the isotropy algebra.

An OperatorSpace is stored once, as the Subspace of its operators' row-major
entries, canonical in reduced echelon form: equality is equality of bases,
and membership and coordinates are read at the pivots.  Each operator's
nonzero entries are split off that Subspace's kept rows, as they are and
times the operator's own common denominator, in ints; the dense basis is
built only when read.  The closure and invariance checks run in integers:
the closure check forms a commutator only where one operator's columns meet
the other's rows, and the invariance check tests V or, when dim V > n/2, its
annihilator under the transposes.  The derivation
and skew identities are keyed sparse rows over the entries of D: the kernels
solve them, and the defect checks evaluate them column-indexed.  The rows
cutting out the isotropy algebra, and their index, are kept on the metric algebra.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain

from gonil.lie import LieAlgebra
from gonil.linalg import DimensionMismatch, Matrix, Subspace, _commutator_entries, _common_denominator
from gonil.linalg import _scaled, _sparse_rows
from gonil.metric import MetricLieAlgebra, SymForm, _check_in_algebra, _indexed, _skew_rows


@dataclass(frozen=True)
class OperatorSpace:
    """A canonicalized linear space of n-by-n rational matrices, stored once as ``span``: the Subspace
    of their row-major entries, ambient dimension n^2.  ``basis`` builds the dense operators when read."""

    ambient_dim: int
    span: Subspace

    def __post_init__(self):
        if self.span.ambient_dim != self.ambient_dim * self.ambient_dim:
            raise DimensionMismatch("operator entries do not span an n^2-dimensional space")

    @classmethod
    def from_operators(cls, ambient_dim: int, ops) -> OperatorSpace:
        ops = list(ops)
        if any(op.nrows != ambient_dim or op.ncols != ambient_dim for op in ops):
            raise DimensionMismatch("operator size differs from the algebra's dimension")
        return cls(ambient_dim, Subspace.span(ambient_dim * ambient_dim, [op.vectorize() for op in ops]))

    @property
    def dim(self) -> int:
        return self.span.dim

    @cached_property
    def basis(self) -> tuple[Matrix, ...]:
        return tuple(Matrix.from_vector(v, self.ambient_dim) for v in self.span.basis.rows)

    @cached_property
    def _sparse(self) -> list[list[list[tuple[int, Fraction]]]]:
        """Each basis operator's nonzero entries, as the _sparse_rows of its rows, split off span's kept rows."""
        n = self.ambient_dim
        out = [[[] for _ in range(n)] for _ in range(self.dim)]
        for op, entries in zip(out, self.span.rows):
            for k, v in entries:
                op[k // n].append((k % n, v))
        return out

    @cached_property
    def _cleared(self) -> list[list[tuple[tuple[int, int], ...]]]:
        """Each basis operator as in _sparse, times its own entries' common denominator: int entries.

        A positive scalar per operator changes no membership, so the closure and invariance checks read these.
        """
        dens = [_common_denominator(v for _, v in entries) for entries in self.span.rows]
        return [[_scaled(row, den) for row in op] for op, den in zip(self._sparse, dens)]

    def contains(self, op: Matrix) -> bool:
        return self.coordinates(op) is not None

    def coordinates(self, op: Matrix):
        """Coefficients of op in this basis, or None if outside the span."""
        if op.nrows != self.ambient_dim or op.ncols != self.ambient_dim:
            raise DimensionMismatch("operator size differs from the algebra's dimension")
        return self.span.coordinates(op.vectorize())

    def verify_commutator_closed(self) -> None:
        """Raise ValueError unless the commutator of any two basis operators lies in the span.

        D_i D_j is zero unless a column of D_i is a nonempty row of D_j, so [D_i, D_j] is formed
        only when the columns of one operator meet the rows of the other; every other commutator
        is exactly zero.  Each is formed over the operators' int entries and tested at the span's pivots.
        """
        ops = self._cleared
        with_row, with_col = defaultdict(set), defaultdict(set)  # k -> the operators with a nonempty row k, a column k
        for i, op in enumerate(ops):
            for r, entries in enumerate(op):
                if entries:
                    with_row[r].add(i)
                for c, _ in entries:
                    with_col[c].add(i)
        for i, a in enumerate(ops):
            meets = [with_row[c] for entries in a for c, _ in entries] + [with_col[r] for r, e in enumerate(a) if e]
            for j in set().union(*meets):
                if j > i and not self.span._contains_entries(_commutator_entries(a, ops[j])):
                    raise ValueError("operator space is not closed under commutators")


def derivation_space(alg: LieAlgebra) -> OperatorSpace:
    """All D with D[x,y] = [Dx,y] + [x,Dy], via one kernel computation."""
    return _solution_space(alg.dim, alg._derivation_rows)


def _sparse_operators(n: int, ops) -> list[list[list[tuple[int, Fraction]]]]:
    """Each n-by-n operator as the _sparse_rows of its rows; DimensionMismatch for any other size."""
    if any(op.nrows != n or op.ncols != n for op in ops):
        raise DimensionMismatch("operator size differs from the algebra's dimension")
    return [_sparse_rows(op.rows) for op in ops]


def _first_defects(n: int, indexed, ops) -> list:
    """Per n-by-n operator (as _sparse_rows), the key of the least _indexed row its entries fail, or None."""
    keys, by_entry = indexed
    out = []
    for op in ops:
        den = _common_denominator(v for entries in op for _, v in entries)  # so int rows sum in ints
        sums: dict[int, int] = {}
        for i, entries in enumerate(op):
            for j, v in _scaled(entries, den):
                for r, c in by_entry.get(i * n + j, ()):
                    sums[r] = sums.get(r, 0) + c * v
        failing = [r for r, total in sums.items() if total]
        out.append(keys[min(failing)] if failing else None)
    return out


def derivation_defects(alg: LieAlgebra, ops) -> list[tuple[int, int] | None]:
    """Per operator D, the first pair i < j with D[e_i, e_j] != [D e_i, e_j] + [e_i, D e_j], or None."""
    return _first_defects(alg.dim, _indexed(alg._derivation_rows), _sparse_operators(alg.dim, ops))


def skew_space(form: SymForm) -> OperatorSpace:
    """All D with D^T G + G D = 0 for the form's Gram matrix G."""
    return _solution_space(form.dim, _skew_rows(form))


def skew_defects(form: SymForm, ops) -> list[tuple[int, int] | None]:
    """Per operator D, the first entry (a, b), a <= b, where D^T G + G D is nonzero, or None."""
    return _first_defects(form.dim, _indexed(_skew_rows(form)), _sparse_operators(form.dim, ops))


def _solution_space(n: int, keyed_rows) -> OperatorSpace:
    """Operators whose row-major entries solve every keyed sparse row; no rows means all operators."""
    return OperatorSpace(n, Subspace._kernel(n * n, (row.items() for _, row in keyed_rows)))


def isotropy_algebra(m: MetricLieAlgebra) -> OperatorSpace:
    """Skew-symmetric derivations of (n, <.,.>): the isotropy algebra.

    One kernel of the derivation and skew rows together, so the basis is
    canonical; the commutator closure is re-verified on construction.  The
    rows are the ones m keeps.
    """
    skew, derivation = m._isotropy_rows
    space = _solution_space(m.dim, chain(derivation, skew))
    space.verify_commutator_closed()
    return space


def _isotropy_defects(m: MetricLieAlgebra, ops) -> list[list]:
    """[skew_defects, derivation_defects] under m of ops (as _sparse_rows), read through m's kept index."""
    return [_first_defects(m.dim, rows, ops) for rows in m._isotropy_index]


def is_adh_invariant(m: MetricLieAlgebra, v: Subspace, h: OperatorSpace | None = None) -> bool:
    """True iff D(V) <= V for every basis operator D of the isotropy algebra.

    D(V) <= V exactly when D^T(ann V) <= ann V, so when dim V > n/2 the annihilator, the
    smaller side, is tested instead.  Each image is formed over the int entries of D and of
    the space's cleared rows, and tested at that space's pivots in ints.
    """
    _check_in_algebra(m, v)
    if h is None:
        h = isotropy_algebra(m)
    elif h.ambient_dim != m.dim:
        raise DimensionMismatch("operator space dimension differs from the algebra")
    if 2 * v.dim <= m.dim:
        xs = [dict(x) for x in v._int_rows[1].values()]
        return all(
            v._contains_entries({i: y for i, row in enumerate(d) if (y := sum(b * x[j] for j, b in row if j in x))})
            for d in h._cleared
            for x in xs
        )
    w = v.annihilator()
    return all(w._contains_entries(_transposed_image(d, y)) for d in h._cleared for y in w._int_rows[1].values())


def _transposed_image(d: list, y) -> dict[int, int]:
    """D^T y for D as _sparse_rows and y as (index, value) entries, as {index: value}."""
    out: dict[int, int] = {}
    for i, c in y:
        for k, b in d[i]:
            out[k] = out.get(k, 0) + b * c
    return out
