"""Derivations, skew-symmetric operators, and the isotropy algebra.

An OperatorSpace is stored once, as the Subspace of its operators' row-major
entries, canonical in reduced echelon form and held in ints at one scale:
equality is equality of bases, and membership and coordinates are read at
the pivots; the dense basis is built only when read.  One view of the
entries is derived from it, each operator's (row, column, int) triples, and
the invariance and certificate checks read that: the invariance check tests
V or, when dim V > n/2, its annihilator under the transposes, one loop over
the triples either way.
The derivation and skew identities are keyed sparse rows over the entries of
D: the kernels solve them, and the defect checks sum them over an operator's
int entries.  The rows cutting out the isotropy algebra, and their index, are
kept on the metric algebra; its kernel is certified by the defect check of its
own basis and by the rank mod p of the rows that became pivots.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from gonil.lie import LieAlgebra, _check_ambient
from gonil.linalg import _PRIMES, DimensionMismatch, Matrix, Subspace, _rank_mod, _row_space, _to_ints
from gonil.metric import MetricLieAlgebra, SymForm, _indexed, _skew_rows


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
        size = ambient_dim * ambient_dim
        return cls(ambient_dim, Subspace(size, *_row_space(_int_operators(ambient_dim, list(ops))[1], size)))

    @property
    def dim(self) -> int:
        return self.span.dim

    @cached_property
    def basis(self) -> tuple[Matrix, ...]:
        return tuple(Matrix.from_vector(v, self.ambient_dim) for v in self.span.basis.rows)

    @cached_property
    def _triples(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """Each basis operator's stored span entries as (row, column, int) triples in row-major order, times the
        span's ``den``; a positive scalar changes no membership, so every check on h's operators reads these."""
        n = self.ambient_dim
        return tuple(tuple((*divmod(k, n), v) for k, v in entries) for entries in self.span.entries)

    def contains(self, op: Matrix) -> bool:
        return self.coordinates(op) is not None

    def coordinates(self, op: Matrix):
        """Coefficients of op in this basis, or None if outside the span."""
        if op.nrows != self.ambient_dim or op.ncols != self.ambient_dim:
            raise DimensionMismatch("operator size differs from the algebra's dimension")
        return self.span.coordinates(op.vectorize())


def derivation_space(alg: LieAlgebra) -> OperatorSpace:
    """All D with D[x,y] = [Dx,y] + [x,Dy], via one kernel computation."""
    return _solution_space(alg.dim, alg._derivation_rows)


def _int_operators(n: int, ops) -> tuple[int, tuple[tuple[tuple[int, int], ...], ...]]:
    """(L, each n-by-n operator's nonzero entries times L as (row-major index, int) pairs) for L the operators'
    least common denominator, as a Subspace stores its rows; DimensionMismatch for any other size."""
    if any(op.nrows != n or op.ncols != n for op in ops):
        raise DimensionMismatch("operator size differs from the algebra's dimension")
    return _to_ints(enumerate(op.vectorize()) for op in ops)


def _first_defects(indexed, ops) -> list:
    """Per operator, by (row-major index, int) entries of a positive multiple, its first failed row's key or None."""
    keys, by_entry = indexed
    out = []
    for op in ops:
        sums: dict[int, int] = {}
        for k, v in op:
            for r, c in by_entry.get(k, ()):
                sums[r] = sums.get(r, 0) + c * v
        failing = [r for r, total in sums.items() if total]
        out.append(keys[min(failing)] if failing else None)
    return out


def derivation_defects(alg: LieAlgebra, ops) -> list[tuple[int, int] | None]:
    """Per operator D, the first pair i < j with D[e_i, e_j] != [D e_i, e_j] + [e_i, D e_j], or None."""
    return _first_defects(_indexed(alg._derivation_rows), _int_operators(alg.dim, ops)[1])


def skew_space(form: SymForm) -> OperatorSpace:
    """All D with D^T G + G D = 0 for the form's Gram matrix G."""
    return _solution_space(form.dim, _skew_rows(form))


def skew_defects(form: SymForm, ops) -> list[tuple[int, int] | None]:
    """Per operator D, the first entry (a, b), a <= b, where D^T G + G D is nonzero, or None."""
    return _first_defects(_indexed(_skew_rows(form)), _int_operators(form.dim, ops)[1])


def _solution_space(n: int, keyed_rows) -> OperatorSpace:
    """Operators whose row-major entries solve every keyed sparse row; no rows means all operators."""
    return OperatorSpace(n, Subspace._kernel(n * n, (row.items() for _, row in keyed_rows)))


def isotropy_algebra(m: MetricLieAlgebra) -> OperatorSpace:
    """Skew-symmetric derivations of (n, <.,.>): the isotropy algebra.

    One kernel of the derivation and skew rows m keeps, so the basis is canonical, then two exact checks that it is
    the whole kernel, either failure internal.  Soundness: every basis operator solves every row.  Completeness: the
    rows that became pivots (m keeps no empty row, so ``origins`` indexes them all) have rank n^2 - dim h mod one of
    ``_PRIMES``, tried in turn, and a rank mod p is at most the rank over Q, so the kernel is no larger than h.
    """
    skew, derivation = m._isotropy_rows
    rows, origins, size = [row for _, row in chain(derivation, skew)], {}, m.dim * m.dim
    space = OperatorSpace(m.dim, Subspace._kernel(size, map(dict.items, rows), origins))
    if any(map(any, _isotropy_defects(m, space.span.entries))):  # a defect is a failed row's key, never empty
        raise AssertionError("internal: an isotropy basis operator fails a defining row")
    if not any(_rank_mod([rows[i] for i in origins.values()], p) == size - space.dim for p in _PRIMES):
        raise AssertionError("internal: the isotropy rows' rank mod p is below n^2 - dim h")
    return space


def _isotropy_defects(m: MetricLieAlgebra, ops) -> list[list]:
    """[skew_defects, derivation_defects] under m of ops (as _first_defects takes them), read through m's kept index."""
    return [_first_defects(rows, ops) for rows in m._isotropy_index]


def is_adh_invariant(m: MetricLieAlgebra, v: Subspace, h: OperatorSpace | None = None) -> bool:
    """True iff D(V) <= V for every basis operator D of the isotropy algebra.

    D(V) <= V exactly when D^T(ann V) <= ann V, so when dim V > n/2 the annihilator, the
    smaller side, is tested instead, each triple of D transposed.  Each image is summed in
    ints over D's triples and the space's stored entries, and tested at that space's pivots.
    """
    _check_ambient(m.algebra, v)
    if h is None:
        h = isotropy_algebra(m)
    elif h.ambient_dim != m.dim:
        raise DimensionMismatch("operator space dimension differs from the algebra")
    transpose = 2 * v.dim > m.dim
    w = v.annihilator() if transpose else v
    xs = [dict(x) for x in w.entries]
    for d in h._triples:
        if transpose:
            d = [(c, r, b) for r, c, b in d]
        for x in xs:
            image = {}
            for r, c, b in d:
                if c in x:
                    image[r] = image.get(r, 0) + b * x[c]
            if not w._contains_entries(image):
                return False
    return True
