"""Lie algebras given by sparse structure constants.

A bracket table is stored once, in ints: L [e_i, e_j] for pairs i < j, for L
the table's least common denominator, with its antisymmetric view ad sharing
those rows, nonzero brackets only; the rational ``table`` is built when read.
Every loop costs the nonzero structure constants, not n slots: a bracket (of
vectors, basis vectors or subspaces, so the series and the ideal test) sums
x_i y_j L [e_i, e_j] over nonzero x_i, y_j and stored brackets, the
transporter and the derivation rows walk the nonzero ad(e_i), and the Jacobi
check sums each stored bracket against the nonzero ad of its targets.  The
derivation rows are listed once per algebra, when first read, and kept for
the derivation space and defects and the isotropy rows.  The Jacobi identity
is validated on construction unless the caller explicitly opts out (needed
to inspect broken candidate tables)."""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Iterator, Mapping, Sequence

from gonil.linalg import DimensionMismatch, Subspace, Vec, _ZERO, _row_space, _to_fractions, _to_ints, basis_vec, to_vec

BracketTable = Mapping[tuple[int, int], Mapping[int, Fraction]]


class JacobiError(ValueError):
    """The candidate bracket table violates the Jacobi identity."""

    def __init__(self, defects):
        self.defects = defects
        triples = ", ".join(str(t) for t, _ in defects[:3])
        super().__init__(f"Jacobi identity fails at {len(defects)} triple(s), e.g. {triples}")


class NotNilpotentError(ValueError):
    """Lower central series stabilized above zero."""


class EngelError(RuntimeError):
    """ad(s) on the null plane of the degeneracy-2 split has no common kernel vector."""


class LieAlgebra:
    """Finite-dimensional algebra over the rationals with antisymmetric bracket.

    ``_table`` holds L [e_i, e_j] for i < j only, as {k: int}, for L = ``_den``
    the table's least common denominator; ``_ad`` is its antisymmetric view,
    built once here: ``_ad[i]`` is {j: L [e_i, e_j]} over the j with a nonzero
    bracket only, sharing the ``_table`` dicts.  The rational ``table`` is built
    when read.  ``_derivation_rows`` is listed when first read and kept; no comparison reads it.
    """

    def __init__(self, dim: int, brackets: BracketTable, validate: bool = True):
        if dim < 0:
            raise DimensionMismatch(f"dimension {dim} is negative")
        table: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
        for (i, j), targets in brackets.items():
            if not (0 <= i < j < dim):
                raise DimensionMismatch(f"bracket key ({i},{j}) out of range for dim {dim}")
            for k in targets:
                if not 0 <= k < dim:
                    raise DimensionMismatch(f"bracket target {k} out of range for dim {dim}")
            table[(i, j)] = [(k, Fraction(c)) for k, c in targets.items()]
        self.dim = dim
        self._den, rows = _to_ints(table.values())
        self._table = {key: dict(row) for key, row in zip(table, rows) if row}
        self._ad = ad = [{} for _ in range(dim)]  # ad[i][j] = L [e_i, e_j] as {k: int coefficient}, if nonzero
        for (i, j), targets in self._table.items():
            ad[i][j], ad[j][i] = targets, {k: -c for k, c in targets.items()}
        if validate:
            defects = jacobi_defect(self)
            if defects:
                raise JacobiError(defects)

    @property
    def table(self) -> dict[tuple[int, int], dict[int, Fraction]]:
        return {key: dict(_to_fractions(self._den, targets.items())) for key, targets in self._table.items()}

    @cached_property
    def _derivation_rows(self) -> list[tuple[tuple[int, int, int], dict[int, int]]]:  # never mutated
        return list(derivation_rows(self))

    def _bracket_sum(self, xs, ys) -> dict:
        """L sum x_i y_j [e_i, e_j] over the (index, value) pairs xs of x and ys of y, as {index: value}, undivided."""
        out: dict = {}
        for i, a in xs:
            image = self._ad[i]
            for j, b in ys:
                if targets := image.get(j):
                    for k, c in targets.items():
                        out[k] = out.get(k, 0) + a * b * c
        return out

    def bracket_basis(self, i: int, j: int) -> Vec:
        """[e_i, e_j] as a coordinate vector."""
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise DimensionMismatch(f"basis index out of range for dim {self.dim}")
        return self.bracket(basis_vec(self.dim, i), basis_vec(self.dim, j))

    def bracket(self, x: Sequence, y: Sequence) -> Vec:
        x, y = to_vec(x), to_vec(y)
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch("bracket arguments must have the algebra's dimension")
        den, (xs, ys) = _to_ints((enumerate(x), enumerate(y)))
        out = dict(_to_fractions(den * den * self._den, self._bracket_sum(xs, ys).items()))
        return tuple(out.get(k, _ZERO) for k in range(self.dim))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LieAlgebra)
            and self.dim == other.dim
            and self._den == other._den
            and self._table == other._table
        )

    def __hash__(self) -> int:
        return hash((self.dim, self._den, tuple(sorted((k, tuple(sorted(v.items()))) for k, v in self._table.items()))))

    def __repr__(self) -> str:
        return f"LieAlgebra(dim {self.dim}, {len(self._table)} bracket entries)"


def abelian(dim: int) -> LieAlgebra:
    return LieAlgebra(dim, {})


def derivation_rows(alg: LieAlgebra) -> Iterator[tuple[tuple[int, int, int], dict[int, int]]]:
    """The derivation identity as sparse int rows over the n^2 entries of D, row-major.

    Row (i, j, m), i < j, maps l*n + k to the coefficient of D[l, k] in
    ([D e_i, e_j] + [e_i, D e_j] - D[e_i, e_j])_m, times ``alg._den``, in increasing m; zero rows are
    skipped.  A pair walks the nonzero brackets of e_i and e_j only, and [e_i, e_j] if nonzero.
    """
    n, ad = alg.dim, alg._ad
    for i in range(n):
        for j in range(i + 1, n):
            rows: dict[int, dict[int, int]] = {}
            for l, image in ad[j].items():  # [D e_i, e_j]_m = sum_l D[l,i] [e_l, e_j]_m
                for m, c in image.items():
                    rows.setdefault(m, {})[l * n + i] = -c
            for l, image in ad[i].items():  # [e_i, D e_j]_m = sum_l D[l,j] [e_i, e_l]_m
                for m, c in image.items():
                    rows.setdefault(m, {})[l * n + j] = c
            for k, c in ad[i].get(j, {}).items():  # -D([e_i, e_j])_m = -sum_k [e_i, e_j]_k D[m,k]
                for m in range(n):
                    row = rows.setdefault(m, {})
                    total = row.pop(m * n + k, 0) - c
                    if total:
                        row[m * n + k] = total
            yield from (((i, j, m), rows[m]) for m in sorted(rows) if rows[m])


def jacobi_defect(alg: LieAlgebra) -> list[tuple[tuple[int, int, int], Vec]]:
    """All triples i<j<k where [e_i,[e_j,e_k]] + cyclic fails, with the defect.

    Each stored [e_p, e_q] = sum_t c_t e_t, p < q, adds [e_a, [e_p, e_q]] = -sum_t c_t ad(e_t)(e_a), over
    the a outside {p, q} with a nonzero [e_t, e_a], to the triple sorting a, p, q, negated when p < a < q
    (the cyclic term there is [e_a, [e_q, e_p]]).  No derivation row is listed.  Only antisymmetry is
    used, so unvalidated tables work too.
    """
    ad, sums = alg._ad, {}
    for (p, q), targets in alg._table.items():
        for t, c in targets.items():
            for a, image in ad[t].items():
                if a != p and a != q:
                    x = c if p < a < q else -c
                    acc = sums.setdefault(tuple(sorted((a, p, q))), {})
                    for m, y in image.items():
                        acc[m] = acc.get(m, 0) + x * y
    scale = alg._den**2  # both factors are cleared by L: each sum is an int, L^2 times the defect
    return [
        (triple, tuple(Fraction(acc.get(m, 0), scale) for m in range(alg.dim)))
        for triple, acc in sorted(sums.items()) if any(acc.values())
    ]


def bracket_subspaces(alg: LieAlgebra, v: Subspace, w: Subspace) -> Subspace:
    """Span of [x, y] over basis vectors x of V and y of W."""
    _check_ambient(alg, v)
    _check_ambient(alg, w)
    sums = (alg._bracket_sum(x, y) for x, y in product(v.entries, w.entries))
    return Subspace(alg.dim, *_row_space(({k: c for k, c in s.items() if c}.items() for s in sums), alg.dim))


def derived_subalgebra(alg: LieAlgebra) -> Subspace:
    return Subspace(alg.dim, *_row_space((targets.items() for targets in alg._table.values()), alg.dim))


def lower_central_series(alg: LieAlgebra) -> list[Subspace]:
    """Chain n >= [n,n] >= [n,[n,n]] >= ... down to the stable term; [n,n] is always kept."""
    return _series_from(alg, derived_subalgebra(alg))


def _series_from(alg: LieAlgebra, nprime: Subspace) -> list[Subspace]:
    """lower_central_series, given its term n' = [n,n]."""
    full = Subspace.full(alg.dim)
    chain = [full, nprime]
    while chain[-1].dim and (nxt := bracket_subspaces(alg, full, chain[-1])) != chain[-1]:
        chain.append(nxt)
    return chain


def nilpotency_step(alg: LieAlgebra) -> int:
    """Smallest s with n^s = 0, counting n^1 = [n,n]; abelian algebras have step 1."""
    chain = lower_central_series(alg)
    if chain[-1].dim != 0:
        raise NotNilpotentError(
            f"lower central series stabilizes at dimension {chain[-1].dim}"
        )
    return max(len(chain) - 1, 1)


def centralizer(alg: LieAlgebra, v: Subspace) -> Subspace:
    """{x : [x, w] = 0 for all w in V}."""
    return transporter(alg, v, Subspace.zero(alg.dim))


def center(alg: LieAlgebra) -> Subspace:
    return centralizer(alg, Subspace.full(alg.dim))


def transporter(alg: LieAlgebra, v: Subspace, w: Subspace) -> Subspace:
    """{x : [x, V] <= W}: y [u, x] = 0 for every annihilator row y of W and basis row u of V.

    Entry b of each row, L y [u, e_b], is summed in ints over the nonzero entries of u and y, both cleared.
    """
    _check_ambient(alg, v)
    _check_ambient(alg, w)
    ad, ys = alg._ad, [dict(y) for y in w.annihilator().entries]
    rows = []
    for u, y in product(v.entries, ys):
        row: dict[int, int] = {}
        for a, x in u:
            for b, image in ad[a].items():
                for l, c in image.items():
                    if l in y:
                        row[b] = row.get(b, 0) + x * c * y[l]
        rows.append({b: s for b, s in row.items() if s}.items())
    return Subspace._kernel(alg.dim, rows)


def is_ideal(alg: LieAlgebra, v: Subspace) -> bool:
    return bracket_subspaces(alg, Subspace.full(alg.dim), v) <= v


def _check_ambient(alg: LieAlgebra, v: Subspace) -> None:
    if v.ambient_dim != alg.dim:
        raise DimensionMismatch("subspace ambient dimension differs from the algebra")
