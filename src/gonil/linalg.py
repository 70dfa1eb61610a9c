"""Exact rational linear algebra: matrices, solving, kernels, signatures.

Everything is exact; there is no floating point anywhere.  Each exact object
stores one form: a positive scale L, its least common denominator, and its
nonzero entries times L as ints.  ``_to_ints`` clears rational data to that
form at the edges (the public entries, the loaders, dense operators), and
``_to_fractions`` is the one way back, for the public API and the reports.
Elimination is fraction-free integer Gauss-Jordan over nonzero entries only,
so its cost follows the nonzero entries, not the system's width: rows enter
as {column: nonzero int} and its primitive reduced rows are what a Subspace
stores, scaled by L, the lcm of their pivot entries (or, for a kernel, of
their reduced denominators), once the columns that one-entry rows force to
zero are stripped.  The reduced echelon form is unique, so every stored form
is canonical across runs, platforms and row orders.  A solve
stops at the echelon form and back-substitutes, which gives the same
canonical solution (free unknowns zero) without clearing any column.
``_times``, M^T w over M's sparse rows, is the package's one sparse vector
product.  Congruence diagonalization, behind the signature, is the one
rational elimination left, over the nonzero entries of its working matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

Vec = tuple[Fraction, ...]
_IntRows = list[list[int]]  # per row of a sparse integer system: its nonzero entries, or their columns

_ZERO = Fraction(0)
_ONE = Fraction(1)


class DimensionMismatch(ValueError):
    """Raised when operand shapes are incompatible."""


def to_vec(entries: Iterable) -> Vec:
    return tuple(x if type(x) is Fraction else Fraction(x) for x in entries)


def basis_vec(n: int, i: int) -> Vec:
    """The i-th standard basis vector of length n."""
    v = [Fraction(0)] * n
    v[i] = Fraction(1)
    return tuple(v)


def fmt_vec(v: Iterable) -> str:
    """Comma-separated entries, the report format of every vector."""
    return ",".join(map(str, v))


def vec_add(x: Vec, y: Vec) -> Vec:
    return tuple(a + b for a, b in zip(x, y))


def vec_scale(c, x: Vec) -> Vec:
    c = Fraction(c)
    return tuple(c * a for a in x)


class Matrix:
    """Immutable dense matrix over rationals (row-major)."""

    __slots__ = ("_rows", "_ncols")

    def __init__(self, rows: Iterable[Iterable], ncols: int | None = None):
        data = tuple(to_vec(row) for row in rows)
        if data:
            ncols = len(data[0]) if ncols is None else ncols
            if any(len(r) != ncols for r in data):
                raise DimensionMismatch("ragged rows")
        elif ncols is None:
            raise DimensionMismatch("empty matrix needs an explicit column count")
        self._rows = data
        self._ncols = ncols

    @classmethod
    def _trusted(cls, rows: tuple[Vec, ...], ncols: int) -> Matrix:
        """Wrap rows already known to be equal-length tuples of Fractions, unchecked."""
        m = object.__new__(cls)
        m._rows = rows
        m._ncols = ncols
        return m

    @classmethod
    def identity(cls, n: int) -> Matrix:
        one, zero = Fraction(1), Fraction(0)
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)], ncols=n)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> Matrix:
        return cls([[0] * ncols for _ in range(nrows)], ncols=ncols)

    @classmethod
    def from_vector(cls, vec: Sequence, n: int) -> Matrix:
        """Reshape a row-major length-n*n vector into an n-by-n matrix."""
        vec = to_vec(vec)
        if len(vec) != n * n:
            raise DimensionMismatch("vector length is not n*n")
        return cls._trusted(tuple(vec[i * n : (i + 1) * n] for i in range(n)), n)

    @property
    def nrows(self) -> int:
        return len(self._rows)

    @property
    def ncols(self) -> int:
        return self._ncols

    @property
    def rows(self) -> tuple[Vec, ...]:
        return self._rows

    def row(self, i: int) -> Vec:
        return self._rows[i]

    def column(self, j: int) -> Vec:
        return tuple(r[j] for r in self._rows)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self._rows[i][j]

    def transpose(self) -> Matrix:
        if not self._rows:
            return Matrix._trusted(((),) * self._ncols, 0)
        return Matrix._trusted(tuple(zip(*self._rows)), self.nrows)

    def __add__(self, other: Matrix) -> Matrix:
        """Entrywise sum; where either entry is zero the other is reused, not added."""
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("shape mismatch in addition")
        return Matrix._trusted(
            tuple(tuple(a + b if a and b else a or b for a, b in zip(r, s)) for r, s in zip(self._rows, other._rows)),
            self.ncols,
        )

    def __sub__(self, other: Matrix) -> Matrix:
        return self + (-other)

    def __neg__(self) -> Matrix:
        return Matrix._trusted(tuple(tuple(-a if a else a for a in r) for r in self._rows), self.ncols)

    def scale(self, c) -> Matrix:
        c = Fraction(c)
        return Matrix._trusted(tuple(tuple(c * a for a in r) for r in self._rows), self.ncols)

    def __matmul__(self, other):
        """Matrix product or matrix-vector product; zero entries are skipped."""
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise DimensionMismatch("inner dimensions differ")
            ncols, sparse = other._ncols, _sparse_rows(other._rows)
            products = (_times(sparse, [(k, a) for k, a in enumerate(r) if a]) for r in self._rows)
            return Matrix._trusted(tuple(tuple(p.get(j, _ZERO) for j in range(ncols)) for p in products), ncols)
        vec = to_vec(other)
        if self.ncols != len(vec):
            raise DimensionMismatch("matrix-vector size mismatch")
        nz = [(k, v) for k, v in enumerate(vec) if v]
        return tuple(sum([r[k] * v for k, v in nz if r[k]], _ZERO) for r in self._rows)

    def is_zero(self) -> bool:
        return all(a == 0 for r in self._rows for a in r)

    def is_symmetric(self) -> bool:
        return self.nrows == self.ncols and all(
            self._rows[i][j] == self._rows[j][i]
            for i in range(self.nrows)
            for j in range(i + 1, self.ncols)
        )

    def is_nilpotent(self) -> bool:
        if self.nrows != self.ncols:
            raise DimensionMismatch("nilpotency needs a square matrix")
        power = self
        for _ in range(self.nrows):
            if power.is_zero():
                return True
            power = power @ self
        return power.is_zero()

    def vectorize(self) -> Vec:
        return tuple(a for r in self._rows for a in r)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self._ncols == other._ncols
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self._ncols, self._rows))

    def __repr__(self) -> str:
        body = "; ".join(",".join(str(a) for a in r) for r in self._rows)
        return f"Matrix({self.nrows}x{self.ncols}: {body})"


def _sparse_rows(rows: Iterable[Sequence]) -> list[list[tuple[int, Fraction]]]:
    """Each row as its (column, value) pairs with nonzero value."""
    return [[(j, a) for j, a in enumerate(row) if a] for row in rows]


def _times(rows, entries) -> dict:
    """M^T w as {index: value}: M by its sparse rows ``rows`` (row j's (index, value) pairs), w by its nonzero
    (index, value) entries; G w for a symmetric G.  The sums start from int 0, so int rows and entries give ints."""
    out = {}
    for j, w in entries:
        for i, x in rows[j]:
            out[i] = out.get(i, 0) + x * w
    return out


def _to_ints(rows: Iterable[Iterable[tuple]]) -> tuple[int, tuple[tuple[tuple, ...], ...]]:
    """(L, each row's entries (..., v) as (..., L v), an int) for L the least common denominator of the rational v,
    entries of a row with equal leading items added up and zero sums dropped: the one way rational data is cleared."""
    sums = []
    for row in rows:
        sums.append(acc := {})
        for x in row:
            if v := x[-1]:
                key = x[:-1]
                acc[key] = acc[key] + v if key in acc else v
    den = math.lcm(*(v.denominator for acc in sums for v in acc.values()))
    return den, tuple(tuple((*k, v.numerator * (den // v.denominator)) for k, v in acc.items() if v) for acc in sums)


def _to_fractions(den: int, entries: Iterable[tuple]) -> tuple[tuple, ...]:
    """Each int entry (..., v) as (..., v / den), a Fraction: the one way stored ints become rationals."""
    return tuple((*x[:-1], Fraction(x[-1], den)) for x in entries)


def _forward(rows: Iterable[dict[int, int]], origins: dict[int, int] | None = None) -> dict[int, dict[int, int]]:
    """Row insertion of {column: nonzero int} rows, consumed: {pivot: its row}, an echelon form of them.

    While a row's first column is a pivot, it becomes ``p*row - f*pivot_row``; otherwise that column is a new
    pivot, its row primitive, positive there, and ``origins``, when given, maps it to the row's place in the input.
    """
    table: dict[int, dict[int, int]] = {}
    for i, row in enumerate(rows):
        while row:
            pc = min(row)
            prow = table.get(pc)
            if prow is None:
                table[pc] = _primitive(row, pc)
                if origins is not None:
                    origins[pc] = i
                break
            _subtract(row, prow, pc)
    return table


def _eliminate(values: _IntRows, columns: _IntRows, origins: dict | None = None) -> tuple[_IntRows, list, _IntRows]:
    """Integer Gauss-Jordan: ``_forward``, then back-reduction; returns (values, pivots, columns) of the pivot rows.

    Row i is its nonzero integers ``values[i]`` at the columns ``columns[i]``,
    which must be distinct (a repeated column keeps only its last entry): no
    row is laid out at the system's width, and a reader of the values (the
    traced ``linalg.rref.max_bits``) sees integer entries only.  One pass over
    the pivots in descending order clears every other pivot column.  The
    reduced echelon form is unique, so the pivots come out increasing whatever
    the row order, and each row primitive, its columns increasing from its
    pivot, whose entry is positive.  ``origins`` is passed to ``_forward``.
    """
    table = _forward(map(dict, map(zip, columns, values)), origins)
    pivots = sorted(table)
    for pc in reversed(pivots):
        row = table[pc]
        for c in [c for c in row if c != pc and c in table]:
            _subtract(row, table[c], c)
        table[pc] = _primitive(row, pc)
    columns = [sorted(table[pc]) for pc in pivots]
    return [list(map(table[pc].__getitem__, cols)) for pc, cols in zip(pivots, columns)], pivots, columns


def _subtract(row: dict[int, int], prow: dict[int, int], c: int) -> None:
    """row <- p*row - f*prow in place, p and f the entries at column c over their gcd; cancelled entries are dropped."""
    p, f = prow[c], row[c]
    g = math.gcd(p, f)
    p, f = p // g, f // g
    if p != 1:
        for j in row:
            row[j] *= p
    get = row.get
    for j, b in prow.items():
        a = get(j, 0) - f * b
        if a:
            row[j] = a
        else:
            del row[j]


def _primitive(row: dict[int, int], pc: int) -> dict[int, int]:
    """row divided by the gcd of its entries, signed so that its entry at pc is positive."""
    g = math.gcd(*row.values())
    g = -g if row[pc] < 0 else g
    return {j: a // g for j, a in row.items()} if g != 1 else row


def _presolve(values: _IntRows, columns: _IntRows, origins: dict | None = None) -> tuple[list, ...]:
    """(forced columns, and the input places, values over their gcd and columns of the rows left with two or more
    entries) of ``_eliminate``'s rows, never mutated: a one-entry row forces its column to zero, deleted from every
    other row until no new one-entry row appears.  ``origins``, when given, maps each forced column to its row."""
    columns, values = list(columns), list(values)  # a stripped row is replaced, never changed
    forced, kept = {}, [i for i, cols in enumerate(columns) if len(cols) > 1]
    new = {cols[0]: i for i, cols in enumerate(columns) if len(cols) == 1}  # of equal such rows, the last forces
    while new:  # each round deletes the columns the last one forced
        forced.update(new)
        strip, new = new.keys(), {}
        for i in [i for i in kept if not strip.isdisjoint(columns[i])]:
            cols, vals = columns[i], values[i]
            columns[i] = [c for c in cols if c not in strip]
            values[i] = [a for c, a in zip(cols, vals) if c not in strip]
            if len(columns[i]) == 1:
                new[columns[i][0]] = i
    kept = [i for i in kept if len(columns[i]) > 1]
    if origins is not None:
        origins.update(forced)
    primitive = [vals if (g := math.gcd(*(vals := values[i]))) == 1 else [a // g for a in vals] for i in kept]
    return list(forced), kept, primitive, [columns[i] for i in kept]


def _echelon(rows: Iterable, ncols: int, flip: bool = False, origins: dict | None = None) -> tuple[_IntRows, ...]:
    """``_eliminate`` of rows of (column, nonzero int) pairs at distinct columns, never mutated, column j read as
    ncols - 1 - j under ``flip``, after ``_presolve``: each forced column's reduced row e_c is merged back in pivot
    order, and ``origins`` maps each pivot to the nonempty input row that forced or became it.  A column outside
    0..ncols-1 raises DimensionMismatch, never wraps or drops."""
    split = [tuple(zip(*row)) for row in rows if row]  # per nonempty row, its (columns, values)
    columns = [[ncols - 1 - j for j in cols] for cols, _ in split] if flip else [cols for cols, _ in split]
    forced, places, values, columns = _presolve([vals for _, vals in split], columns, origins)
    values, pivots, columns = _eliminate(values, columns, origins)
    if origins is not None:  # _forward's places count the rows the presolve left
        origins.update({pc: places[origins[pc]] for pc in pivots})
    merged = sorted([*zip(pivots, values, columns), *((c, [1], [c]) for c in forced)])  # e_c at each forced column c
    pivots, values, columns = ([row[k] for row in merged] for k in range(3))
    # A column any row uses is forced or nonzero in some reduced row, and a reduced row's pivot is its least column.
    if pivots and (pivots[0] < 0 or max(cols[-1] for cols in columns) >= ncols):
        raise DimensionMismatch(f"row column outside 0..{ncols - 1}")
    return values, pivots, columns


def _kernel_of_rows(rows: Iterable, ncols: int, origins: dict | None = None) -> tuple[int, tuple[tuple, ...]]:
    """Canonical reduced-echelon basis of {x : sum v x_j = 0 over each row's pairs (j, v)}, as a Subspace stores it.

    Each row is a {column: nonzero int} dict's items.  They are eliminated with their columns reversed, so each
    pivot sits at a row's last nonzero entry; ``origins`` is ``_echelon``'s, its pivots reversed.  The vector with 1
    at a free column c and -a / p at the pivot of each row with p there and a at c vanishes at every other free
    column: the basis is read off as is, times L, the lcm of the reduced denominators p / gcd(a, p).
    """
    last = ncols - 1
    values, pivots, columns = _echelon(rows, ncols, True, origins)
    den = math.lcm(*(vals[0] // math.gcd(a, vals[0]) for vals in values for a in vals[1:]))
    kernel = {c: [(c, den)] for c in sorted(set(range(ncols)).difference(last - pc for pc in pivots))}
    for vals, cols in zip(reversed(values), reversed(columns)):  # the original pivot columns ascend
        p, pc = vals[0], last - cols[0]
        for a, c in zip(vals[1:], cols[1:]):  # a reduced row is 0 at every other pivot: c is free
            kernel[last - c].append((pc, -a * den // p))
    return den, tuple(map(tuple, kernel.values()))


def _solve_rows(rows: Iterable[dict[int, int]], ncols: int) -> Vec | None:
    """Canonical solution (free unknowns zero) of {column: nonzero int} rows, consumed, rhs at column ncols, or None.

    The rows are inserted sparsest first.  Infeasible exactly when the rhs
    column is a pivot of ``_forward``'s echelon rows.  Otherwise the pivot rows
    are solved in descending pivot order, in integers: a row's other unknowns
    are free (zero) or later pivots, solved.
    """
    table = _forward(sorted(rows, key=len))
    # Every column of an input row is nonzero in some echelon row, and a row's pivot is its least column.
    if table and (min(table) < 0 or max(map(max, table.values())) > ncols):
        raise DimensionMismatch(f"row column outside 0..{ncols}")
    if ncols in table:
        return None
    x = [_ZERO] * ncols
    solved: dict[int, tuple[int, int]] = {}  # pivot column -> its nonzero unknown as (numerator, denominator)
    for pc in sorted(table, reverse=True):
        row = table[pc]
        num, den = row.get(ncols, 0), 1  # num / den = the rhs minus the solved unknowns' terms
        for c, a in row.items():
            if c in solved:
                n, d = solved[c]
                g = math.gcd(den, d)
                num, den = num * (d // g) - a * n * (den // g), den * (d // g)
        if num:
            x[pc] = f = Fraction(num, den * row[pc])  # a positive denominator: the row is primitive
            solved[pc] = f.numerator, f.denominator
    return tuple(x)


_PRIMES = (1073741789, 1073741783, 1073741741)  # the three largest primes below 2^30


def _rank_mod(rows: Iterable[dict[int, int]], p: int) -> int:
    """The rank mod the prime p of {column: int} rows, never mutated: each row enters at its last column, as in
    ``_kernel_of_rows``, and a pivot row is inverted at its pivot only when it reduces another row."""
    table: dict[int, dict[int, int]] = {}
    for row in rows:
        row = {c: a % p for c, a in row.items() if a % p}
        while row and (prow := table.get(pc := max(row))) is not None:
            f = (p - row[pc]) * pow(prow[pc], -1, p) % p
            for c, b in prow.items():  # f * b is nonzero mod p, so only an entry of row can cancel
                if a := (row.get(c, 0) + f * b) % p:
                    row[c] = a
                else:
                    del row[c]
        if row:
            table[pc] = row
    return len(table)


class RRef(NamedTuple):
    matrix: Matrix  # zero rows dropped, pivot entries normalized to 1
    pivots: tuple[int, ...]


def rref(m: Matrix) -> RRef:
    """Canonical reduced row echelon form (first-nonzero pivot rule)."""
    space = Subspace.span(m.ncols, m.rows)
    return RRef(space.basis, space.pivots)


def _row_space(rows: Iterable[Iterable[tuple[int, int]]], ncols: int) -> tuple[int, tuple[tuple, ...]]:
    """The reduced echelon rows of ``_kernel_of_rows``'s int rows, as a Subspace stores them: a primitive row
    with pivot entry p has least common denominator p over p, so L is the pivots' lcm and row p is scaled by L / p."""
    values, _, columns = _echelon(rows, ncols)
    den = math.lcm(*(vals[0] for vals in values))
    return den, tuple(tuple(zip(cols, [a * (den // vals[0]) for a in vals])) for vals, cols in zip(values, columns))


def solve_particular(a: Matrix, b: Sequence) -> Vec | None:
    """The canonical solution of A x = b (free unknowns zero), or None when inconsistent."""
    b = to_vec(b)
    if a.nrows != len(b):
        raise DimensionMismatch("right-hand side length differs from row count")
    n = a.ncols
    return _solve_rows(map(dict, _to_ints(chain(enumerate(row), ((n, bi),)) for row, bi in zip(a.rows, b))[1]), n)


class SignatureTriple(NamedTuple):
    """Counts of positive, negative, and radical directions of a symmetric form."""

    p: int
    q: int
    r: int

    @classmethod
    def of(cls, diag: Vec) -> SignatureTriple:
        """The counts of congruence-diagonal values (Sylvester's law)."""
        p, q = sum(d > 0 for d in diag), sum(d < 0 for d in diag)
        return cls(p, q, len(diag) - p - q)


def congruence_diagonalize(g: Matrix) -> tuple[Matrix, Vec]:
    """Rational congruence diagonalization of a symmetric matrix.

    Returns rows ``b_i`` and values ``d_i`` with ``b_i G b_j^T = d_i delta_ij``.
    Pivots on the first usable diagonal entry; when all remaining diagonal
    entries vanish but some off-diagonal entry ``g_ij`` does not, substitutes
    ``b_i <- b_i + b_j`` first.  Entirely deterministic.  The working matrix
    and the basis rows are kept as their nonzero entries, so each step touches
    only the nonzero entries of the pivot's row and the rows it meets.
    """
    if not g.is_symmetric():
        raise ValueError("congruence diagonalization needs a symmetric matrix")
    return _diagonalize(g)


def _diagonalize(g: Matrix) -> tuple[Matrix, Vec]:
    """``congruence_diagonalize`` of a matrix its caller knows to be symmetric, unchecked."""
    n = g.nrows
    c = {i: dict(row) for i, row in enumerate(_sparse_rows(g.rows))}  # the active rows, over active columns
    basis = {i: {i: _ONE} for i in range(n)}
    out_rows: list[dict[int, Fraction]] = []
    diag: list[Fraction] = []
    while c:
        pivot = next((i for i, row in c.items() if i in row), None)
        if pivot is None:
            i = next((i for i, row in c.items() if row), None)
            if i is None:
                out_rows.extend(basis[i] for i in c)
                diag.extend(_ZERO for _ in c)
                break
            j = min(c[i])  # the first pair (i, j): row i is the first nonzero row, and G is symmetric
            _add_scaled(basis[i], basis[j], _ONE)
            row = dict(c[i])
            _add_scaled(row, c[j], _ONE)  # row and column i += row and column j
            row[i] = 2 * c[i][j]  # both diagonal entries are 0
            for k in c[i]:
                del c[k][i]
            c[i] = row
            for k, x in row.items():
                c[k][i] = x
            continue
        row = c.pop(pivot)
        d = row.pop(pivot)
        for j in row:
            del c[j][pivot]
        for j, x in row.items():  # c[j][k] -= x c[pivot][k] / d: row j's share of the symmetric update
            f = x / d
            _add_scaled(basis[j], basis[pivot], -f)
            _add_scaled(c[j], row, -f)
        out_rows.append(basis.pop(pivot))
        diag.append(d)
    return Matrix._trusted(tuple(tuple(r.get(k, _ZERO) for k in range(n)) for r in out_rows), n), tuple(diag)


def _add_scaled(row: dict[int, Fraction], other: dict[int, Fraction], f: Fraction) -> None:
    """row <- row + f * other in place, over other's entries; cancelled entries are dropped."""
    for k, v in other.items():
        a = row.get(k, _ZERO) + f * v
        if a:
            row[k] = a
        else:
            row.pop(k, None)


def symmetric_signature(g: Matrix) -> SignatureTriple:
    """Signature (p, q, r) of a symmetric rational matrix."""
    return SignatureTriple.of(congruence_diagonalize(g)[1])


def rational_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


@dataclass(frozen=True)
class Subspace:
    """A linear subspace, stored once: its reduced echelon rows times ``den``, as (column, int) entries.

    ``den`` is the rows' least common denominator.  Each row's columns increase
    from its pivot, where its entry is ``den`` (1 in the rational row), right
    of the previous row's pivot; no other row has an entry there.  The form is
    unique, so ``==`` and ``hash`` compare it, and v lies in the span exactly
    when v = sum_i v[p_i] B_i over the pivots p_i, its coordinates.  Other rows
    raise ValueError, a column outside the space DimensionMismatch.  The
    rational ``rows`` and dense ``basis`` are built when read.
    """

    ambient_dim: int
    den: int
    entries: tuple[tuple[tuple[int, int], ...], ...]  # per row, its (column, den * value) entries
    pivots: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        den, rows = self.den, self.entries
        pivots = tuple(row[0][0] if row and row[0][1] == den else None for row in rows)
        values = [a for row in rows for _, a in row]
        if (
            None in pivots
            or any(a >= b for a, b in zip(pivots, pivots[1:]))
            or any(not a or j <= i for row in rows for (i, _), (j, a) in zip(row, row[1:]))
            or not set(pivots).isdisjoint(j for row in rows for j, _ in row[1:])
            or any(type(a) is not int for a in (den, *values))
            or den < 1
            or math.gcd(den, *values) != 1
        ):
            raise ValueError("subspace basis is not in reduced echelon form")
        if rows and (pivots[0] < 0 or max(row[-1][0] for row in rows) >= self.ambient_dim):
            raise DimensionMismatch(f"subspace row column outside 0..{self.ambient_dim - 1}")
        object.__setattr__(self, "pivots", pivots)

    @classmethod
    def from_basis(cls, ambient_dim: int, basis: Matrix) -> Subspace:
        if basis.ncols != ambient_dim:
            raise DimensionMismatch("subspace basis width differs from its ambient dimension")
        return cls(ambient_dim, *_to_ints(map(enumerate, basis.rows)))

    @classmethod
    def span(cls, ambient_dim: int, vectors: Iterable[Sequence]) -> Subspace:
        rows = tuple(to_vec(v) for v in vectors)
        if any(len(r) != ambient_dim for r in rows):
            raise DimensionMismatch("spanning vector has wrong length")
        return cls(ambient_dim, *_row_space(_to_ints(map(enumerate, rows))[1], ambient_dim))

    @classmethod
    def solving(cls, ambient_dim: int, rows: Iterable[Iterable[tuple[int, Fraction]]]) -> Subspace:
        """{x : sum v x_j = 0 over each row's (column, value) pairs (j, v), repeats added}; no rows: the whole space."""
        return cls._kernel(ambient_dim, _to_ints(rows)[1])

    @classmethod
    def _kernel(cls, ambient_dim: int, rows: Iterable, origins: dict | None = None) -> Subspace:
        """``solving`` for the int rows and ``origins`` that ``_kernel_of_rows`` takes, looked up when called."""
        return cls(ambient_dim, *_kernel_of_rows(rows, ambient_dim, origins))

    @classmethod
    def zero(cls, ambient_dim: int) -> Subspace:
        return cls(ambient_dim, 1, ())

    @classmethod
    def full(cls, ambient_dim: int) -> Subspace:
        return cls(ambient_dim, 1, tuple(((i, 1),) for i in range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.entries)

    @property
    def rows(self) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
        """The reduced rows' rational (column, value) entries."""
        return tuple(_to_fractions(self.den, row) for row in self.entries)

    @cached_property
    def basis(self) -> Matrix:  # built from the rows when read; from_basis reads one in
        rows, n = [dict(row) for row in self.rows], self.ambient_dim
        return Matrix._trusted(tuple(tuple(row.get(j, _ZERO) for j in range(n)) for row in rows), n)

    def contains_vector(self, vec: Sequence) -> bool:
        return self.coordinates(vec) is not None

    def coordinates(self, vec: Sequence) -> Vec | None:
        """Coefficients of vec in this basis, read at the pivots; None if outside, tested on vec cleared to ints."""
        vec = to_vec(vec)
        if len(vec) != self.ambient_dim:
            raise DimensionMismatch("vector has wrong length")
        coords = tuple(vec[p] for p in self.pivots)
        return coords if self._contains_entries(dict(_to_ints([enumerate(vec)])[1][0])) else None

    @cached_property
    def _by_pivot(self) -> dict[int, tuple[tuple[int, int], ...]]:  # an index of the stored rows, not a copy
        return dict(zip(self.pivots, self.entries))

    def _contains_entries(self, rest: dict[int, int]) -> bool:
        """Whether rest, {index: int}, lies in the span, tested in ints.

        rest becomes L rest - sum_i rest[p_i] L B_i over the pivots p_i, for
        L the ``den`` and L B_i the stored rows: zero exactly when rest lies in the span.
        """
        den, rows = self.den, self._by_pivot
        at_pivots = [(p, c) for p, c in rest.items() if p in rows]
        if den != 1:
            for j in rest:
                rest[j] *= den
        for p, c in at_pivots:
            for j, b in rows[p]:
                rest[j] = rest.get(j, 0) - c * b
        return not any(rest.values())

    def __le__(self, other: Subspace) -> bool:
        self._check_ambient(other)
        return all(other._contains_entries(dict(row)) for row in self.entries)

    def plus(self, other: Subspace) -> Subspace:
        self._check_ambient(other)
        return Subspace(self.ambient_dim, *_row_space(chain(self.entries, other.entries), self.ambient_dim))

    def annihilator(self) -> Subspace:
        """The y with B y = 0 for the basis B; x lies in V exactly when y x = 0 for each of its rows y."""
        return Subspace._kernel(self.ambient_dim, self.entries)

    def intersect(self, other: Subspace) -> Subspace:
        self._check_ambient(other)
        return Subspace._kernel(self.ambient_dim, chain(self.annihilator().entries, other.annihilator().entries))

    def complement_within(self, larger: Subspace) -> Subspace:
        """The span of the rows of `larger`'s canonical basis whose pivots this subspace does not use.

        Requires self <= larger; it is a complement of self inside larger,
        chosen deterministically, and those rows are its own reduced rows,
        divided with ``larger.den`` by their gcd g to the least scale.
        """
        if not self <= larger:
            raise ValueError("complement requires containment")
        used = set(self.pivots)
        kept = [row for p, row in zip(larger.pivots, larger.entries) if p not in used]
        g = math.gcd(larger.den, *(a for row in kept for _, a in row))
        return Subspace(self.ambient_dim, larger.den // g, tuple(tuple((j, a // g) for j, a in row) for row in kept))

    def _check_ambient(self, other: Subspace) -> None:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("subspaces live in different ambient spaces")

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"
