"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's own elimination paths: the signature
oracles go through the characteristic polynomial (all roots of a symmetric
matrix are real, so Descartes' sign-change count is exact) and through a
separately written congruence sweep with randomized pivoting.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from types import SimpleNamespace

from gonil.linalg import Matrix, SignatureTriple, Subspace, basis_vec, solve_particular, to_vec
from gonil.double_ext import _dual_null_pair
from gonil.go_engine import NecessaryConditionReport
from gonil.metric import SymForm, orth_complement, radical_of_restriction, restrict_form


def dot(x, y) -> Fraction:
    return sum((a * b for a, b in zip(x, y)), Fraction(0))


def char_poly(m: Matrix) -> list[Fraction]:
    """Coefficients of det(xI - M), constant term first (Faddeev-LeVerrier)."""
    n = m.nrows
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    mk = Matrix.identity(n)
    for k in range(1, n + 1):
        mk = m @ mk
        trace = sum((mk[i, i] for i in range(n)), Fraction(0))
        c = -trace / k
        coeffs[n - k] = c
        mk = mk + Matrix.identity(n).scale(c)
    return coeffs


def _sign_changes(coeffs: list[Fraction]) -> int:
    signs = [1 if c > 0 else -1 for c in coeffs if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def signature_by_descartes(g: Matrix) -> SignatureTriple:
    """Signature from eigenvalue sign counts of the characteristic polynomial."""
    coeffs = char_poly(g)
    r = next(i for i, c in enumerate(coeffs) if c != 0)
    reduced = coeffs[r:]
    p = _sign_changes(reduced)
    flipped = [c if i % 2 == 0 else -c for i, c in enumerate(reduced)]
    q = _sign_changes(flipped)
    return SignatureTriple(p, q, r)


def signature_by_random_congruence(g: Matrix, rng: random.Random) -> SignatureTriple:
    """Diagonalize by congruence with randomized pivot choices."""
    n = g.nrows
    c = [[Fraction(x) for x in row] for row in g.rows]
    active = list(range(n))
    p = q = r = 0
    while active:
        nonzero_diag = [i for i in active if c[i][i] != 0]
        if not nonzero_diag:
            pairs = [(i, j) for i in active for j in active if i < j and c[i][j] != 0]
            if not pairs:
                r += len(active)
                break
            i, j = rng.choice(pairs)
            for k in range(n):
                c[i][k] += c[j][k]
            for k in range(n):
                c[k][i] += c[k][j]
            continue
        i = rng.choice(nonzero_diag)
        d = c[i][i]
        if d > 0:
            p += 1
        else:
            q += 1
        for j in active:
            if j == i or c[i][j] == 0:
                continue
            f = c[i][j] / d
            for k in range(n):
                c[j][k] -= f * c[i][k]
            for k in range(n):
                c[k][j] -= f * c[k][i]
        active.remove(i)
    return SignatureTriple(p, q, r)


def polarized_defects_by_pairing(m, ops):
    """The polarized orbit identity evaluated term by term through ``m.pair``.

    Returns (a, b, c, value) for every nonzero value, looping a <= b, then c.
    """
    n = m.dim
    bad = []
    for a in range(n):
        ea = to_vec([1 if i == a else 0 for i in range(n)])
        for b in range(a, n):
            eb = to_vec([1 if i == b else 0 for i in range(n)])
            for c in range(n):
                ec = to_vec([1 if i == c else 0 for i in range(n)])
                val = m.pair(
                    tuple(x + y for x, y in zip(m.algebra.bracket_basis(a, c), ops[a] @ ec)),
                    eb,
                ) + m.pair(
                    tuple(x + y for x, y in zip(m.algebra.bracket_basis(b, c), ops[b] @ ec)),
                    ea,
                )
                if val != 0:
                    bad.append((a, b, c, val))
    return bad


def eliminate_dense(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Dense integer Gauss-Jordan, the library's earlier core: every pivot step recombines whole rows.

    First nonzero entry in column order is the pivot.  Rows are combined as
    ``p*row - f*pivot_row`` and re-normalized by their gcd, in place; the
    rows after the last pivot row come back zero.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    pr = 0
    for pc in range(ncols):
        pivot_row = next((r for r in range(pr, nrows) if rows[r][pc]), None)
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        p, prow = rows[pr][pc], rows[pr]
        for r in range(nrows):
            f = rows[r][pc]
            if r != pr and f:
                new = [p * a - f * b for a, b in zip(rows[r], prow)]
                g = math.gcd(*new)
                rows[r] = [a // g for a in new] if g > 1 else new
        pivots.append(pc)
        pr += 1
        if pr == nrows:
            break
    return rows, pivots


def naive_rref(m: Matrix):
    """Textbook Fraction-only Gauss-Jordan; independent of the integer core."""
    rows = [list(r) for r in m.rows]
    nrows, ncols = len(rows), m.ncols
    pivots = []
    pr = 0
    for pc in range(ncols):
        piv = next((r for r in range(pr, nrows) if rows[r][pc] != 0), None)
        if piv is None:
            continue
        rows[pr], rows[piv] = rows[piv], rows[pr]
        p = rows[pr][pc]
        rows[pr] = [a / p for a in rows[pr]]
        for r in range(nrows):
            if r != pr and rows[r][pc] != 0:
                f = rows[r][pc]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[pr])]
        pivots.append(pc)
        pr += 1
        if pr == nrows:
            break
    clean = [tuple(r) for r in rows if any(r)]
    reduced = Matrix(clean, ncols=ncols) if clean else Matrix([], ncols=ncols)
    return reduced, tuple(pivots)


def kernel_by_naive_rref(m: Matrix) -> Matrix:
    """Canonical basis of {x : M x = 0}: one vector per free column from ``naive_rref``, reduced by it again."""
    reduced, pivots = naive_rref(m)
    vecs = []
    for c in sorted(set(range(m.ncols)).difference(pivots)):
        x = [Fraction(0)] * m.ncols
        x[c] = Fraction(1)
        for row, pc in zip(reduced.rows, pivots):
            x[pc] = -row[c]
        vecs.append(x)
    return naive_rref(Matrix(vecs, ncols=m.ncols))[0]


def random_rational_matrix(rng: random.Random, nrows: int, ncols: int, bound: int = 6) -> Matrix:
    return Matrix(
        [
            [Fraction(rng.randint(-bound, bound), rng.randint(1, 3)) for _ in range(ncols)]
            for _ in range(nrows)
        ],
        ncols=ncols,
    )


def random_symmetric_matrix(rng: random.Random, n: int, bound: int = 6) -> Matrix:
    entries = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = Fraction(rng.randint(-bound, bound), rng.randint(1, 3))
            entries[i][j] = v
            entries[j][i] = v
    return Matrix(entries)


def random_invertible_matrix(rng: random.Random, n: int, bound: int = 5) -> Matrix:
    while True:
        m = random_rational_matrix(rng, n, n, bound)
        if len(naive_rref(m)[1]) == n:
            return m


def certificate_by_dense_solve(m, h, t):
    """(A_coeffs, k) at T from the dense system ``solve_particular`` solves, or None.

    Columns D_j^T G T and -G T, right-hand side -ad(T)^T G T: built from whole
    matrices, one product per operator, without any precomputed tensor.
    """
    gt = m.form.gram @ t
    cols = [op.transpose() @ gt for op in h.basis] + [tuple(-x for x in gt)]
    rhs = tuple(-x for x in (ad_by_table(m.algebra, t).transpose() @ gt))
    x = solve_particular(Matrix(zip(*cols), ncols=len(cols)), rhs)
    if x is None:
        return None
    return x[:-1], x[-1]


def certificate_holds_by_fractions(m, h, cert) -> bool:
    """Whether <[T, e_b] + A e_b, T> = k <T, e_b> for every b, and k = 0 when <T, T> != 0.

    Evaluated in Fractions, term by term, from the Gram matrix, the bracket
    table and h's basis matrices, with no common denominator cleared.
    """
    t = cert.T
    gt = m.form.gram @ t
    lhs = [Fraction(0)] * len(t)
    for (i, j), targets in m.algebra.table.items():  # [e_i, e_j] = sum c e_k with i < j
        s = sum((c * gt[k] for k, c in targets.items()), Fraction(0))
        if s:
            lhs[j] += t[i] * s
            lhs[i] -= t[j] * s
    for c, op in zip(cert.A_coeffs, h.basis):
        if c:
            for d, row in enumerate(op.rows):
                for b, v in enumerate(row):
                    if v and gt[d]:
                        lhs[b] += c * v * gt[d]
    if any(x != cert.k * g for x, g in zip(lhs, gt)):
        return False
    return dot(t, gt) == 0 or cert.k == 0


def dense_product(a_rows, b_rows, ncols):
    """Row-by-column sums over every entry, zeros included, as nested lists."""
    inner = len(b_rows)
    return [
        [sum((row[k] * b_rows[k][j] for k in range(inner)), Fraction(0)) for j in range(ncols)]
        for row in a_rows
    ]


def entries(op: Matrix) -> list:
    """The nonzero entries (row, column, value) of an operator, row-major, read off its dense rows."""
    return [(k, c, v) for k, row in enumerate(op.rows) for c, v in enumerate(row) if v]


def certificate_tensors_by_dense_products(m, h):
    """The certificate system's paired tensor and h's triples before clearing: entries(G @ D_j) and entries(D_j)."""
    return [entries(m.form.gram @ op) for op in h.basis], [entries(op) for op in h.basis]


def lowered_brackets(m) -> list[list[tuple]]:
    """low[a][c][b] = <[e_a, e_c], e_b>: the Gram matrix applied to each basis bracket, n^2 dense products."""
    gram = m.form.gram
    return [[gram @ m.algebra.bracket_basis(a, c) for c in range(m.dim)] for a in range(m.dim)]


def linear_certificate_by_dense_assembly(m, h):
    """The linear certificate's coefficient matrix from the polarized system, or None.

    One dense row per (a <= b, c) over the dim(h) * n unknowns L[j][a], built
    from whole products G D_j and the lowered bracket tensor, and solved with
    ``solve_particular``.
    """
    n, nh = m.dim, h.dim
    paired = [m.form.gram @ op for op in h.basis]  # paired[j][b, c] = <D_j e_c, e_b>
    low = lowered_brackets(m)
    rows, rhs = [], []
    for a in range(n):
        for b in range(a, n):
            for c in range(n):
                row = [Fraction(0)] * (nh * n)
                for j in range(nh):
                    row[j * n + a] += paired[j][b, c]
                    row[j * n + b] += paired[j][a, c]
                rows.append(row)
                rhs.append(-low[a][c][b] - low[b][c][a])
    x = solve_particular(Matrix(rows, ncols=nh * n), rhs)
    if x is None:
        return None
    return Matrix([x[j * n : (j + 1) * n] for j in range(nh)], ncols=n)


def omega_pair(omega: Matrix, x, y) -> Fraction:
    """omega(x, y) = x^T omega y, summed entry by entry."""
    out = Fraction(0)
    for v, row in zip(to_vec(x), omega.rows):
        if v:
            for w, entry in zip(to_vec(y), row):
                if w and entry:
                    out += v * w * entry
    return out


def extension_identity_failure_by_pairing(alg, data) -> str | None:
    """The message of the first failing phi-omega or cyclic omega identity, or None.

    Loops as ``ExtensionData.validate`` does (pairs i < j, then triples
    i < j < l) and evaluates every omega term through ``omega_pair``.
    """
    k = alg.dim
    d, phi, omega = data.derivation, data.phi, data.omega
    for i in range(k):
        for j in range(i + 1, k):
            phi_val = sum((phi[t] * c for t, c in enumerate(alg.bracket_basis(i, j))), Fraction(0))
            omega_val = omega_pair(omega, d.column(i), basis_vec(k, j)) + omega_pair(
                omega, basis_vec(k, i), d.column(j)
            )
            if phi_val != omega_val:
                return f"compatibility of phi with omega fails on pair ({i},{j})"
    for i in range(k):
        for j in range(i + 1, k):
            for l in range(j + 1, k):
                cyc = (
                    omega_pair(omega, basis_vec(k, i), alg.bracket_basis(j, l))
                    + omega_pair(omega, basis_vec(k, j), alg.bracket_basis(l, i))
                    + omega_pair(omega, basis_vec(k, l), alg.bracket_basis(i, j))
                )
                if cyc != 0:
                    return f"cyclic omega identity fails on triple ({i},{j},{l})"
    return None


def jacobi_defect_by_brackets(alg):
    """Every triple i < j < k with a nonzero cyclic sum [e_i,[e_j,e_k]] + cyclic, by three outer table walks each.

    The brackets walk the rational table (``bracket_by_table``), not the cleared view the library keeps;
    the table is built once, not at each bracket, and each inner basis bracket [e_b, e_c], b != c, is
    walked once, in both orders.
    """
    n, alg = alg.dim, _with_table_read_once(alg)
    basis = [basis_vec(n, i) for i in range(n)]
    inner = {(b, c): bracket_by_table(alg, basis[b], basis[c]) for b in range(n) for c in range(n) if b != c}

    def nested(a, b, c):
        return bracket_by_table(alg, basis[a], inner[b, c])

    defects = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total = tuple(a + b + c for a, b, c in zip(nested(i, j, k), nested(j, k, i), nested(k, i, j)))
                if any(total):
                    defects.append(((i, j, k), total))
    return defects


def derivation_rows_by_elementary_operators(alg):
    """Every nonzero row ((i, j, m), {l*n + k: coefficient}) of the derivation identity, i < j, in order.

    D -> [D e_i, e_j] + [e_i, D e_j] - D [e_i, e_j] is linear in D, so the
    coefficient of D[l, k] in component m is the identity's value on the
    elementary operator E_lk (E_lk e_x = e_l when x = k, else 0), times the
    algebra's ``_den``.  Every E_lk and every m is evaluated, on a dense cube
    of basis brackets read off the rational table by ``bracket_by_table``.
    """
    n, table = alg.dim, _with_table_read_once(alg)
    basis = [basis_vec(n, i) for i in range(n)]
    cube = [[[c * alg._den for c in bracket_by_table(table, x, y)] for y in basis] for x in basis]  # L [e_x, e_y]
    assert all(c.denominator == 1 for plane in cube for vec in plane for c in vec)
    zero = [0] * n
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            rows = [{} for _ in range(n)]
            for l in range(n):
                for k in range(n):
                    left = cube[l][j] if k == i else zero  # [E_lk e_i, e_j]
                    right = cube[i][l] if k == j else zero  # [e_i, E_lk e_j]
                    for m in range(n):
                        image = cube[i][j][k] if m == l else 0  # E_lk [e_i, e_j] = [e_i, e_j]_k e_l
                        if value := left[m] + right[m] - image:
                            rows[m][l * n + k] = int(value)
            out += [((i, j, m), row) for m, row in enumerate(rows) if row]
    return out


def first_defects_in_fractions(n, indexed, ops):
    """The key of the least indexed row each operator (as its sparse rows) fails, summed in Fractions, or None."""
    keys, by_entry = indexed
    out = []
    for op in ops:
        sums = {}
        for i, entries in enumerate(op):
            for j, v in entries:
                for r, c in by_entry.get(i * n + j, ()):
                    sums[r] = sums.get(r, Fraction(0)) + Fraction(c) * v
        failing = [r for r, total in sums.items() if total]
        out.append(keys[min(failing)] if failing else None)
    return out


def derivation_failures_by_brackets(alg, op: Matrix):
    """Every pair i < j, in order, with D[e_i, e_j] != [D e_i, e_j] + [e_i, D e_j], by table brackets.

    The brackets are read straight off the rational table, [e_j, e_i] = -[e_i, e_j]
    written out, over its nonzero entries; not through the cleared view the library keeps.
    """
    n = alg.dim
    brackets = {}
    for (i, j), targets in alg.table.items():
        brackets[i, j] = targets
        brackets[j, i] = {k: -c for k, c in targets.items()}
    columns = [[(l, op[l, i]) for l in range(n) if op[l, i]] for i in range(n)]  # D e_i = sum_l D[l, i] e_l
    failures = []
    for i in range(n):
        for j in range(i + 1, n):
            defect = {}  # D[e_i, e_j] - [D e_i, e_j] - [e_i, D e_j]
            for k, c in brackets.get((i, j), {}).items():
                for m, d in columns[k]:
                    defect[m] = defect.get(m, 0) + c * d
            for pairs in ([((l, j), d) for l, d in columns[i]], [((i, l), d) for l, d in columns[j]]):
                for key, d in pairs:
                    for m, c in brackets.get(key, {}).items():
                        defect[m] = defect.get(m, 0) - c * d
            if any(defect.values()):
                failures.append((i, j))
    return failures


def derivation_defect_by_brackets(alg, op: Matrix):
    """First pair i < j with D[e_i, e_j] != [D e_i, e_j] + [e_i, D e_j], by generic brackets."""
    return next(iter(derivation_failures_by_brackets(alg, op)), None)


def reduce_vector_by_elimination(space, vec):
    """Residual of vec after eliminating along each basis row's first nonzero entry, in turn."""
    v = list(to_vec(vec))
    for row in space.basis.rows:
        pc = next(j for j, a in enumerate(row) if a != 0)
        c = v[pc] / row[pc]
        if c:
            v = [a - c * b for a, b in zip(v, row)]
    return tuple(v)


def contains_by_elimination(space, vec) -> bool:
    return all(a == 0 for a in reduce_vector_by_elimination(space, vec))


def quotient_by_transposed_solve(m, result):
    """Bracket table of a reduction, each complement coordinate solved for.

    Every bracket of two complement rows is solved against the transposed
    complement-plus-eg basis, one ``solve_particular`` per vector, and the eg
    coordinates are dropped.
    """
    comp, eg = result.complement_rows, result.witness.eg
    k = comp.nrows
    solver = Matrix(list(comp.rows) + list(eg.basis.rows), ncols=m.dim).transpose()

    def comp_coords(vec):
        coords = solve_particular(solver, vec)
        assert coords is not None, "vector outside m1"
        return coords[:k]

    return _quotient_by(m, result, comp_coords)


def quotient_by_dense_pivot_coordinates(m, result):
    """Bracket table of a reduction, each bracket's eg part removed densely.

    eg's part, read at eg's pivots, is subtracted as a dense Matrix-vector
    product; the rest's m1 coordinates are read by the dense
    ``Subspace.coordinates`` and kept at the pivots eg does not use.
    """
    eg, m1 = result.witness.eg, result.witness.m1
    eg_rows = eg.basis.transpose()
    comp_at = [i for i, pc in enumerate(m1.pivots) if pc not in eg.pivots]

    def comp_coords(vec):
        part = eg_rows @ [vec[p] for p in eg.pivots]
        coords = m1.coordinates(tuple(a - b for a, b in zip(vec, part)))
        assert coords is not None, "vector outside m1"
        return tuple(coords[i] for i in comp_at)

    return _quotient_by(m, result, comp_coords)


def _quotient_by(m, result, comp_coords):
    """The quotient's bracket table, read through comp_coords."""
    comp = result.complement_rows
    k = comp.nrows
    table = {}
    for i in range(k):
        for j in range(i + 1, k):
            coords = comp_coords(m.algebra.bracket(comp.row(i), comp.row(j)))
            if any(coords):
                table[(i, j)] = {t: c for t, c in enumerate(coords) if c}
    return table


def pair_by_dense_product(form, x, y) -> Fraction:
    """<x, y> as x . (G y), G y the dense Matrix-vector product."""
    return dot(to_vec(x), form.gram @ to_vec(y))


def coordinates_by_solve(space, vec):
    """Coefficients of vec in the space's basis from the transposed system, or None."""
    return solve_particular(space.basis.transpose(), vec)


def commutator_closed_by_dense_products(space) -> bool:
    """Whether a @ b - b @ a lies in the span for every two basis operators of an OperatorSpace.

    Each commutator is two dense products, tested by elimination against the
    vectorized basis.
    """
    n2 = space.ambient_dim * space.ambient_dim
    span = Subspace.from_basis(n2, Matrix([op.vectorize() for op in space.basis], ncols=n2))
    return all(
        contains_by_elimination(span, (a @ b - b @ a).vectorize())
        for i, a in enumerate(space.basis)
        for b in space.basis[i + 1 :]
    )


def adh_invariant_by_dense_products(v, h) -> bool:
    """Whether D x lies in V for every basis operator D of h and basis vector x of V, each D x a dense product."""
    return all(v.contains_vector(d @ x) for d in h.basis for x in v.basis.rows)


def skew_failures_by_products(form, op: Matrix):
    """Every entry (a, b), a <= b, in row-major order, where D^T G + G D is nonzero; two dense products."""
    s = op.transpose() @ form.gram + form.gram @ op
    return [(a, b) for a in range(s.nrows) for b in range(a, s.ncols) if s[a, b]]


def skew_defect_by_products(form, op: Matrix):
    """First entry (a, b), in row-major order, where D^T G + G D is nonzero, or None.

    D^T G + G D is symmetric, so that entry has a <= b.
    """
    return next(iter(skew_failures_by_products(form, op)), None)


# The subspaces below are built as before ``Subspace.solving``: dense products
# stacked into one matrix whose kernel ``kernel_by_naive_rref`` takes, with the
# empty inputs answered separately.


def _stacked(blocks, ncols: int) -> Matrix:
    return Matrix([row for block in blocks for row in block.rows], ncols=ncols)


def annihilator_by_kernel(v) -> Matrix:
    """Rows y with (basis) y = 0: the identity for the zero subspace, else the kernel of the basis."""
    if v.dim == 0:
        return Matrix.identity(v.ambient_dim)
    return kernel_by_naive_rref(v.basis)


def centralizer_by_stacked_ads(alg, v):
    """{x : [x, w] = 0 for all w in V}: the kernel of the stacked -ad(w), whose column a is [e_a, w]."""
    if v.dim == 0:
        return Subspace.full(alg.dim)
    stacked = _stacked([ad_by_table(alg, w).scale(-1) for w in v.basis.rows], alg.dim)
    return Subspace.from_basis(alg.dim, kernel_by_naive_rref(stacked))


def transporter_by_stacked_products(alg, v, w):
    """{x : [x, V] <= W}: the kernel of the stacked products ann(W) @ -ad(u) over V's basis."""
    if v.dim == 0:
        return Subspace.full(alg.dim)
    ann = annihilator_by_kernel(w)
    stacked = _stacked([ann @ ad_by_table(alg, u).scale(-1) for u in v.basis.rows], alg.dim)
    return Subspace.from_basis(alg.dim, kernel_by_naive_rref(stacked))


def intersect_by_stacked_annihilators(v, w):
    """V meet W: the kernel of both annihilators stacked."""
    stacked = _stacked([annihilator_by_kernel(v), annihilator_by_kernel(w)], v.ambient_dim)
    return Subspace.from_basis(v.ambient_dim, kernel_by_naive_rref(stacked))


def engel_split_by_flag(m):
    """The degeneracy-2 split (eg, m1, (e1, e2), (f1, f2)) through the 2x2 matrices of ad(s) on o.

    ad(s) on the null plane o is written as one 2x2 matrix per basis vector of
    s = n' + v, from whole-vector brackets and coordinates in o; e2 spans
    their common kernel, solved at once, and e1 is the canonical basis row of
    o's coordinates off its pivot, both mapped back through o's basis.
    """
    nprime = m.nprime()
    o, s = radical_of_restriction(m, nprime), nprime.plus(m.v_complement())
    rows = []
    for sb in s.basis.rows:
        cols = [o.coordinates(m.algebra.bracket(sb, x)) for x in o.basis.rows]
        rows.extend(enumerate(r) for r in zip(*cols))
    common = Subspace.solving(o.dim, rows)
    e2 = o.basis.transpose() @ common.basis.row(0)
    e1 = o.basis.transpose() @ common.complement_within(Subspace.full(o.dim)).basis.row(0)
    eg = Subspace.span(m.dim, [e2])
    return eg, orth_complement(m, eg), (e1, e2), _dual_null_pair(m, e1, e2)


def radical_by_kernel(form):
    """{x : <x, .> = 0}: the kernel of the Gram matrix."""
    return Subspace.from_basis(form.dim, kernel_by_naive_rref(form.gram))


def orth_complement_by_product(m, v):
    """{x : <x, w> = 0 for all w in V}: the kernel of (basis of V) @ Gram, the whole space for V = 0."""
    if v.dim == 0:
        return Subspace.full(m.dim)
    return Subspace.from_basis(m.dim, kernel_by_naive_rref(v.basis @ m.form.gram))


def radical_of_restriction_by_restricted_kernel(m, v):
    """The radical of the form restricted to V, solved in V's coordinates and mapped back."""
    restricted = SymForm(v.basis @ m.form.gram @ v.basis.transpose())
    coords = radical_by_kernel(restricted)
    return Subspace.span(m.dim, [v.basis.transpose() @ c for c in coords.basis.rows])


# The bracket contractions below are the dense loops the library used before
# it summed over nonzero structure constants: every bracket is a dense walk of
# the i < j table over two whole vectors, every lowered image a transposed
# matrix product.


def _with_table_read_once(alg):
    """The algebra's dimension and rational table, the table built once, for ``bracket_by_table``'s many calls."""
    return SimpleNamespace(dim=alg.dim, table=alg.table)


def bracket_by_table(alg, x, y):
    """[x, y] = sum over table entries (i, j), i < j, of (x_i y_j - x_j y_i) [e_i, e_j].

    An entry is skipped, before any product is formed, when x_i y_j and x_j y_i are both zero, read off the
    supports of x and y; the sum over the other entries is the same.
    """
    x, y = to_vec(x), to_vec(y)
    xs, ys = {i for i, a in enumerate(x) if a}, {i for i, a in enumerate(y) if a}
    out = [Fraction(0)] * alg.dim
    for (i, j), targets in alg.table.items():
        if ((i in xs and j in ys) or (j in xs and i in ys)) and (c := x[i] * y[j] - x[j] * y[i]):
            for k, v in targets.items():
                out[k] += c * v
    return tuple(out)


def ad_by_table(alg, x) -> Matrix:
    """The dense matrix of y -> [x, y]: column b is ``bracket_by_table(alg, x, e_b)``."""
    n = alg.dim
    return Matrix(zip(*[bracket_by_table(alg, x, basis_vec(n, b)) for b in range(n)]), ncols=n)


def bracket_span_by_dense_brackets(alg, v, w):
    """Span of [x, y] over basis vectors x of V and y of W, each bracket a dense table walk."""
    return Subspace.span(alg.dim, [bracket_by_table(alg, x, y) for x in v.basis.rows for y in w.basis.rows])


def lower_central_series_by_dense_brackets(alg):
    """n >= [n, n] >= [n, [n, n]] >= ... down to the first repeated term, each a span of dense brackets."""
    full = Subspace.full(alg.dim)
    chain = [full]
    current = bracket_span_by_dense_brackets(alg, full, full)
    while True:
        chain.append(current)
        if current.dim == 0:
            return chain
        nxt = bracket_span_by_dense_brackets(alg, full, current)
        if nxt == current:
            return chain
        current = nxt


def necessary_condition_by_dense_images(m):
    """``necessary_condition_check`` as a dense loop: per a, the matrix of <[e_a, e_c], e_b> and dot products."""
    nprime = m.nprime()
    if restrict_form(m, nprime).signature().r != 0:
        return NecessaryConditionReport(True, "form restricted to n' is degenerate; identities do not apply", ())
    violations = []
    rows = nprime.basis.rows
    low = lowered_brackets(m)
    for a in range(m.dim):
        lowered_ad = Matrix(low[a], ncols=m.dim)  # lowered_ad[c, b] = <[e_a, e_c], e_b>
        images = [lowered_ad.transpose() @ x for x in rows]  # images[i][b] = <[e_a, x_i], e_b>
        for i in range(len(rows)):
            for j in range(i, len(rows)):
                defect = dot(images[i], rows[j]) + dot(images[j], rows[i])
                if defect != 0:
                    violations.append((a, i, j, defect))
    return NecessaryConditionReport(False, "", tuple(violations))


def congruence_diagonalize_dense(g: Matrix):
    """``linalg.congruence_diagonalize`` as it was: every step updates whole dense rows and columns.

    Pivots on the first active nonzero diagonal entry; with none, substitutes
    b_i <- b_i + b_j for the first active pair with g_ij != 0; with no such
    pair either, the remaining basis rows get diagonal value 0.
    """
    if not g.is_symmetric():
        raise ValueError("congruence diagonalization needs a symmetric matrix")
    n = g.nrows
    c = [list(row) for row in g.rows]
    basis = [list(row) for row in Matrix.identity(n).rows]
    active = list(range(n))
    out_rows, diag = [], []
    while active:
        pivot = next((i for i in active if c[i][i] != 0), None)
        if pivot is None:
            pair = next(((i, j) for ai, i in enumerate(active) for j in active[ai + 1 :] if c[i][j] != 0), None)
            if pair is None:
                for i in active:
                    out_rows.append(basis[i])
                    diag.append(Fraction(0))
                break
            i, j = pair
            basis[i] = [a + b for a, b in zip(basis[i], basis[j])]
            for k in range(n):
                c[i][k] += c[j][k]
            for k in range(n):
                c[k][i] += c[k][j]
            continue
        d = c[pivot][pivot]
        for j in active:
            if j == pivot or c[pivot][j] == 0:
                continue
            f = c[pivot][j] / d
            basis[j] = [a - f * b for a, b in zip(basis[j], basis[pivot])]
            for k in range(n):
                c[j][k] -= f * c[pivot][k]
            for k in range(n):
                c[k][j] -= f * c[k][pivot]
        out_rows.append(basis[pivot])
        diag.append(d)
        active.remove(pivot)
    return Matrix(out_rows, ncols=n), tuple(diag)
