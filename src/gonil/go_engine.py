"""Geodesic-orbit certification by exact linear feasibility.

For a fixed tangent vector T the defining equation is linear in the unknown
pair (A, k), with A ranging over a given space of skew derivations: one exact
solve per vector, no optimization loop.  Because the ambient algebra splits
as (skew derivations) + (the nilpotent algebra itself) with the algebra an
ideal, no projection is needed in the bracket term.

The bracket identities are summed over nonzero structure constants only, and
in ints: the lowered bracket tensor <[e_a, e_c], e_b> is kept on the metric
algebra in ints, with its scale, built once from the stored int bracket table
and the cleared Gram matrix; the polarized identity reads that table
and the cleared Gram matrix itself, and operators enter by their nonzero
entries, cleared to ints at one common scale.

The per-vector system is built once per (m, h) as sparse tensors whose
denominators are cleared at build time, so each sample is assembled,
eliminated and checked in Python integers: its rows are positive multiples of
the rational rows, whose row space, and so whose canonical solution, they
share.  An audit sample stays in integers from its draw to its check; a
Fraction is made only for what a report prints (T and the solved unknowns).

A randomized audit refutes the property exactly when it finds one infeasible
integer vector; an all-feasible run is evidence only, never proof, since the
property quantifies over a continuum.  Audit verdicts are REFUTED or
CONSISTENT, never "proven".
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain, islice
from typing import Iterator, Sequence

from gonil.isotropy import OperatorSpace, _int_operators, _isotropy_defects
from gonil.linalg import (
    DimensionMismatch,
    Matrix,
    Vec,
    _solve_rows,
    _times,
    _to_fractions,
    _to_ints,
    fmt_vec,
    rational_sqrt,
    to_vec,
    vec_add,
    vec_scale,
)
from gonil.metric import MetricLieAlgebra

class GOEngineError(ValueError):
    """Invalid input to a certification routine."""


@dataclass(frozen=True)
class GOCertificate:
    """Exact witness (A, k) for one tangent vector T.

    Satisfies <[T + A, e_b], T> = k <T, e_b> for every basis vector e_b, with
    A given by its coefficients in the operator-space basis.  k vanishes
    whenever T is non-null (substitute T' = T to see it is forced).
    """

    T: Vec
    A_coeffs: Vec
    k: Fraction


@dataclass(frozen=True)
class LinearGOCertificate:
    """A linear map T -> A(T) certifying the property with k identically 0.

    coeffs has one row per operator-space basis element; column a holds the
    coefficients of A(e_a).  Existence is sufficient for the geodesic-orbit
    property but not necessary: pointwise certificates may depend nonlinearly
    on T and may need k != 0 on null vectors.
    """

    coeffs: Matrix


@dataclass(frozen=True)
class AuditPoint:
    index: int
    T: Vec
    certificate: GOCertificate | None

    @property
    def feasible(self) -> bool:
        return self.certificate is not None


@dataclass(frozen=True)
class GOAuditReport:
    samples: int
    seed: int
    bound: int
    points: tuple[AuditPoint, ...]
    null_point: AuditPoint | None

    @property
    def failures(self) -> tuple[Vec, ...]:
        out = [p.T for p in self.points if not p.feasible]
        if self.null_point is not None and not self.null_point.feasible:
            out.append(self.null_point.T)
        return tuple(out)

    @property
    def verdict(self) -> str:
        return "REFUTED" if self.failures else "CONSISTENT"

    def lines(self) -> list[str]:
        out = [
            f"SAMPLES: {self.samples}",
            f"SEED: {self.seed}",
            f"BOUND: {self.bound}",
            f"VERDICT: {self.verdict}",
            f"FAILURES: {len(self.failures)}",
        ]
        all_points = list(self.points)
        if self.null_point is not None:
            out.append(f"NULL_SAMPLE: {fmt_vec(self.null_point.T)}")
            all_points.append(self.null_point)
        else:
            out.append("NULL_SAMPLE: none")
        fail_idx = 0
        for p in all_points:
            label = "null" if p.index < 0 else str(p.index)
            if p.feasible:
                cert = p.certificate
                out.append(f"CERT[{label}].T: {fmt_vec(p.T)}")
                out.append(f"CERT[{label}].A: {fmt_vec(cert.A_coeffs)}")
                out.append(f"CERT[{label}].K: {cert.k}")
            else:
                out.append(f"FAILURE[{fail_idx}].T: {fmt_vec(p.T)}")
                fail_idx += 1
        return out


def check_subisotropy(m: MetricLieAlgebra, h: OperatorSpace) -> None:
    """Verify that every basis operator of h, by its kept nonzero entries, solves the isotropy rows m keeps."""
    if h.ambient_dim != m.dim:
        raise GOEngineError("operator space dimension differs from the algebra")
    for skew, defect in zip(*_isotropy_defects(m, h.span.entries)):
        if skew is not None:
            raise GOEngineError("operator space is not inside the isotropy algebra (skewness fails)")
        if defect is not None:
            raise GOEngineError("operator space is not inside the isotropy algebra (derivation fails)")


def tangent_vector(m: MetricLieAlgebra, t) -> Vec:
    """t as a vector, refused with GOEngineError unless it has m's dimension and is nonzero."""
    t = to_vec(t)
    if len(t) != m.dim:
        raise GOEngineError("tangent vector has wrong length")
    if not any(t):
        raise GOEngineError("tangent vector must be nonzero")
    return t


def check_audit_parameters(samples: int, bound: int) -> None:
    """Refuse an audit of fewer than one sample, or with a bound below 1, with GOEngineError."""
    if samples < 1:
        raise GOEngineError("need at least one sample")
    if bound < 1:
        raise GOEngineError("bound must be positive")


def _integer_vector(t: Vec) -> tuple[int, tuple[int, ...]]:
    """(d, T') with T = T' / d, T' integral and d > 0."""
    d = math.lcm(*[x.denominator for x in t])
    return d, tuple([x.numerator for x in t] if d == 1 else [x.numerator * (d // x.denominator) for x in t])


@dataclass(frozen=True)
class _CertificateSystem:
    """The per-vector certificate system of one (m, h), built once as sparse integer tensors.

    Row b of the system at T, with unknowns the h-basis coefficients c_j of A
    and the scalar k, reads

        sum_j c_j <D_j e_b, T>  -  k <T, e_b>  =  -<[T, e_b], T>.

    Its coefficients are linear in T and its right-hand side is quadratic, so
    each sample is one contraction of T with

        gram_rows[b] = ((e, G[b][e]), ...)                  <T, e_b>
        paired[j]    = ((e, b, (G D_j)[e][b]), ...)         <D_j e_b, T>
        quadratic    = ((a, b, c, <[e_a, e_b], e_c>), ...)  <[T, e_b], T>

    all three multiplied by L, the least common denominator of their entries,
    so they hold ints.  They are summed in ints, from the cleared Gram matrix,
    h's stored int entries and m's integer lowered tensor, brought to one common
    factor and divided by the gcd of that factor and every entry, which
    leaves L.  With T = T' / d for an integer vector T' and d > 0,
    row b times L d^2 has coefficients d <D_j e_b, T'> and -d <T', e_b> and
    right-hand side -<[T', e_b], T'> (each times L): integers, and a positive
    multiple of row b, so the canonical solution is the same.

    For <T, T> != 0 the k column is left out: row b times T_b, summed over b,
    is sum_j c_j <D_j T, T> - k <T, T> = -<[T, T], T> = 0, and <D_j T, T> = 0
    for skew D_j, so every solution has k = 0 and the canonical one is kept.
    Over the columns a sample keeps, that sum is the zero row: in integers too,
    as the integer rows are one positive multiple of the rational ones.  So a
    sample leaves out one row b with T'_b != 0 and solves the other n - 1.
    """

    m: MetricLieAlgebra
    h: OperatorSpace
    gram_rows: tuple[tuple[tuple[int, int], ...], ...]
    paired: tuple[tuple[tuple[int, int, int], ...], ...]
    quadratic: tuple[tuple[int, int, int, int], ...]

    @classmethod
    def build(cls, m: MetricLieAlgebra, h: OperatorSpace) -> _CertificateSystem:
        """The system of (m, h); raises GOEngineError unless h consists of skew derivations."""
        check_subisotropy(m, h)
        gram_rows, alg_den, op_den = m.form._cleared, m.algebra._den, h.span.den
        paired = []
        for triples in h._triples:  # (G' D'_j)[e][b] = sum_k G'[k][e] D'_j[k][b], G' symmetric
            acc: dict[tuple[int, int], int] = {}
            for k, b, v in triples:
                for e, g in gram_rows[k]:
                    acc[e, b] = acc.get((e, b), 0) + g * v
            paired.append([(e, b, x) for (e, b), x in sorted(acc.items()) if x])
        quadratic = [(a, b, c, v) for (a, b), row in sorted(m._lowered[1].items()) for c, v in sorted(row.items())]
        # The three carry L_G, the form's _den, times 1, op_den and the algebra's _den: each is brought to
        # L_G lcm(op_den, _den) by its factor f, then divided by the gcd g of that scale and every entry.
        den = math.lcm(op_den, alg_den)
        parts = ((gram_rows, den), (paired, den // op_den), ((quadratic,), den // alg_den))
        g = math.gcd(m.form._den * den, *(f * math.gcd(*[x[-1] for x in chain(*part)]) for part, f in parts))
        gram_rows, paired, (quadratic,) = (tuple(_rescaled(entries, f, g) for entries in part) for part, f in parts)
        return cls(m, h, gram_rows, paired, quadratic)


def _rescaled(entries, f: int, g: int) -> tuple[tuple, ...]:
    """Each int entry (..., v) as (..., v f / g), for a g that divides every v f."""
    return tuple(entries) if f == g else tuple((*x[:-1], x[-1] * f // g) for x in entries)


def go_certificate_at(
    m: MetricLieAlgebra, h: OperatorSpace, t, *, _system: _CertificateSystem | None = None
) -> GOCertificate | None:
    """Solve the per-vector certificate system; None means infeasible at T.

    The system, one equation per basis vector e_b with unknowns the h-basis
    coefficients of A and the scalar k:

        sum_j c_j <D_j e_b, T>  -  k <T, e_b>  =  -<[T, e_b], T>

    It is built in integers, each row straight as its {column: nonzero value} dict,
    and solved without the k column when <T, T> != 0 (see ``_CertificateSystem``).
    The densest row with T_b != 0 follows from the others and is left out, and
    the other n - 1 are solved: the row space, and so the canonical solution,
    is the same.  The certificate is checked on every row.
    """
    t = tangent_vector(m, t)
    if _system is None:
        _system = _CertificateSystem.build(m, h)
    elif _system.m is not m or _system.h is not h:
        raise AssertionError("internal: certificate system built for another (m, h)")
    d, ti = _integer_vector(t)
    dt = ti if d == 1 else [d * x for x in ti]
    nh = len(_system.paired)
    k_column = [-sum([v * dt[e] for e, v in gram_row if dt[e]]) for gram_row in _system.gram_rows]
    null = not sum([x * y for x, y in zip(ti, k_column)])  # -L d^3 <T, T>
    rhs = nh + 1 if null else nh  # columns c_0, ..., c_{dim h - 1}, k if null, rhs
    rows = [{nh: v} if null and v else {} for v in k_column]
    for j, entries in enumerate(_system.paired):
        for e, b, v in entries:
            if dt[e]:
                rows[b][j] = rows[b].get(j, 0) + v * dt[e]
    for a, b, c, v in _system.quadratic:
        if ti[a] and ti[c]:
            rows[b][rhs] = rows[b].get(rhs, 0) - v * ti[a] * ti[c]
    rows = [{j: a for j, a in row.items() if a} if 0 in row.values() else row for row in rows]  # cancelled sums out
    # Row b times T'_b, summed over b, is zero: the densest row with T'_b != 0 is implied by the others.
    sizes = [len(row) if x else -1 for row, x in zip(rows, ti)]
    del rows[sizes.index(max(sizes))]
    x = _solve_rows(rows, rhs)
    if x is None:
        return None
    cert = GOCertificate(t, x[:nh], x[nh] if null else Fraction(0))
    _verify_certificate(_system, cert, d, ti)
    return cert


def _verify_certificate(system: _CertificateSystem, cert: GOCertificate, d: int, t: tuple[int, ...]) -> None:
    """Check <[T, e_b] + A e_b, T> = k <T, e_b> for every b, and k = 0 when <T, T> != 0.

    Evaluated from the Gram matrix, the bracket table and h's triples
    (``OperatorSpace._triples``), not from the tensors the system was
    contracted from, and in integers.
    Write T = T' / d, where (d, T') = (d, t) is the caller's ``_integer_vector``
    of T, g = G' T' for the cleared Gram matrix G' (a positive multiple of G T),
    and (c', k') = q (c, k) for q the common denominator of the certificate.
    Every term is linear in G T, and the bracket term has one more factor T,
    so row b times a positive constant reads

        op_den q <[T', e_b]', g> + d L <sum_j c'_j D'_j e_b, g> = d L op_den k' g_b

    with <x, g> the plain dot product, [., .]' = L [., .] the algebra's
    cleared bracket (L its ``_den``) and D'_j = op_den D_j the operators' triples,
    op_den h's ``span.den``.
    """
    algebra, coeffs = system.m.algebra, cert.A_coeffs
    q = math.lcm(cert.k.denominator, *[c.denominator for c in coeffs])
    g = [sum([v * t[e] for e, v in row if t[e]]) for row in system.m.form._cleared]
    bracket_part = [0] * len(t)
    for (i, j), targets in algebra._table.items():  # L [e_i, e_j] = sum c e_k with i < j
        s = sum([c * g[k] for k, c in targets.items()])
        if s:
            bracket_part[j] += t[i] * s
            bracket_part[i] -= t[j] * s
    op_part, op_den = [0] * len(t), system.h.span.den
    for c, triples in zip(coeffs, system.h._triples):
        if c:
            c = c.numerator * (q // c.denominator)
            for e, b, v in triples:
                if g[e]:
                    op_part[b] += c * v * g[e]
    outer, inner = op_den * q, d * algebra._den
    k = cert.k.numerator * (q // cert.k.denominator) * inner * op_den
    if any(outer * x + inner * y != k * gb for x, y, gb in zip(bracket_part, op_part, g)):
        raise AssertionError("internal: certificate fails its defining identity")
    if sum([x * gb for x, gb in zip(t, g)]) != 0 and cert.k != 0:
        raise AssertionError("internal: k must vanish on non-null vectors")


def first_null_vector(m: MetricLieAlgebra) -> Vec | None:
    """A deterministic rational null vector, if the diagonalizer exposes one.

    Scans the congruence-diagonal values for the first opposite-sign pair
    whose ratio is a perfect rational square.
    """
    basis, diag = m.form._diagonal
    n = len(diag)
    for i in range(n):
        for j in range(i + 1, n):
            if diag[i] * diag[j] < 0:
                s = rational_sqrt(-diag[i] / diag[j])
                if s is not None:
                    return vec_add(basis.row(i), vec_scale(s, basis.row(j)))
    return None


def _uniform_draws(seed: int, bound: int) -> Iterator[int]:
    """random.Random(seed).randrange(2 * bound + 1) - bound, draw after draw, by CPython's getrandbits rejection."""
    span = 2 * bound + 1
    bits, getrandbits = span.bit_length(), random.Random(seed).getrandbits
    while True:
        if (r := getrandbits(bits)) < span:
            yield r - bound


def go_random_audit(
    m: MetricLieAlgebra,
    h: OperatorSpace,
    samples: int,
    seed: int,
    bound: int = 10,
) -> GOAuditReport:
    """Per-vector feasibility on seeded integer samples plus one null vector.

    Any exact infeasibility refutes the geodesic-orbit property for this
    operator space; an all-feasible report is CONSISTENT, nothing stronger.
    Entries are drawn uniformly from [-bound, bound]; zero vectors are
    redrawn.  The extra null sample (when the form exposes one rationally)
    covers the k != 0 regime.
    """
    check_audit_parameters(samples, bound)
    system = _CertificateSystem.build(m, h)
    draws = _uniform_draws(seed, bound)
    fraction = cache(Fraction)  # one Fraction per entry value drawn, shared by the samples
    points = []
    for idx in range(samples):
        ti = list(islice(draws, m.dim))
        while not any(ti):
            ti = list(islice(draws, m.dim))
        t = tuple(map(fraction, ti))
        points.append(AuditPoint(idx, t, go_certificate_at(m, h, t, _system=system)))
    null_point = None
    nv = first_null_vector(m)
    if nv is not None:
        null_point = AuditPoint(-1, nv, go_certificate_at(m, h, nv, _system=system))
    return GOAuditReport(samples, seed, bound, tuple(points), null_point)


def linear_go_certificate(m: MetricLieAlgebra, h: OperatorSpace) -> LinearGOCertificate | None:
    """Solve for a linear map T -> A(T) with k identically zero.

    Polarizing the quadratic-in-T identity gives, for basis indices a <= b
    and every c:

        <[e_a + A(e_a), e_c], e_b> + <[e_b + A(e_b), e_c], e_a> = 0,

    a single linear system in the dim(h) * n coefficients of the map.
    Feasibility is sufficient for the geodesic-orbit property; infeasibility
    only rules out linear witnesses with k = 0.  The solution is checked on
    the polarized identity in ints, from h's stored int entries, not from the
    system's tensors.
    """
    system = _CertificateSystem.build(m, h)
    n, nh = m.dim, h.dim
    width = nh * n
    # Substituting c_j = sum_a L[j][a] T_a and k = 0 into row b of the
    # per-vector system leaves a quadratic form in T that must vanish: one
    # sparse row (L[j][a] at j * n + a, right-hand side at width) per T_a T_e, a <= e.
    # For skew h, row (b, a, a) with b != a is -1 times row (a, min(a, b), max(a, b)): skipped.
    # The tensors are cleared by one common factor, which scales every row alike.
    # Entry (e, b) of paired[j] is the one term at column j * n + a of row (b, a, e) or (b, e, a).
    rows: dict[tuple[int, int, int], dict[int, int]] = {}
    get = rows.setdefault
    for j, entries in enumerate(system.paired):
        col = j * n
        for e, b, v in entries:
            for a in range(e):
                get((b, a, e), {})[col + a] = v
            for a in range(e if e == b else e + 1, n):
                get((b, e, a), {})[col + a] = v
    for a, b, c, v in system.quadratic:
        if a != c or c == b:
            row = get((b, a, c) if a <= c else (b, c, a), {})
            row[width] = row.get(width, 0) - v
    for row in rows.values():
        if row.get(width) == 0:  # the two bracket terms cancelled
            del row[width]
    x = _solve_rows(rows.values(), width)
    if x is None:
        return None
    # A(e_a) = sum_j x[j * n + a] D_j: q s A(e_a), s = h.span.den, from h's triples and x times q, x's denominator
    q, (xs,) = _to_ints([enumerate(x)])
    witness = ((ja % n, k, c, w * v) for ja, w in xs for k, c, v in h._triples[ja // n])
    if _polarized_sums(m, witness, q * h.span.den)[1]:
        raise AssertionError("internal: linear certificate fails polarized identity")
    return LinearGOCertificate(Matrix([x[j * n : (j + 1) * n] for j in range(nh)], ncols=n))


def polarized_defects(m: MetricLieAlgebra, ops: Sequence[Matrix]) -> list[tuple[int, int, int, Fraction]]:
    """Nonzero values of the polarized orbit identity for the family T -> A(T).

    ops[a] is A(e_a), one n-by-n operator per basis vector; anything else
    raises DimensionMismatch.  For a <= b and every c the identity reads

        <[e_a, e_c] + A(e_a) e_c, e_b> + <[e_b, e_c] + A(e_b) e_c, e_a> = 0.

    It is quadratic in T and linear in the probe, so vanishing on these basis
    triples is equivalent to the full statement for a linear family.  The
    defects come back as (a, b, c, value) in loop order.
    """
    n = m.dim
    if len(ops) != n or any(op.nrows != n or op.ncols != n for op in ops):
        raise DimensionMismatch("need one n-by-n operator per basis vector")
    return _polarized_defects(m, *_int_operators(n, ops))


def _polarized_defects(m: MetricLieAlgebra, den: int, ops) -> list[tuple[int, int, int, Fraction]]:
    """``polarized_defects`` of the A(e_a) whose (row-major index, int) entries ops[a] hold den A(e_a)'s nonzeros."""
    n = m.dim
    scale, sums = _polarized_sums(m, ((a, *divmod(kc, n), w) for a, op in enumerate(ops) for kc, w in op), den)
    return list(_to_fractions(scale, sums))


def _polarized_sums(m: MetricLieAlgebra, entries, den: int) -> tuple[int, list[tuple[int, int, int, int]]]:
    """(S, the polarized identity's nonzero values times S) for int entries (a, k, c, w) adding up to den A(e_a)[k][c].

    Summed in ints: S is den L_G L for L_G the form's ``_den`` and L the
    algebra's.  Each nonzero L_G L <[e_a, e_c], e_b>, from the algebra's
    ``_table`` and the cleared Gram matrix G', counts den times, each
    G'[b][k] w counts L times, into the key (min(a, b), max(a, b), c), twice
    when a = b; the sorted keys are the order of the loop over a <= b, then c.
    """
    gram, alg_den = m.form._cleared, m.algebra._den
    sums: dict[tuple[int, int, int], int] = {}
    for (i, j), targets in m.algebra._table.items():
        for b, v in _times(gram, targets.items()).items():
            for a, c, x in ((i, j, den * v), (j, i, -den * v)):
                key = (a, b, c) if a <= b else (b, a, c)
                sums[key] = sums.get(key, 0) + (x + x if a == b else x)
    for a, k, c, w in entries:
        w *= alg_den
        for b, g in gram[k]:
            key = (a, b, c) if a <= b else (b, a, c)
            sums[key] = sums.get(key, 0) + (2 * g * w if a == b else g * w)
    return den * m.form._den * alg_den, [(*key, v) for key, v in sorted(sums.items()) if v]


@dataclass(frozen=True)
class NecessaryConditionReport:
    """Outcome of the polarized bracket-orthogonality identities on n'."""

    skipped: bool
    notice: str
    nprime_basis: Matrix
    violations: tuple[tuple[int, int, int, Fraction], ...]

    @property
    def passed(self) -> bool:
        return not self.skipped and not self.violations

    def lines(self) -> list[str]:
        if self.skipped:
            return [f"NECESSARY_CONDITIONS: SKIPPED ({self.notice})"]
        out = [f"NECESSARY_CONDITIONS: {'PASS' if self.passed else 'FAIL'}"]
        for a, i, j, defect in self.violations:
            out.append(f"VIOLATION: ambient={a} nprime_i={i} nprime_j={j} defect={defect}")
        return out


def necessary_condition_check(m: MetricLieAlgebra) -> NecessaryConditionReport:
    """Check <[e_a, x], y> + <[e_a, y], x> = 0 for all x, y in a basis of n'.

    These identities follow from the geodesic-orbit property when the form
    restricted to n' is nondegenerate; on a degenerate restriction the check
    does not apply and is skipped with a notice.
    """
    nprime = m.nprime()
    if m._nprime_form.signature().r != 0:
        return NecessaryConditionReport(
            True, "form restricted to n' is degenerate; identities do not apply",
            nprime.basis, ()
        )
    # Dots over n''s stored rows x'_i = L' x_i and m's lowered tensor at scale S: each is S L'^2 <[e_a, x_i], x_j>.
    (scale, low), den, xs = m._lowered, nprime.den, nprime.entries
    ys = [dict(x) for x in xs]
    violations = []
    for a in range(m.dim):
        lowered = [low.get((a, c), {}).items() for c in range(m.dim)]  # row c: the S <[e_a, e_c], e_b> as (b, value)
        images = [_times(lowered, x) for x in xs]  # images[i][b] = S L' <[e_a, x_i], e_b>
        dots = [[sum([v * y[b] for b, v in image.items() if b in y]) for y in ys] for image in images]
        pairs = ((i, j) for i in range(len(xs)) for j in range(i, len(xs)))
        violations += [(a, i, j, d) for i, j in pairs if (d := dots[i][j] + dots[j][i])]
    return NecessaryConditionReport(False, "", nprime.basis, _to_fractions(scale * den * den, violations))
