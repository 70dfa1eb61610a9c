"""Degeneracy classification, reduction witnesses, quotient, and 2-dim extension.

When the form restricted to the derived algebra is degenerate, the algebra
reduces: a totally null central subspace ``eg`` and its pairing partner are
split off, leaving a metric nilpotent quotient on ``m1/eg`` whose dimension
drops by twice dim(eg) and whose signature drops by (dim eg, dim eg), with the
form restricted to eg's complement in m1 once the witness passes (i)-(iv).  The
forward direction, :func:`extend2`, rebuilds a two-dimensional extension from
explicit data and is the round-trip partner of :func:`reduce`; the data is
checked as the extension's own Jacobi identity, on the bracket it then uses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from gonil.lie import EngelError, JacobiError, LieAlgebra, bracket_subspaces, centralizer, jacobi_defect
from gonil.isotropy import OperatorSpace, is_adh_invariant, isotropy_algebra
from gonil.linalg import (
    Matrix,
    SignatureTriple,
    Subspace,
    Vec,
    _ZERO,
    _to_fractions,
    fmt_vec,
    solve_particular,
    vec_add,
    vec_scale,
)
from gonil.metric import (
    MetricLieAlgebra,
    PreconditionError,
    SymForm,
    orth_complement,
    radical_of_restriction,
    restrict_form,
)


class DegeneracyTag(enum.Enum):
    NONDEGENERATE = "NONDEGENERATE"
    DEG1_SEMIDEFINITE = "DEG1_SEMIDEFINITE"
    DEG2_SEMIDEFINITE = "DEG2_SEMIDEFINITE"
    DEG1_INDEX1 = "DEG1_INDEX1"
    OTHER = "OTHER"


@dataclass(frozen=True)
class DegeneracyCase:
    """How the metric behaves on the derived algebra."""

    tag: DegeneracyTag
    restriction_signature: SignatureTriple


def classify_degeneracy(m: MetricLieAlgebra) -> DegeneracyCase:
    """Signature of the form on [n, n] and the matching reduction case."""
    sig = m._nprime_form.signature()
    p, q, r = sig
    if r == 0:
        tag = DegeneracyTag.NONDEGENERATE
    elif r == 1 and min(p, q) == 0:
        tag = DegeneracyTag.DEG1_SEMIDEFINITE
    elif r == 2 and min(p, q) == 0:
        tag = DegeneracyTag.DEG2_SEMIDEFINITE
    elif r == 1 and min(p, q) == 1:
        tag = DegeneracyTag.DEG1_INDEX1
    else:
        tag = DegeneracyTag.OTHER
    return DegeneracyCase(tag, sig)


@dataclass(frozen=True)
class WitnessFlags:
    """The four reduction hypotheses, individually testable."""

    inclusion: bool  # (i)  eg <= n' <= m1
    invariance: bool  # (ii) eg and m1 invariant under the isotropy algebra
    orthogonal_central: bool  # (iii) <eg, m1> = 0 and eg central
    dimension: bool  # (iv) dim m1 + dim eg = dim n

    def lines(self) -> list[str]:
        def word(b):
            return "PASS" if b else "FAIL"

        return [
            f"FLAG[i].inclusion: {word(self.inclusion)}",
            f"FLAG[ii].invariance: {word(self.invariance)}",
            f"FLAG[iii].orthogonal_central: {word(self.orthogonal_central)}",
            f"FLAG[iv].dimension: {word(self.dimension)}",
        ]


@dataclass(frozen=True)
class ReductionWitness:
    eg: Subspace
    m1: Subspace
    case: DegeneracyCase
    checks: WitnessFlags
    engel_pair: tuple[Vec, Vec] | None = None  # (e1, e2) when the Engel step ran
    dual_pair: tuple[Vec, Vec] | None = None  # (f1, f2) pairing the null plane

    def lines(self) -> list[str]:
        out = [f"CASE: {self.case.tag.value}"]
        sig = self.case.restriction_signature
        out.append(f"RESTRICTION_SIGNATURE: {sig.p},{sig.q},{sig.r}")
        for i, row in enumerate(self.eg.basis.rows):
            out.append(f"EG[{i}]: {fmt_vec(row)}")
        for i, row in enumerate(self.m1.basis.rows):
            out.append(f"M1[{i}]: {fmt_vec(row)}")
        out.extend(self.checks.lines())
        if self.engel_pair is not None:
            out.append(f"ENGEL_E1: {fmt_vec(self.engel_pair[0])}")
            out.append(f"ENGEL_E2: {fmt_vec(self.engel_pair[1])}")
        if self.dual_pair is not None:
            out.append(f"DUAL_F1: {fmt_vec(self.dual_pair[0])}")
            out.append(f"DUAL_F2: {fmt_vec(self.dual_pair[1])}")
        return out


class ReductionError(PreconditionError):
    def __init__(self, message: str, witness: ReductionWitness | None = None):
        super().__init__(message)
        self.witness = witness


THEOREM_SCOPE_MESSAGE = "Theorem 2 covers signature (n-2,2) only"


def reduction_witness(m: MetricLieAlgebra, h: OperatorSpace | None = None) -> ReductionWitness:
    """Build (eg, m1) for the matching degeneracy case and verify all hypotheses.

    Degeneracy 1 (semidefinite or index 1): eg is the radical line of the
    restricted form and m1 = s = n' + v is its orthogonal hyperplane.
    Degeneracy 2 semidefinite: when the null plane o already commutes with s,
    take (eg, m1) = (o, s); otherwise e2 spans o meet centralizer(s), the
    common kernel of ad(s) on o that Engel's theorem guarantees, e1 is the
    canonical complement of e2 in o, eg = span(e2), m1 = its orthogonal
    complement, and a dual null pair (f1, f2) with <f_i, e_j> = delta_ij and
    <f_i, f_j> = 0 is chosen deterministically.

    A failed hypothesis raises ReductionError carrying the witness; a failure
    of the centrality part means the input is not G-GO.
    """
    case = classify_degeneracy(m)
    if case.tag == DegeneracyTag.NONDEGENERATE:
        raise ReductionError(
            "precondition: form restricted to n' is nondegenerate; nothing to reduce"
        )
    if case.tag == DegeneracyTag.OTHER:
        raise ReductionError(
            f"{THEOREM_SCOPE_MESSAGE}: restriction signature "
            f"{tuple(case.restriction_signature)} is outside the three reduction cases"
        )
    nprime = m.nprime()
    eg, m1 = radical_of_restriction(m, nprime), nprime.plus(m.v_complement())
    engel_pair = dual_pair = None
    if case.tag == DegeneracyTag.DEG2_SEMIDEFINITE and (o_s := bracket_subspaces(m.algebra, eg, m1)).dim:
        eg, m1, engel_pair, dual_pair = _engel_split(m, eg, m1, o_s)
    if h is None:
        h = isotropy_algebra(m)
    flags = _witness_flags(m, h, eg, m1, nprime)
    witness = ReductionWitness(eg, m1, case, flags, engel_pair, dual_pair)
    if not flags.orthogonal_central:
        raise ReductionError(
            "witness check failed: [eg, m1] != 0 (eg is not central); input is not G-GO",
            witness,
        )
    named = {"(i) inclusion": flags.inclusion, "(ii) invariance": flags.invariance, "(iv) dimension": flags.dimension}
    if failed := [name for name, ok in named.items() if not ok]:
        raise ReductionError("witness check failed: " + ", ".join(failed), witness)
    return witness


def _witness_flags(
    m: MetricLieAlgebra,
    h: OperatorSpace,
    eg: Subspace,
    m1: Subspace,
    nprime: Subspace,
) -> WitnessFlags:
    inclusion = eg <= nprime and nprime <= m1
    invariance = is_adh_invariant(m, eg, h) and is_adh_invariant(m, m1, h)
    orthogonal = m1 <= orth_complement(m, eg)
    # The quotient needs [eg, m1] = 0; we verify the stronger statement that
    # eg is central in the whole algebra, which the in-scope forward
    # construction guarantees and which a stray bracket on eg always trips.
    central = bracket_subspaces(m.algebra, eg, Subspace.full(m.dim)).dim == 0
    dimension = eg.dim + m1.dim == m.dim
    return WitnessFlags(inclusion, invariance, orthogonal and central, dimension)


def _engel_split(m: MetricLieAlgebra, o: Subspace, s: Subspace, o_s: Subspace):
    """Split the 2-dim null plane o by e2 spanning o meet centralizer(s); o_s is [o, s], already formed."""
    if not o_s <= o:
        raise ReductionError("input is not G-GO: [s, o] does not stay inside o")
    eg = o.intersect(centralizer(m.algebra, s))
    if eg.dim == 0:
        raise EngelError("no common kernel vector")
    if eg.dim != 1:
        raise AssertionError("internal: s commutes with o after the commuting check")
    e1, e2 = eg.complement_within(o).basis.row(0), eg.basis.row(0)
    return eg, orth_complement(m, eg), (e1, e2), _dual_null_pair(m, e1, e2)


def _dual_null_pair(m: MetricLieAlgebra, e1: Vec, e2: Vec) -> tuple[Vec, Vec]:
    """Vectors with <f_i, e_j> = delta_ij and <f_i, f_j> = 0, pivot-deterministic."""
    pairing = Matrix([m.form.gram @ e1, m.form.gram @ e2], ncols=m.dim)
    u1 = solve_particular(pairing, [1, 0])
    u2 = solve_particular(pairing, [0, 1])
    if u1 is None or u2 is None:
        raise AssertionError("internal: no vectors pairing with the null pair")
    f1 = vec_add(u1, vec_scale(-m.pair(u1, u1) / 2, e1))
    f2 = vec_add(
        vec_add(u2, vec_scale(-m.pair(u2, f1), e1)),
        vec_scale(-m.pair(u2, u2) / 2, e2),
    )
    return f1, f2


@dataclass(frozen=True)
class QuotientResult:
    """The reduced metric Lie algebra plus the data that produced it."""

    m0: MetricLieAlgebra
    projection: Matrix  # m1-basis coordinates -> complement coordinates
    complement_rows: Matrix  # the complement basis, in ambient coordinates
    witness: ReductionWitness


def reduce(m: MetricLieAlgebra, h: OperatorSpace | None = None) -> QuotientResult:
    """Quotient m1/eg with the induced bracket and form.

    The complement of eg inside m1 is the canonical one (rows of m1's reduced
    basis at pivots eg does not use), so repeated runs give identical output.
    The result is re-validated: Jacobi, nilpotency, nondegeneracy, and the
    dimension/signature accounting (dim drops by 2 dim eg, signature by
    (dim eg, dim eg)).
    """
    witness = reduction_witness(m, h)
    eg, m1 = witness.eg, witness.m1
    comp = eg.complement_within(m1)  # flags (i), (iii) and (iv) passed; m0's check refuses a degenerate form
    form = restrict_form(m, comp)

    def comp_coords(rest: dict[int, int], den: int) -> dict[int, Fraction]:  # rest / den's nonzero comp coordinates
        # eg._contains_entries leaves eg.den rest less eg's part, read at eg's pivots: m1 pivots where comp vanishes.
        eg._contains_entries(rest)
        coords = [(t, c) for t, p in enumerate(comp.pivots) if (c := rest.get(p))]
        if not m1._contains_entries(rest):
            raise AssertionError("internal: vector outside m1")
        return dict(_to_fractions(den * eg.den, coords))

    # The brackets of comp's stored rows, comp.den times its basis, in ints: each is L comp.den^2 times the bracket.
    rows, scale = comp.entries, m.algebra._den * comp.den * comp.den
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i, x in enumerate(rows):
        for j in range(i + 1, len(rows)):
            if entry := comp_coords(m.algebra._bracket_sum(x, rows[j]), scale):
                brackets[(i, j)] = entry
    m0 = MetricLieAlgebra.checked(LieAlgebra(comp.dim, brackets), form)

    d, sig, sig0 = eg.dim, m.form.signature(), form.signature()
    if sig0 != (sig.p - d, sig.q - d, 0):
        raise ReductionError(
            f"internal accounting failure: expected signature "
            f"({sig.p - d},{sig.q - d},0), got {tuple(sig0)}",
            witness,
        )
    columns = [comp_coords(dict(row), m1.den) for row in m1.entries]
    projection = Matrix([[c.get(t, _ZERO) for c in columns] for t in range(comp.dim)], ncols=m1.dim)
    return QuotientResult(m0, projection, comp.basis, witness)


class ExtensionDataError(ValueError):
    """Extension data violates one of its defining identities."""


@dataclass(frozen=True)
class ExtensionData:
    """Data for a two-dimensional extension of a metric Lie algebra.

    derivation D must be a nilpotent derivation of the base bracket; phi is
    the new-central-component of the bracket with the extending vector f;
    omega is the new-central-component of the base bracket; mu = <f, f>.
    The data is valid exactly when the extension's bracket satisfies Jacobi,
    and :meth:`validate` checks it as that one identity.
    """

    derivation: Matrix
    phi: Vec
    omega: Matrix
    mu: Fraction = Fraction(0)

    def validate(self, m0: MetricLieAlgebra) -> LieAlgebra:
        """The extension's bracket on (f, x_1..x_k, e), refused unless it satisfies Jacobi.

        One jacobi_defect names the failing identity: at (f, x_i, x_j) the
        base part is the derivation identity of D and the e part the
        compatibility of phi with omega; at (x_i, x_j, x_l) the e part is the
        cyclic omega identity.  Any other defect is the base's own.
        """
        k = m0.dim
        d, phi, omega = self.derivation, self.phi, self.omega
        if d.nrows != k or d.ncols != k or omega.nrows != k or omega.ncols != k or len(phi) != k:
            raise ExtensionDataError("extension data sizes do not match the base algebra")
        if (omega.transpose() + omega) != Matrix.zeros(k, k):
            raise ExtensionDataError("omega is not antisymmetric")
        if not d.is_nilpotent():
            raise ExtensionDataError("derivation is not nilpotent")
        e, base, table = k + 1, m0.algebra.table, {}  # written from the nonzero entries of D, phi, omega and base
        for a, (column, row) in enumerate(zip(zip(*d.rows), omega.rows)):
            table[(0, 1 + a)] = {1 + b: x for b, x in enumerate((*column, phi[a])) if x}  # phi[a] lands at 1 + k = e
            for b in range(a + 1, k):
                if row[b] or (a, b) in base:  # omega[a, b] lands at 1 + k = e
                    table[(1 + a, 1 + b)] = {1 + t: c for t, c in (*base.get((a, b), {}).items(), (k, row[b])) if c}
        algebra = LieAlgebra(k + 2, table, validate=False)
        defects = jacobi_defect(algebra)
        on_f = [((j - 1, l - 1), vec) for (i, j, l), vec in defects if i == 0]
        for (i, j), vec in on_f:
            if any(vec[1:e]):
                raise ExtensionDataError(f"derivation identity fails on pair ({i},{j})")
        if on_f:  # no base part is left and nothing brackets into f: the defect is its e part
            (i, j), _ = on_f[0]
            raise ExtensionDataError(f"compatibility of phi with omega fails on pair ({i},{j})")
        for (i, j, l), vec in defects:
            if vec[e]:
                raise ExtensionDataError(f"cyclic omega identity fails on triple ({i - 1},{j - 1},{l - 1})")
        if defects:
            raise ExtensionDataError(f"extension is not a Lie algebra: {JacobiError(defects)}")
        return algebra


def extend2(m0: MetricLieAlgebra, data: ExtensionData) -> MetricLieAlgebra:
    """Two-dimensional extension: new basis is (f, base..., e).

    Brackets: [f, x] = Dx + phi(x) e, [x, y] = [x, y]_0 + omega(x, y) e,
    [f, e] = [base, e] = 0.  Form: <e, f> = 1, <f, f> = mu, <e, e> = 0, both
    new vectors orthogonal to the base, base form unchanged.  The bracket is
    the one data.validate checked; nilpotency and nondegeneracy are checked
    here.
    """
    algebra = data.validate(m0)
    k = m0.dim
    gram = (
        [[data.mu] + [0] * k + [1]]
        + [[0, *row, 0] for row in m0.form.gram.rows]
        + [[1] + [0] * (k + 1)]
    )
    try:
        return MetricLieAlgebra.checked(algebra, SymForm(Matrix(gram)))
    except PreconditionError as exc:
        raise ExtensionDataError(f"extension failed validation: {exc}") from exc
