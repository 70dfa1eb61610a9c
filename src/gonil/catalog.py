"""Built-in named examples with exact data and a full verification pipeline.

The centerpiece is ``paper_2_3``: a 12-dimensional, 4-step nilpotent metric
Lie algebra of signature (8,4) whose derived algebra is Lorentz, together
with the explicit family of skew derivations (linear in the tangent vector)
that witnesses its geodesic-orbit property.  The remaining entries are small
reference algebras and forward-built degenerate examples for reduction tests.
``_BUILDERS`` names each entry's builder once, in catalog order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Mapping, Sequence

from gonil.double_ext import DegeneracyTag, ExtensionData, classify_degeneracy, extend2
from gonil.go_engine import _polarized_defects, linear_go_certificate
from gonil.isotropy import _int_operators, _isotropy_defects, isotropy_algebra
from gonil.lie import (
    LieAlgebra,
    abelian,
    bracket_subspaces,
    center,
    is_ideal,
    jacobi_defect,
    lower_central_series,
    nilpotency_step,
)
from gonil.linalg import Matrix, Subspace, basis_vec, to_vec
from gonil.metric import MetricLieAlgebra, SymForm


class CatalogError(ValueError):
    pass


@dataclass(frozen=True)
class Expected:
    """An invariant value pinned at build time; re-verified on load."""

    value: object
    source: str  # "stated" for values the construction documents, "derived" for hand expansions


@dataclass(frozen=True)
class NamedExample:
    name: str
    algebra: MetricLieAlgebra
    expected: Mapping[str, Expected] = field(default_factory=dict)
    witness_operators: tuple[Matrix, ...] | None = None
    basis_names: tuple[str, ...] | None = None  # written into the example's file

    @cached_property
    def _cleared_witnesses(self) -> tuple[int, tuple]:  # once per example, as ``isotropy._int_operators`` clears
        return _int_operators(self.algebra.dim, self.witness_operators or ())


# Basis layout of paper_2_3: f1..f8 then e1..e4.
_F1, _F2, _F3, _F4, _F5, _F6, _F7, _F8 = range(8)
_E1, _E2, _E3, _E4 = 8, 9, 10, 11

PAPER_BASIS_NAMES = ("f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "e1", "e2", "e3", "e4")


def _paper_algebra() -> MetricLieAlgebra:
    # Forgetting the inner product, the algebra splits as the direct sum of
    # the 6-dimensional ideal span(f1, f2, e1..e4) - the algebra L_{6,21}(1)
    # of the standard nilpotent classification lists (documentation note
    # only; no isomorphism checking here) - and a 6-dimensional abelian
    # ideal.
    brackets = {
        (_F1, _E1): {_E2: 1},
        (_F2, _E1): {_E3: 1},
        (_F1, _E2): {_E4: -1},
        (_F2, _E3): {_E4: -1},
        (_F1, _F2): {_E1: 1},
        (_F1, _F6): {_E2: 1},
        (_F2, _F6): {_E3: 1},
        (_F1, _F4): {_E4: 1},
        (_F2, _F5): {_E4: 1},
    }
    g = [[Fraction(0)] * 12 for _ in range(12)]
    for a, b in ((_F1, _F7), (_F2, _F8), (_F3, _F6), (_E1, _E4)):
        g[a][b] = g[b][a] = Fraction(1)
    for a in (_F4, _F5, _E2, _E3):
        g[a][a] = Fraction(1)
    return MetricLieAlgebra.checked(LieAlgebra(12, brackets), SymForm(Matrix(g)))


def paper_isotropy_operator(t: Sequence) -> Matrix:
    """The example's skew derivation, linear in the tangent vector.

    Block diagonal: an 8x8 block on the f-part and a 4x4 block on the e-part,
    with entries linear in the coordinates (y_1..y_8, x_1..x_4) of t.
    """
    t = to_vec(t)
    if len(t) != 12:
        raise CatalogError("tangent vector must have length 12")
    y = (Fraction(0),) + t[:8]  # y[1]..y[8]
    x = (Fraction(0),) + t[8:]  # x[1]..x[4]
    full = [[Fraction(0)] * 12 for _ in range(12)]
    full[2][0] = x[2] + y[4]
    full[2][1] = x[3] + y[5]
    full[2][3] = -y[1]
    full[2][4] = -y[2]
    full[3][0] = x[1] - y[6]
    full[3][5] = y[1]
    full[4][1] = x[1] - y[6]
    full[4][5] = y[2]
    full[5][0] = y[2]
    full[5][1] = -y[1]
    full[6][1] = y[3] - x[4]
    full[6][2] = -y[2]
    full[6][3] = y[6] - x[1]
    full[6][5] = -x[2] - y[4]
    full[7][0] = x[4] - y[3]
    full[7][2] = y[1]
    full[7][4] = y[6] - x[1]
    full[7][5] = -x[3] - y[5]
    full[9][8] = -y[1]
    full[10][8] = -y[2]
    full[11][9] = y[1]
    full[11][10] = y[2]
    return Matrix(full)


def euclidean_abelian(n: int) -> MetricLieAlgebra:
    return MetricLieAlgebra.checked(abelian(n), SymForm(Matrix.identity(n)))


def de5_data() -> tuple[MetricLieAlgebra, ExtensionData]:
    """Euclidean R^3 base with D(e1) = e2 and omega(e1, e2) = 1."""
    base = euclidean_abelian(3)
    d = Matrix([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    omega = Matrix([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    return base, ExtensionData(d, to_vec([0, 0, 0]), omega)


def de7_lorentz_data() -> tuple[MetricLieAlgebra, ExtensionData]:
    """Lorentz R^5 base (form diag(1,1,1,1,-1)) with the same coupling."""
    gram = Matrix([[1 if i == j else 0 for j in range(5)] for i in range(4)] + [[0, 0, 0, 0, -1]])
    base = MetricLieAlgebra.checked(abelian(5), SymForm(gram))
    d = Matrix([[0] * 5, [1, 0, 0, 0, 0], *[[0] * 5] * 3])
    omega = Matrix([[0, 1, 0, 0, 0], [-1, 0, 0, 0, 0], *[[0] * 5] * 3])
    return base, ExtensionData(d, to_vec([0] * 5), omega)


# The values the paper states for paper_2_3, which _build_paper pins and verify_paper_example checks:
# invariant key -> (verify-paper record, its detail label, value).
_PAPER_STATED = {
    "dim": ("dim", "dim", 12),
    "nprime_dim": ("nprime_dim", "dim n'", 4),
    "signature": ("signature_ambient", "signature", (8, 4, 0)),
    "nprime_signature": ("signature_nprime", "signature", (3, 1, 0)),
    "v_signature": ("signature_v", "signature", (5, 3, 0)),
    "step": ("step", "step", 4),
}


def _build_paper():
    m = _paper_algebra()
    expected = {key: Expected(value, "stated") for key, (_, _, value) in _PAPER_STATED.items()} | {
        "lcs_dims": Expected((12, 4, 3, 1, 0), "derived"),
        "center_dim": Expected(7, "derived"),
        "degeneracy": Expected(DegeneracyTag.NONDEGENERATE.value, "stated"),
    }
    witnesses = tuple(paper_isotropy_operator(basis_vec(12, b)) for b in range(12))
    return m, expected, witnesses, PAPER_BASIS_NAMES


def _build_abelian():
    m = euclidean_abelian(4)
    expected = {
        "dim": Expected(4, "stated"),
        "step": Expected(1, "stated"),
        "lcs_dims": Expected((4, 0), "stated"),
        "signature": Expected((4, 0, 0), "stated"),
        "center_dim": Expected(4, "stated"),
        "degeneracy": Expected(DegeneracyTag.NONDEGENERATE.value, "stated"),
    }
    return m, expected, None, None


def _build_heis3():
    alg = LieAlgebra(3, {(0, 1): {2: 1}})
    m = MetricLieAlgebra.checked(alg, SymForm(Matrix.identity(3)))
    expected = {
        "dim": Expected(3, "stated"),
        "step": Expected(2, "stated"),
        "lcs_dims": Expected((3, 1, 0), "stated"),
        "signature": Expected((3, 0, 0), "stated"),
        "center_dim": Expected(1, "derived"),
        "degeneracy": Expected(DegeneracyTag.NONDEGENERATE.value, "stated"),
    }
    return m, expected, None, None


def _build_filiform4():
    alg = LieAlgebra(4, {(0, 1): {2: 1}, (0, 2): {3: 1}})
    m = MetricLieAlgebra.checked(alg, SymForm(Matrix.identity(4)))
    expected = {
        "dim": Expected(4, "stated"),
        "step": Expected(3, "derived"),
        "lcs_dims": Expected((4, 2, 1, 0), "derived"),
        "signature": Expected((4, 0, 0), "stated"),
        "center_dim": Expected(1, "derived"),
        "degeneracy": Expected(DegeneracyTag.NONDEGENERATE.value, "stated"),
    }
    return m, expected, None, None


def _build_de5():
    base, data = de5_data()
    m = extend2(base, data)
    expected = {
        "dim": Expected(5, "stated"),
        "step": Expected(3, "derived"),
        "lcs_dims": Expected((5, 2, 1, 0), "derived"),
        "signature": Expected((4, 1, 0), "derived"),
        "nprime_signature": Expected((1, 0, 1), "derived"),
        "center_dim": Expected(2, "derived"),
        "degeneracy": Expected(DegeneracyTag.DEG1_SEMIDEFINITE.value, "derived"),
    }
    return m, expected, None, None


def _build_de7():
    base, data = de7_lorentz_data()
    m = extend2(base, data)
    expected = {
        "dim": Expected(7, "stated"),
        "step": Expected(3, "derived"),
        "lcs_dims": Expected((7, 2, 1, 0), "derived"),
        "signature": Expected((5, 2, 0), "derived"),
        "nprime_signature": Expected((1, 0, 1), "derived"),
        "center_dim": Expected(4, "derived"),
        "degeneracy": Expected(DegeneracyTag.DEG1_SEMIDEFINITE.value, "derived"),
    }
    return m, expected, None, None


_BUILDERS = {
    "paper_2_3": _build_paper,
    "abelian_n": _build_abelian,
    "heis3": _build_heis3,
    "filiform4": _build_filiform4,
    "de5": _build_de5,
    "de7_lorentz": _build_de7,
}
EXAMPLE_NAMES = tuple(_BUILDERS)

# Every invariant a catalog entry can pin: key -> (report label, function),
# in the order the ``invariants`` command prints them.
INVARIANTS: dict[str, tuple[str, Callable[[MetricLieAlgebra], object]]] = {
    "dim": ("DIM", lambda m: m.dim),
    "lcs_dims": ("LCS_DIMS", lambda m: tuple(s.dim for s in lower_central_series(m.algebra))),
    "step": ("STEP", lambda m: nilpotency_step(m.algebra)),
    "center_dim": ("CENTER_DIM", lambda m: center(m.algebra).dim),
    "nprime_dim": ("NPRIME_DIM", lambda m: m.nprime().dim),
    "signature": ("SIGNATURE", lambda m: tuple(m.form.signature())),
    "nprime_signature": ("SIGNATURE_NPRIME", lambda m: tuple(m._nprime_form.signature())),
    "v_signature": ("SIGNATURE_V", lambda m: tuple(m._v_form.signature())),
    "degeneracy": ("DEGENERACY_CASE", lambda m: classify_degeneracy(m).tag.value),
}


def build_example(name: str) -> NamedExample:
    """Construct a named example and re-verify every pinned invariant."""
    if name not in _BUILDERS:
        raise CatalogError(f"unknown example {name!r}; known: {', '.join(EXAMPLE_NAMES)}")
    m, expected, witnesses, names = _BUILDERS[name]()
    example = NamedExample(name, m, expected, witnesses, names)
    for key, exp in expected.items():
        if key not in INVARIANTS:
            raise CatalogError(f"unknown invariant {key!r}")
        actual = INVARIANTS[key][1](m)
        if actual != exp.value:
            raise CatalogError(
                f"example {name}: pinned {key}={exp.value!r} but computed {actual!r}"
            )
    return example


@dataclass(frozen=True)
class CheckRecord:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    records: tuple[CheckRecord, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def lines(self) -> list[str]:
        out = []
        for r in self.records:
            status = "PASS" if r.passed else "FAIL"
            suffix = f" ({r.detail})" if r.detail and not r.passed else ""
            out.append(f"CHECK[{r.name}]: {status}{suffix}")
        done = sum(1 for r in self.records if r.passed)
        out.append(f"SUMMARY: {'PASS' if self.passed else 'FAIL'} ({done}/{len(self.records)})")
        return out


def verify_paper_example(example: NamedExample | None = None) -> VerificationReport:
    """Run the whole pipeline over the 12-dimensional example.

    Checks, in order: the Jacobi identity; the dimensions of the algebra and
    its derived algebra; the three signatures; the nilpotency step; that the
    derived algebra is abelian; that each per-basis witness operator is skew,
    a derivation, and inside the computed isotropy algebra; the polarized
    orbit identity on all symmetric basis pairs against every basis
    direction; the two printed ideals (ideal, trivially intersecting,
    commuting, the second abelian); and feasibility of the linear
    certificate.
    """
    if example is None:
        example = build_example("paper_2_3")
    m = example.algebra
    alg = m.algebra
    n = m.dim
    records: list[CheckRecord] = []

    def record(name, passed, detail=""):
        records.append(CheckRecord(name, bool(passed), detail))

    defects = jacobi_defect(alg)
    record("jacobi", not defects, f"{len(defects)} violating triples")
    for key, (name, label, value) in _PAPER_STATED.items():
        try:
            actual = INVARIANTS[key][1](m)
        except ValueError:  # a step, when the lower central series stalls
            actual = None
        record(name, actual == value, f"{label}={actual}")
    nprime = m.nprime()
    record(
        "nprime_abelian",
        bracket_subspaces(alg, nprime, nprime).dim == 0,
        "derived algebra bracket is nonzero",
    )

    witnesses = example.witness_operators or ()
    record("witness_count", len(witnesses) == n, f"{len(witnesses)} stored operators")
    iso = isotropy_algebra(m)
    den, ops = example._cleared_witnesses  # cleared once per example, for the isotropy and polarized checks
    skew, derivation = _isotropy_defects(m, ops)
    bad_skew = [b for b, defect in enumerate(skew) if defect is not None]
    record("witness_skew", not bad_skew, f"skewness fails at basis {bad_skew}")
    bad_der = [b for b, defect in enumerate(derivation) if defect is not None]
    record("witness_derivation", not bad_der, f"derivation fails at basis {bad_der}")
    bad_member = [b for b, entries in enumerate(ops) if not iso.span._contains_entries(dict(entries))]
    record("witness_in_isotropy", not bad_member, f"membership fails at basis {bad_member}")

    bad_polar = _polarized_defects(m, den, ops) if len(witnesses) == n else [("missing witnesses",)]
    record(
        "go_polarized",
        not bad_polar,
        f"{len(bad_polar)} nonzero polarized values, first at {bad_polar[:1]}",
    )

    ideal_1 = Subspace.span(n, [basis_vec(n, i) for i in (_F1, _F2, _E1, _E2, _E3, _E4)])
    abelian_rows = [
        basis_vec(n, _F3),
        tuple(a + b for a, b in zip(basis_vec(n, _F4), basis_vec(n, _E2))),
        tuple(a + b for a, b in zip(basis_vec(n, _F5), basis_vec(n, _E3))),
        tuple(a - b for a, b in zip(basis_vec(n, _F6), basis_vec(n, _E1))),
        basis_vec(n, _F7),
        basis_vec(n, _F8),
    ]
    ideal_2 = Subspace.span(n, abelian_rows)
    record("ideal_1", is_ideal(alg, ideal_1), "span(f1,f2,e1..e4) is not an ideal")
    record("ideal_2", is_ideal(alg, ideal_2), "the 6-dim abelian span is not an ideal")
    record("ideals_intersect_trivially", ideal_1.intersect(ideal_2).dim == 0)
    record("ideals_commute", bracket_subspaces(alg, ideal_1, ideal_2).dim == 0)
    record("ideal_2_abelian", bracket_subspaces(alg, ideal_2, ideal_2).dim == 0)

    linear = linear_go_certificate(m, iso)
    record("linear_go_feasible", linear is not None)
    return VerificationReport(tuple(records))
