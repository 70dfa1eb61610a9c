from __future__ import annotations

import os
import random
from fractions import Fraction

import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st

from gonil.catalog import build_example
from gonil.isotropy import isotropy_algebra
from gonil.lie import LieAlgebra, jacobi_defect
from gonil.linalg import Matrix, solve_particular
from gonil.metric import MetricLieAlgebra, SymForm


# HYPOTHESIS_PROFILE=ci reports a failing example as found, unshrunk: a broken
# elimination core can make shrinking run for many minutes before any failure
# is printed.  Examples, seeds and per-test settings are the same in every profile.
settings.register_profile("ci", phases=[phase for phase in Phase if phase is not Phase.shrink])
if "HYPOTHESIS_PROFILE" in os.environ:
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])


ENTRY = st.one_of(st.just(0), st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)))


@st.composite
def sparse_rows(draw, nrows, ncols):
    """Random rationals, about half zero, with some whole rows and columns zeroed."""
    rows = [[draw(ENTRY) for _ in range(ncols)] for _ in range(nrows)]
    zero_rows = draw(st.sets(st.integers(0, max(nrows - 1, 0)), max_size=nrows))
    zero_cols = draw(st.sets(st.integers(0, max(ncols - 1, 0)), max_size=ncols))
    return [[0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)] for i, row in enumerate(rows)]


def combination(n: int, ops, coeffs) -> Matrix:
    """sum_j coeffs[j] ops[j], one coefficient per n-by-n operator; the zero matrix for none."""
    return sum((op.scale(c) for c, op in zip(coeffs, ops, strict=True)), Matrix.zeros(n, n))


def random_nilpotent_table(rng: random.Random, n: int) -> dict:
    """A random bracket table on dimension n that satisfies Jacobi, redrawn until it does.

    [e_i, e_j] with i < j only reaches e_k with k > j, so the algebra is
    nilpotent, nothing brackets into e_0 and e_(n-1) is central.
    """
    values = [1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 2)]
    while True:
        table = {}
        for i in range(n):
            for j in range(i + 1, n):
                targets = {k: rng.choice(values) for k in range(j + 1, n) if rng.random() < 0.5}
                if targets and rng.random() < 0.5:
                    table[(i, j)] = targets
        if not jacobi_defect(LieAlgebra(n, table, validate=False)):
            return table


def sheared_gram(rng: random.Random, diagonal) -> Matrix:
    """U^T diag(diagonal) U for a random unipotent lower-triangular U: the diagonal's signature, off-diagonal entries."""
    n = len(diagonal)
    u = Matrix([[1 if i == j else (rng.choice([0, 0, 1, -1, Fraction(1, 2)]) if j < i else 0) for j in range(n)] for i in range(n)])
    return u.transpose() @ Matrix([[diagonal[i] if i == j else 0 for j in range(n)] for i in range(n)]) @ u


def heisenberg(k, negative=()):
    """H_{2k+1}: [x_i, y_i] = z, with the diagonal form that is -1 on the listed basis indices and 1 elsewhere.

    With the identity form the isotropy algebra is u(k), of dim k^2.
    """
    n = 2 * k + 1
    alg = LieAlgebra(n, {(i, k + i): {2 * k: 1} for i in range(k)})
    gram = [[(-1 if i in negative else 1) if i == j else 0 for j in range(n)] for i in range(n)]
    return MetricLieAlgebra.checked(alg, SymForm(Matrix(gram)))


@pytest.fixture(scope="session")
def paper():
    return build_example("paper_2_3")


@pytest.fixture(scope="session")
def paper_iso(paper):
    return isotropy_algebra(paper.algebra)


@pytest.fixture(scope="session")
def de5():
    return build_example("de5").algebra


@pytest.fixture(scope="session")
def de7():
    return build_example("de7_lorentz").algebra


@pytest.fixture(scope="session")
def heis3():
    return build_example("heis3").algebra


@pytest.fixture(scope="session")
def filiform4():
    return build_example("filiform4").algebra


@pytest.fixture(scope="session")
def abelian4():
    return build_example("abelian_n").algebra


def necessary_condition_counterexample() -> MetricLieAlgebra:
    """4-dim algebra [f,e1]=e2, [f,e2]=e3 with <e2,e3> = 1: violates <[T,X],X> = 0."""
    alg = LieAlgebra(4, {(0, 1): {2: 1}, (0, 2): {3: 1}})
    g = [[Fraction(0)] * 4 for _ in range(4)]
    g[0][0] = g[1][1] = Fraction(1)
    g[2][3] = g[3][2] = Fraction(1)
    return MetricLieAlgebra.checked(alg, SymForm(Matrix(g)))


def engel_witness_algebra() -> MetricLieAlgebra:
    """6-dim, signature (4,2): degeneracy-2 restriction whose null plane does
    not commute with its orthogonal, so the reduction needs the common-kernel
    (Engel) step.  Basis (a, b, z1, z2, p, q): [a,b] = z1, [a,z1] = z2;
    z1, z2 null and paired with p, q."""
    brackets = {(0, 1): {2: 1}, (0, 2): {3: 1}}
    g = [[Fraction(0)] * 6 for _ in range(6)]
    g[0][0] = g[1][1] = Fraction(1)
    g[2][4] = g[4][2] = Fraction(1)
    g[3][5] = g[5][3] = Fraction(1)
    return MetricLieAlgebra.checked(LieAlgebra(6, brackets), SymForm(Matrix(g)))


def sheared(m: MetricLieAlgebra, shift: int = 1) -> MetricLieAlgebra:
    """m in the basis f_i = e_i + e_{i+shift}, where <[f_a, f_b], f_a> need not vanish."""
    n = m.dim
    return in_basis(m, Matrix([[1 if k in (i, i + shift) else 0 for i in range(n)] for k in range(n)]))


def dense_twin(m: MetricLieAlgebra, seed: int) -> MetricLieAlgebra:
    """m in the basis of the columns of P = L U, L unit lower and U unit upper triangular with off-diagonal
    entries drawn from {-1, 0, 1} by random.Random(seed): the same algebra, with dense brackets and form."""
    rng, n = random.Random(seed), m.dim
    lower = Matrix([[1 if i == j else rng.choice((-1, 0, 1)) if j < i else 0 for j in range(n)] for i in range(n)])
    upper = Matrix([[1 if i == j else rng.choice((-1, 0, 1)) if j > i else 0 for j in range(n)] for i in range(n)])
    return in_basis(m, lower @ upper)


def in_basis(m: MetricLieAlgebra, p: Matrix) -> MetricLieAlgebra:
    """m in the basis of the columns of the invertible matrix p: brackets by solving, Gram matrix P^T G P."""
    n = m.dim
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            coords = solve_particular(p, m.algebra.bracket(p.column(i), p.column(j)))
            if any(coords):
                table[(i, j)] = {k: c for k, c in enumerate(coords) if c}
    return MetricLieAlgebra.checked(LieAlgebra(n, table), SymForm(p.transpose() @ m.form.gram @ p))


def rescaled(m: MetricLieAlgebra, scales) -> MetricLieAlgebra:
    """m in the basis f_i = scales[i] e_i: brackets, form and isotropy basis gain denominators."""
    n = m.dim
    table = {
        (i, j): {k: c * scales[i] * scales[j] / scales[k] for k, c in targets.items()}
        for (i, j), targets in m.algebra.table.items()
    }
    g = m.form.gram
    gram = Matrix([[g[i, j] * scales[i] * scales[j] for j in range(n)] for i in range(n)])
    return MetricLieAlgebra.checked(LieAlgebra(n, table), SymForm(gram))
