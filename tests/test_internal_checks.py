"""The internal identity checks fire on corrupted results, also under ``python -O``."""

import ast
import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from gonil import go_engine, isotropy, linalg
from gonil.catalog import build_example
from gonil.cli import main
from gonil.go_engine import first_null_vector, go_certificate_at, linear_go_certificate, polarized_defects
from gonil.isotropy import OperatorSpace, isotropy_algebra
from gonil.linalg import Matrix, Subspace, _row_space
from oracles import commutator_closed_by_dense_products, polarized_defects_by_pairing, random_rational_matrix

SRC = Path(go_engine.__file__).parent


def test_src_has_no_assert_statements():
    # python -O strips assert statements; internal checks raise explicitly instead.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_per_sample_check_rejects_k_plus_one(de7):
    h = isotropy_algebra(de7)
    system = go_engine._CertificateSystem.build(de7, h)
    rng = random.Random(3)
    t = tuple(Fraction(rng.randint(-5, 5)) for _ in range(de7.dim))
    for vec in (t, first_null_vector(de7)):
        cert = go_certificate_at(de7, h, vec)
        assert cert is not None
        go_engine._verify_certificate(system, cert, *go_engine._integer_vector(cert.T))
        with pytest.raises(AssertionError, match="defining identity"):
            go_engine._verify_certificate(system, replace(cert, k=cert.k + 1), *go_engine._integer_vector(cert.T))


def test_per_sample_check_rejects_each_changed_a_coefficient(de7):
    h = isotropy_algebra(de7)
    system = go_engine._CertificateSystem.build(de7, h)
    rng = random.Random(5)
    for _ in range(3):
        t = tuple(Fraction(rng.randint(-5, 5)) for _ in range(de7.dim))
        # A changed by D_j is still a witness exactly when D_j T = 0; these T avoid that.
        assert all(any(op @ t) for op in h.basis)
        cert = go_certificate_at(de7, h, t)
        assert cert is not None
        cleared = go_engine._integer_vector(cert.T)
        for j in range(h.dim):
            coeffs = list(cert.A_coeffs)
            coeffs[j] += 1
            with pytest.raises(AssertionError, match="defining identity"):
                go_engine._verify_certificate(system, replace(cert, A_coeffs=tuple(coeffs)), *cleared)


def test_linear_certificate_check_rejects_each_changed_coefficient(de5, monkeypatch):
    h = isotropy_algebra(de5)
    assert h.dim > 0 and linear_go_certificate(de5, h) is not None
    solve = go_engine._solve_rows
    for idx in range(h.dim * de5.dim):

        def changed(rows, ncols, idx=idx):
            x = list(solve(rows, ncols))
            x[idx] += 1
            return tuple(x)

        monkeypatch.setattr(go_engine, "_solve_rows", changed)
        with pytest.raises(AssertionError, match="polarized identity"):
            linear_go_certificate(de5, h)


_UNDER_O = """
import random
from dataclasses import replace
from fractions import Fraction

from gonil import go_engine
from gonil.catalog import build_example
from gonil.isotropy import isotropy_algebra

assert False, "assert statements must be stripped under -O"

m = build_example("de7_lorentz").algebra
h = isotropy_algebra(m)
system = go_engine._CertificateSystem.build(m, h)
rng = random.Random(3)
cert = go_engine.go_certificate_at(m, h, [Fraction(rng.randint(-5, 5)) for _ in range(m.dim)])
try:
    go_engine._verify_certificate(system, replace(cert, k=cert.k + 1), *go_engine._integer_vector(cert.T))
except AssertionError as exc:
    print("k+1:", exc)

m = build_example("de5").algebra
h = isotropy_algebra(m)
solve = go_engine._solve_rows
go_engine._solve_rows = lambda rows, ncols: (lambda x: (x[0] + 1,) + x[1:])(solve(rows, ncols))
try:
    go_engine.linear_go_certificate(m, h)
except AssertionError as exc:
    print("linear:", exc)
"""


def test_internal_checks_fire_under_python_O():
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _UNDER_O], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "k+1: internal: certificate fails its defining identity",
        "linear: internal: linear certificate fails polarized identity",
    ]


_UNDER_O_RESCALED = """
from dataclasses import replace
from fractions import Fraction

from conftest import rescaled
from gonil import go_engine
from gonil.catalog import build_example
from gonil.isotropy import isotropy_algebra

assert False, "assert statements must be stripped under -O"

m = rescaled(build_example("de5").algebra, [Fraction(1, 2), Fraction(2, 3), Fraction(3), Fraction(-5, 4), Fraction(1)])
h = isotropy_algebra(m)
print("denominators:", m.algebra._den, m.form._den, h.span.den)
print("linear:", go_engine.linear_go_certificate(m, h) is not None)
system = go_engine._CertificateSystem.build(m, h)
cert = go_engine.go_certificate_at(m, h, [Fraction(x, 3) for x in (2, -1, 4, 5, -3)], _system=system)
try:
    go_engine._verify_certificate(system, replace(cert, k=cert.k + 1), *go_engine._integer_vector(cert.T))
except AssertionError as exc:
    print("k+1:", exc)
solve = go_engine._solve_rows
go_engine._solve_rows = lambda rows, ncols: (lambda x: (x[0] + 1,) + x[1:])(solve(rows, ncols))
try:
    go_engine.linear_go_certificate(m, h)
except AssertionError as exc:
    print("linear:", exc)
"""


def test_internal_checks_fire_under_python_O_on_a_rescaled_algebra():
    # de5 with rational basis scales: the bracket table, the Gram matrix and
    # the isotropy basis all carry denominators that the integer checks clear.
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(SRC.parent), str(tests), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _UNDER_O_RESCALED], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert all(int(x) > 1 for x in lines[0].removeprefix("denominators: ").split()), lines[0]
    assert lines[1:] == [
        "linear: True",
        "k+1: internal: certificate fails its defining identity",
        "linear: internal: linear certificate fails polarized identity",
    ]


def test_polarized_defects_match_pairing_oracle_on_perturbed_witnesses(paper):
    m = paper.algebra
    rng = random.Random(7)
    ops = list(paper.witness_operators)
    for a in (0, 5, 11):
        ops[a] = ops[a] + random_rational_matrix(rng, m.dim, m.dim, bound=2)
    ops[8] = ops[8] + Matrix([[1 if (i, j) == (3, 9) else 0 for j in range(m.dim)] for i in range(m.dim)])
    defects = polarized_defects(m, ops)
    assert defects
    assert defects == polarized_defects_by_pairing(m, ops)


# Every command that builds the isotropy algebra h; each exits 0 on de7_lorentz.
BUILDS_H = [
    ["isotropy", "catalog:de7_lorentz"],
    ["go", "catalog:de7_lorentz", "--samples", "5", "--seed", "1"],
    ["go-at", "catalog:de7_lorentz", "--vector", "1,2,3,4,5,6,7"],
    ["linear-go", "catalog:de7_lorentz"],
    ["reduce", "catalog:de7_lorentz"],
]
UNSOUND = "internal: an isotropy basis operator fails a defining row"
INCOMPLETE = "internal: the isotropy rows' rank mod p is below n^2 - dim h"


def _drops_a_pivot_row(forward):
    """``_forward``, except that the isotropy kernel's elimination, the one call asking where its pivots came
    from, loses one pivot row: the kernel comes out too big."""

    def mutant(rows, origins=None):
        table = forward(rows, origins)
        if origins is not None:
            del table[min(table)]
        return table

    return mutant


def _changes_the_kernel(change):
    """A ``_kernel_of_rows`` mutant: the isotropy kernel's basis rows, as (column, int) pairs, go through
    change(rows, n) and come back as the canonical span of the result."""

    def make(kernel):
        def mutant(rows, ncols, origins=None):
            den, basis = kernel(rows, ncols, origins)
            return (den, basis) if origins is None else _row_space(change(basis, math.isqrt(ncols)), ncols)

        return mutant

    return make


def _plus_identity(basis, n):
    # The identity is a derivation of no nonzero algebra and skew for no nonzero form.
    return [*basis, [(i * n + i, 1) for i in range(n)]]


def _forces_a_column_of_h(presolve):
    """``_presolve``, except that the isotropy kernel's also forces a column where a basis operator of
    de7_lorentz's true h is nonzero, deleting it from the rows it keeps: the kernel comes out too small."""
    m = build_example("de7_lorentz").algebra
    column = m.dim**2 - 1 - isotropy_algebra(m).span.pivots[0]  # the kernel reads its columns reversed

    def mutant(values, columns, origins=None):
        forced, places, values, columns = presolve(values, columns, origins)
        if origins is None:
            return forced, places, values, columns
        rows = [[(j, a) for j, a in zip(cols, vals) if j != column] for cols, vals in zip(columns, values)]
        return [*forced, column], places, [[a for _, a in row] for row in rows], [[j for j, _ in row] for row in rows]

    return mutant


def _drops_a_kept_row(presolve):
    """``_presolve``, except that the isotropy kernel's loses its last row left with two or more entries
    (de7_lorentz's first two are equal, so losing one of those changes nothing): the kernel comes out too big."""

    def mutant(values, columns, origins=None):
        forced, places, values, columns = presolve(values, columns, origins)
        kept = slice(None) if origins is None else slice(-1)
        return forced, places[kept], values[kept], columns[kept]

    return mutant


MUTANTS = {
    "drops a pivot row": ("_forward", _drops_a_pivot_row, UNSOUND),
    "gains a non-solution": ("_kernel_of_rows", _changes_the_kernel(_plus_identity), UNSOUND),
    "loses a basis vector": ("_kernel_of_rows", _changes_the_kernel(lambda basis, n: basis[1:]), INCOMPLETE),
    "presolve forces a column of h": ("_presolve", _forces_a_column_of_h, INCOMPLETE),
    "presolve drops a kept row": ("_presolve", _drops_a_kept_row, UNSOUND),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_a_faulty_isotropy_kernel_exits_three_through_every_command(name, monkeypatch, capsys):
    target, make, message = MUTANTS[name]
    for argv in BUILDS_H:
        assert main(argv) == 0, argv
    capsys.readouterr()
    monkeypatch.setattr(linalg, target, make(getattr(linalg, target)))
    for argv in BUILDS_H:
        assert main(argv) == 3, argv
        assert capsys.readouterr() == (f"ERROR: {message}\n", ""), argv


def test_only_completeness_catches_a_closed_kernel_that_lost_a_vector(monkeypatch):
    # Without its first basis operator de7_lorentz's h is still a subalgebra, so a commutator closure
    # check passes it; every operator left still solves every row, so only the rank check fires.
    m = build_example("de7_lorentz").algebra
    h = isotropy_algebra(m)
    lost = OperatorSpace(m.dim, Subspace(m.dim**2, *_row_space(h.span.entries[1:], m.dim**2)))
    assert lost.dim == h.dim - 1 and commutator_closed_by_dense_products(lost)
    assert not any(map(any, isotropy._isotropy_defects(m, lost.span.entries)))
    target, make, message = MUTANTS["loses a basis vector"]
    monkeypatch.setattr(linalg, target, make(getattr(linalg, target)))
    with pytest.raises(AssertionError) as exc:
        isotropy_algebra(m)
    assert str(exc.value) == message


def test_an_unlucky_prime_is_retried_on_the_next(monkeypatch):
    # Every isotropy row times the first prime: the same kernel, but rank 0 modulo that prime.  The
    # completeness check moves to the second prime and passes there.
    p, q = linalg._PRIMES[:2]
    h = isotropy_algebra(build_example("paper_2_3").algebra)
    m = build_example("paper_2_3").algebra
    scaled = tuple([(key, {j: p * a for j, a in row.items()}) for key, row in rows] for rows in m._isotropy_rows)
    m.__dict__["_isotropy_rows"] = scaled  # the cached rows, replaced before h or the row index is built
    ranks, rank_mod = [], isotropy._rank_mod

    def recorded(rows, prime):
        ranks.append((prime, rank_mod(rows, prime)))
        return ranks[-1][1]

    monkeypatch.setattr(isotropy, "_rank_mod", recorded)
    assert isotropy_algebra(m) == h
    assert ranks == [(p, 0), (q, 144 - h.dim)]


_UNDER_O_KERNEL = """
import math

from gonil import linalg
from gonil.catalog import build_example
from gonil.isotropy import isotropy_algebra

assert False, "assert statements must be stripped under -O"

m, kernel = build_example("de7_lorentz").algebra, linalg._kernel_of_rows
for label, change in (("soundness", lambda basis, n: [*basis, [(i * n + i, 1) for i in range(n)]]),
                      ("completeness", lambda basis, n: basis[1:])):
    def mutant(rows, ncols, origins=None, change=change):
        den, basis = kernel(rows, ncols, origins)
        return (den, basis) if origins is None else linalg._row_space(change(basis, math.isqrt(ncols)), ncols)

    linalg._kernel_of_rows = mutant
    try:
        isotropy_algebra(m)
    except AssertionError as exc:
        print(label + ":", exc)
"""


def test_isotropy_kernel_checks_fire_under_python_O():
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _UNDER_O_KERNEL], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"soundness: {UNSOUND}", f"completeness: {INCOMPLETE}"]
