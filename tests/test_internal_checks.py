"""The internal identity checks fire on corrupted results, also under ``python -O``."""

import ast
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from gonil import go_engine
from gonil.go_engine import first_null_vector, go_certificate_at, linear_go_certificate, polarized_defects
from gonil.isotropy import isotropy_algebra
from gonil.linalg import Matrix
from oracles import polarized_defects_by_pairing, random_rational_matrix

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
