"""The internal identity checks fire on corrupted results, also under ``python -O``."""

import ast
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from gonil import go_engine
from gonil.go_engine import first_null_vector, go_certificate_at, linear_go_certificate, polarized_defects
from gonil.isotropy import isotropy_algebra
from gonil.linalg import LinearSolution, Matrix
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
    rng = random.Random(3)
    t = tuple(Fraction(rng.randint(-5, 5)) for _ in range(de7.dim))
    for vec in (t, first_null_vector(de7)):
        cert = go_certificate_at(de7, h, vec)
        assert cert is not None
        ad_t, gt = de7.algebra.ad(vec), de7.form.gram @ vec
        go_engine._verify_certificate(h, cert, ad_t, gt)
        with pytest.raises(AssertionError, match="defining identity"):
            go_engine._verify_certificate(h, replace(cert, k=cert.k + 1), ad_t, gt)


def test_linear_certificate_check_rejects_each_changed_coefficient(de5, monkeypatch):
    h = isotropy_algebra(de5)
    assert h.dim > 0 and linear_go_certificate(de5, h) is not None
    solve = go_engine.solve_linear
    for idx in range(h.dim * de5.dim):

        def changed(a, b, idx=idx):
            sol = solve(a, b)
            x = list(sol.particular)
            x[idx] += 1
            return LinearSolution(tuple(x), sol.kernel)

        monkeypatch.setattr(go_engine, "solve_linear", changed)
        with pytest.raises(AssertionError, match="polarized identity"):
            linear_go_certificate(de5, h)


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
