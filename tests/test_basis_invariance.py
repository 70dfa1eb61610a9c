"""The same algebra in another basis gives the same answers (a metamorphic test: no oracle needed).

Each input is compared with ``conftest.dense_twin``, the algebra in the basis
of P = L U with entries in {-1, 0, 1}.  The catalog and Heisenberg bases are
rich in one-entry isotropy rows, which ``linalg._presolve`` strips before
elimination; the twin has almost none.  So each comparison is also one of the
kernel with the presolve doing most of the work and with it doing next to none.
"""

from itertools import chain

import pytest

from conftest import dense_twin, heisenberg
from gonil import linalg
from gonil.catalog import build_example
from gonil.double_ext import ReductionError, reduce
from gonil.go_engine import linear_go_certificate
from gonil.isotropy import isotropy_algebra
from gonil.lie import nilpotency_step

INPUTS = {
    **{name: lambda name=name: build_example(name).algebra for name in ("de5", "de7_lorentz", "heis3", "filiform4")},
    "H_5 Euclidean": lambda: heisenberg(2),
    "H_5 Lorentz": lambda: heisenberg(2, negative=(4,)),
    "H_5 (3, 2)": lambda: heisenberg(2, negative=(3, 4)),
}


def _invariants(m):
    """dim h, whether a linear certificate exists, the step, dim n', and the quotient's dim and signature."""
    h = isotropy_algebra(m)
    try:
        quotient = reduce(m, h).m0
        reduced = quotient.dim, quotient.form.signature()
    except ReductionError as exc:
        reduced = str(exc)
    return h.dim, linear_go_certificate(m, h) is not None, nilpotency_step(m.algebra), m.nprime().dim, reduced


def _forced(m) -> int:
    """How many columns of m's isotropy rows the presolve forces to zero."""
    rows = [row for _, row in chain(*m._isotropy_rows)]
    return len(linalg._presolve([list(row.values()) for row in rows], [list(row) for row in rows])[0])


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_the_dense_twin_has_the_same_invariants(name):
    m = INPUTS[name]()
    twin = dense_twin(m, 7)
    assert _invariants(twin) == _invariants(m)
    assert _forced(twin) <= 1 < _forced(m)
