"""Every layer the traced benchmark run wraps still exists under its name.

``perfbench/spans.py`` wraps gonil functions by module and attribute name and
reports a missing one as 0, so a rename would silently empty its metrics.
The install runs in a subprocess because it rebinds gonil module attributes.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_INSTALL = """
import gonil
import spans

print("\\n".join(spans.install(spans.Recorder())))
"""

# Targets the benchmark names that the library no longer has.
KNOWN_MISSING = [
    "gonil.isotropy.OperatorSpace.combine",
    "gonil.isotropy.OperatorSpace.intersect",
    "gonil.isotropy.OperatorSpace.verify_commutator_closed",
    "gonil.isotropy.is_derivation",
    "gonil.lie.LieAlgebra.ad",
    "gonil.lie.engel_flag",
    "gonil.linalg.kernel",
    "gonil.linalg.solve_linear",
]


# A 41-bit entry goes through the watched integer core; the traced run reports its width.
_MAX_BITS = """
import gonil.linalg
import spans

recorder = spans.Recorder()
spans.install(recorder)
gonil.linalg.rref(gonil.linalg.Matrix([[2**40 + 1, 3], [5, 7]]))
print(recorder.counts[(0, "linalg.rref")]["max_bits"])
"""


# An audit decides each sample through the traced go_certificate_at, so the
# benchmark's per-sample metrics (sample_ms_p50, sample_ms_p95) see every one.
_AUDIT_SPANS = """
import gonil.go_engine
import spans
from gonil.catalog import build_example
from gonil.isotropy import isotropy_algebra

recorder = spans.Recorder()
spans.install(recorder)
m = build_example("de7_lorentz").algebra
report = gonil.go_engine.go_random_audit(m, isotropy_algebra(m), 5, seed=1)
assert report.null_point is not None
nid = recorder.names.index("go_engine.certificate_at")
print(list(recorder.name_of).count(nid))
"""


def _run_traced(code: str) -> str:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_traced_run_finds_every_layer_but_the_known_missing():
    assert sorted(_run_traced(_INSTALL).split()) == KNOWN_MISSING


def test_traced_max_bits_reads_the_integer_core():
    # A core the watch no longer sees reports 0 bits; one handed (column, value) pairs fails the run.
    assert int(_run_traced(_MAX_BITS)) >= 41


def test_traced_audit_records_one_certificate_span_per_sample():
    # 5 samples and the null sample.
    assert int(_run_traced(_AUDIT_SPANS)) == 6
