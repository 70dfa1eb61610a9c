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
KNOWN_MISSING = ["gonil.isotropy.OperatorSpace.intersect", "gonil.linalg.solve_linear"]


def test_traced_run_finds_every_layer_but_the_known_missing():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _INSTALL],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(proc.stdout.split()) == KNOWN_MISSING
