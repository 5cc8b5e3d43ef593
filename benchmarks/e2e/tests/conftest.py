"""Self-tests of the benchmark harness (``pytest benchmarks/e2e/tests``).

Not part of tier-1: they test the measuring code, not the program.
"""

import pathlib
import sys

E2E = pathlib.Path(__file__).resolve().parents[1]
for entry in (E2E.parents[1] / "src", E2E.parent):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
