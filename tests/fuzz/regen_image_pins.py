"""Print the ``PINNED`` table of ``test_image_pin.py`` for this tree.

Run from the repository root, then paste the output over the table::

    PYTHONPATH=src python tests/fuzz/regen_image_pins.py

Only for a change meant to move the crash images, once it is shown how
they move (``test_image_pin``'s docstring: a clock-only move).
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from test_image_pin import PINNED, crash_images  # noqa: E402


def table(seeds) -> str:
    lines = ["PINNED = {"]
    for seed in seeds:
        result, visited = crash_images(seed)
        if not result.ok:
            raise SystemExit(f"seed {seed}: {result.violations}")
        rows = [repr(v) for v in visited]
        lines.append(f"    {seed}: [" + ",\n        ".join(rows) + "],")
    lines.append("}")
    return "\n".join(lines)


if __name__ == "__main__":
    print(table(sorted(PINNED)))
