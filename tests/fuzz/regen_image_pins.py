"""Rewrite ``image_pins.json`` (the table of ``test_image_pin.py``) for
this tree, and print what moved: per image, the regions whose digest
moved.  Run from the repository root::

    PYTHONPATH=src python tests/fuzz/regen_image_pins.py

A change that claims no store moved shows it here: it prints
``no pin moved``.
"""

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).parent
sys.path[:0] = [str(HERE), str(HERE.parents[1])]    # test_image_pin, tests

from test_image_pin import PIN_FILE, PINNED, crash_images, pin_diff  # noqa


def main() -> None:
    table, moved = {}, []
    for seed in sorted(PINNED):
        result, visited = crash_images(seed)
        if not result.ok:
            raise SystemExit(f"seed {seed}: {result.violations}")
        table[str(seed)] = visited
        moved += pin_diff(seed, PINNED[seed], visited)
    PIN_FILE.write_text("{\n" + ",\n".join(
        f"{json.dumps(seed)}: [\n" + ",\n".join(
            "  " + json.dumps(row) for row in rows) + "\n]"
        for seed, rows in table.items()) + "\n}\n")
    print("\n".join(moved) if moved else "no pin moved")


if __name__ == "__main__":
    main()
