"""Rewrite ``schedule_pins.json`` (the table of ``test_schedule_pin.py``)
for this tree, and print what moved: per configuration and seed, the
event count, ``now_fs``, each ``PMStats`` field, each pinned histogram
and the durable image.  Run from the repository root::

    PYTHONPATH=src python tests/conc/regen_schedule_pins.py
"""

import json
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).parents[2]))    # tests

from tests.conc.test_schedule_pin import (  # noqa: E402
    CONFIGS, PIN_FILE, PINNED, pin_diff, pin_row)


def main() -> None:
    table, moved = {}, []
    with tempfile.TemporaryDirectory() as tmp:
        for config, seed in sorted(PINNED):
            row = pin_row(CONFIGS[config](seed), pathlib.Path(tmp))
            table.setdefault(config, {})[str(seed)] = row
            moved += pin_diff(config, seed, PINNED[config, seed], row)
    PIN_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print("\n".join(moved) if moved else "no pin moved")


if __name__ == "__main__":
    main()
