#!/usr/bin/env python3
"""Regenerate the committed correctness pins.

    python3 repobench/pins.py paper check

``pins/paper.json`` holds the digest of every pool cell's simulated
statistics and ``pins/check.json`` the sorted findings of every pool
entry.  Regenerate them only for an intended behaviour change, and say
why where the change is described.  (The service workload's pin is a
serial in-process run made by every benchmark run, so it has no file.)
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from common import write_pins  # noqa: E402


def main(argv: list[str]) -> int:
    for name in argv or ["paper", "check"]:
        module = importlib.import_module(name)
        path = write_pins(name, module.CONFIG, module.pin_table())
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
