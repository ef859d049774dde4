"""Entry point: ``python3 benchmarks/e2e/run.py --workload NAME --seed N ...``.

Kept free of heavy imports so the clock that ``setup_s`` reads starts
before ``repro`` and numpy are imported: set-up time includes them.
"""

import sys
import time
from pathlib import Path

STARTED = time.perf_counter()
ROOT = Path(__file__).resolve().parents[2]


def launch() -> int:
    """Put the checkout's own ``src`` first on the path and run the CLI.

    The benchmark measures the source tree it sits in, never an installed
    copy of ``repro``: without ``src/repro`` beside it, it refuses to run.
    """
    if not (ROOT / "src" / "repro").is_dir():
        print(f"benchmarks.e2e: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2
    for entry in (str(ROOT), str(ROOT / "src")):
        if entry in sys.path:
            sys.path.remove(entry)
        sys.path.insert(0, entry)
    from benchmarks.e2e.cli import main

    return main(sys.argv[1:], started=STARTED)


if __name__ == "__main__":
    # This file's directory is on the path only because it was run as a
    # script; its siblings are imported as ``benchmarks.e2e.*``.
    sys.path.pop(0)
    raise SystemExit(launch())
