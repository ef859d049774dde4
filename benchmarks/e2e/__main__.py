"""``python -m benchmarks.e2e`` — same command line as ``run.py``."""

from benchmarks.e2e.run import launch

raise SystemExit(launch())
