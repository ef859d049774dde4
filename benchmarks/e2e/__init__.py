"""End-to-end benchmark of the study pipeline (see README.md in this directory).

Self-contained on purpose: the harness imports only the standard library,
numpy and ``repro.*`` — never ``benchmarks.perf_core`` — so the numbers it
prints can only be moved by editing ``src/`` or this directory, and
``BENCHMARK.json`` at the repository root names this directory as the
benchmark's only path.
"""
