"""Measurement tooling kept beside the system under test, not inside it.

* :mod:`tools.warehouse` — the results warehouse: run-tables, CI/Welch
  statistics and the CI perf-regression gate
  (``python -m tools.warehouse``);
* :mod:`tools.loadgen` — the seeded traffic driver for the planning
  service (``python -m tools.loadgen``).

Nothing under ``src/repro`` imports this package.  Run both from the
repository root with ``PYTHONPATH=src``.
"""
