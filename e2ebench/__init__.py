"""End-to-end benchmark of the layout solver service.

``python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload (see ``BENCHMARK.json`` at the repository root) and
prints one JSON result line last.  The harness treats the program as a
black box: daemon workloads start the real ``python -m repro.service
--serve`` process; per-layer numbers come from a separate traced
replay whose spans are owned by this package, not by ``src/``.
"""
