"""Loopback benchmark for emunet: a load generator, a system process and a span tracer.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; see ``perfbench/README.md``.
"""
