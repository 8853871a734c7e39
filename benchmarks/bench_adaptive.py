"""Adaptive re-optimization benchmark (thin wrapper).

A plain script; the times it reports are *simulated* seconds from the
priced traces — deterministic,
so ``--check`` gates on exact invariants: every scenario's adaptive run
must switch, stay oracle-identical, and land strictly between the
correct-pick and mispicked static plans::

    PYTHONPATH=src python benchmarks/bench_adaptive.py \
        --out benchmarks/results/BENCH_adaptive.json

    # CI smoke: one scenario, gate on the checked-in baseline
    PYTHONPATH=src python benchmarks/bench_adaptive.py --quick \
        --check benchmarks/results/BENCH_adaptive.json

See :mod:`repro.bench.adaptive` for what is measured.
"""

import sys

from repro.bench.adaptive import main

if __name__ == "__main__":
    sys.exit(main())
