"""repro.testkit — the shared differential-testing subsystem.

One harness for every correctness question the reproduction asks:

* :mod:`repro.testkit.oracle` — a trusted single-node executor (plain
  numpy/dict hash join and aggregation over :class:`repro.relational.
  table.Table`, no engine code) plus canonical row-multiset comparison
  with readable first-divergence diffs;
* :mod:`repro.testkit.generator` — seeded data/query/config generation
  spanning the metamorphic axes (algorithms, worker counts, HDFS
  formats, fault plans, cache cold/warm, estimate errors, skew
  handling, approximate sampling, late materialization) and a runner
  executing one grid cell;
* :mod:`repro.testkit.invariants` — engine assertion hooks (exactly-once
  shuffle delivery, partition completeness/disjointness, Bloom
  no-false-negative, spill round-trip fidelity) armed via
  :func:`checking`;
* :mod:`repro.testkit.shrink` — a delta-debugging minimizer reducing a
  failing (case, config) to a minimal table plus a single config axis,
  emitting a ready-to-paste repro snippet;
* :mod:`repro.testkit.fuzz` — the budgeted fuzz driver behind
  ``python -m repro fuzz`` and the CI ``fuzz-smoke`` job.

The engine modules import :mod:`~repro.testkit.invariants` at load
time, so this package must stay import-light: only the invariant hooks
(numpy-only) load eagerly; everything else resolves lazily on first
attribute access.
"""

from __future__ import annotations

from repro.testkit.invariants import checking, checking_enabled

_LAZY_MODULES = ("fuzz", "generator", "invariants", "oracle", "shrink")

__all__ = [
    "checking",
    "checking_enabled",
    "fuzz",
    "generator",
    "invariants",
    "oracle",
    "shrink",
]


def __getattr__(name: str):
    if name in _LAZY_MODULES:
        import importlib

        return importlib.import_module(f"repro.testkit.{name}")
    raise AttributeError(f"module 'repro.testkit' has no attribute {name!r}")
