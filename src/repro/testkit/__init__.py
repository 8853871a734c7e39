"""repro.testkit — the shared differential-testing subsystem.

One harness for every correctness question the reproduction asks:

* :mod:`repro.testkit.oracle` — a trusted single-node executor (plain
  numpy/dict hash join and aggregation over :class:`repro.relational.
  table.Table`, no engine code) plus canonical row-multiset comparison
  with readable first-divergence diffs;
* :mod:`repro.testkit.generator` — seeded data/query/config generation
  spanning the metamorphic axes (algorithms, worker counts, HDFS
  formats, fault plans, cache cold/warm, estimate errors, approximate
  sampling, late materialization) and a runner executing one grid cell
  under an invariant checker, on a warehouse that prices the case's
  key skew;
* :mod:`repro.testkit.invariants` — :class:`InvariantChecker`, the run
  observer that checks the engine invariants (exactly-once shuffle
  delivery, partition completeness/disjointness, Bloom
  no-false-negative, spill round-trip fidelity) of every run whose
  context carries it;
* :mod:`repro.testkit.shrink` — a delta-debugging minimizer reducing a
  failing (case, config) to a minimal table plus a single config axis,
  emitting a ready-to-paste repro snippet;
* :mod:`repro.testkit.fuzz` — the budgeted fuzz driver behind
  ``python -m repro fuzz`` and the CI ``fuzz-smoke`` job.

No runtime module imports this package, and importing it loads only
the checker (numpy-only); import the other modules by name.
"""

from __future__ import annotations

from repro.testkit.invariants import InvariantChecker

__all__ = ["InvariantChecker"]
