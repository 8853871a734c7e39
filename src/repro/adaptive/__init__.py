"""repro.adaptive — mid-query re-optimization with runtime statistics.

The advisor (:mod:`repro.core.advisor`) commits to one join algorithm
up front from planner estimates; a bad cardinality estimate rides to
completion.  This package makes join-site choice a *runtime* property,
in the spirit of runtime join-location optimisation (Chandra &
Sudarshan, arXiv:1703.01148) and the source paper's own Section 5.5
conclusion that the right side to join on depends on data the planner
can only guess at:

* :mod:`repro.adaptive.collector` — the runtime-statistics collector
  (observed σ_T / σ_L so far, BF(T′) hit rate, scan progress), the
  artifact bank for legal cross-switch reuse, and the
  :class:`~repro.adaptive.collector.AdaptiveContext` each segment's run
  is handed as an observer (it raises
  :class:`~repro.adaptive.collector.SwitchSignal` to abandon the run);
* :mod:`repro.adaptive.reoptimizer` — decision checkpoints: re-runs the
  advisor's cost model with observed-so-far statistics extrapolated and
  votes to switch when the incumbent's projected remaining cost exceeds
  an alternative's full cost plus the switch penalty;
* :mod:`repro.adaptive.algorithm` — :class:`~repro.adaptive.algorithm.
  AdaptiveJoin` (registered as ``"adaptive"``): runs the advised
  algorithm with a context among its observers, executes switches (drain,
  reuse banked artifacts, re-plan), and charges abandoned work plus
  switch overhead on the trace plane.

No engine module imports this package: the observer reaches them on
the run's :class:`~repro.core.joins.base.ExecutionContext`.  Everything
here resolves lazily on first attribute access.
"""

from __future__ import annotations

_LAZY_MODULES = ("algorithm", "collector", "reoptimizer")
_LAZY_ATTRS = {
    "AdaptiveContext": "collector",
    "AdaptiveJoin": "algorithm",
    "ArtifactBank": "collector",
    "ReOptimizer": "reoptimizer",
    "RuntimeStatsCollector": "collector",
    "SwitchSignal": "collector",
}

__all__ = [
    "AdaptiveContext",
    "AdaptiveJoin",
    "ArtifactBank",
    "ReOptimizer",
    "RuntimeStatsCollector",
    "SwitchSignal",
    "algorithm",
    "collector",
    "reoptimizer",
]


def __getattr__(name: str):
    import importlib

    if name in _LAZY_MODULES:
        return importlib.import_module(f"repro.adaptive.{name}")
    if name in _LAZY_ATTRS:
        module = importlib.import_module(
            f"repro.adaptive.{_LAZY_ATTRS[name]}"
        )
        return getattr(module, name)
    raise AttributeError(
        f"module 'repro.adaptive' has no attribute {name!r}"
    )
