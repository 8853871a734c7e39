"""Runtime-statistics hooks, active only inside :func:`adapting`.

The adaptive plane needs to see what the engines observe *while a query
runs*: rows surviving the database filter, per-block scan progress,
Bloom-filter hit rates, shuffle partition growth, and every priced phase
added to the trace so far.  This module threads cheap observation hooks
into those hot spots, mirroring the gating style of
:mod:`repro.testkit.invariants` — production runs pay a single ``if``
per call site, and the engine modules can import this module at load
time because it depends on nothing else.

Two hooks are *active* rather than observational:

* :func:`checkpoint` (and the per-block check inside
  :func:`record_scan_block`) may raise :class:`SwitchSignal` when the
  re-optimizer decides the incumbent plan should be abandoned;
* :func:`banked_bloom` / :func:`banked_db_filter` let the shared join
  plumbing reuse artifacts materialised by an abandoned plan segment
  (the Bloom filter BF(T′) and the filtered T′ partitions), so a
  mid-query switch does not repeat work that is still legal to keep.

Arm the hooks with::

    from repro.adaptive import hooks

    with hooks.adapting(context):
        algorithm_by_name("db(BF)").run(warehouse, query)

where ``context`` is an :class:`repro.adaptive.collector.AdaptiveContext`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Sequence

#: The active adaptive context; flip only through :func:`adapting`.
_CONTEXT = None

#: The active heavy-hitter detector (skew plane); flip only through
#: :func:`detecting_skew`.  Shares this module's observation seam so
#: skew detection rides the same per-block hooks as the adaptive plane
#: instead of adding a second pass over the scan.
_SKEW_DETECTOR = None

#: The active per-block scan observer (approx plane); flip only through
#: :func:`observing_blocks`.  The approximate tier arms this so the
#: engine's own per-block seam — not a parallel bookkeeping path — is
#: the single source of truth for how many rows/bytes a sampled scan
#: actually touched.
_BLOCK_OBSERVER = None


class SwitchSignal(Exception):
    """Raised out of an engine hot loop to abandon the incumbent plan.

    Carries the re-optimizer's :class:`~repro.adaptive.reoptimizer.
    SwitchDecision`.  Only :class:`~repro.adaptive.algorithm.AdaptiveJoin`
    raises and catches it; the engines treat it like any other abort
    (their ``finally`` blocks restore scan depth and toggles).
    """

    def __init__(self, decision):
        super().__init__(
            f"switch to {decision.target!r} at "
            f"{decision.at_progress:.0%} scan progress"
        )
        self.decision = decision


def adaptive_active() -> bool:
    """True while an adaptive run is collecting statistics."""
    return _CONTEXT is not None


@contextmanager
def adapting(context) -> Iterator[None]:
    """Arm every runtime-statistics hook for the duration of the block."""
    global _CONTEXT
    previous = _CONTEXT
    _CONTEXT = context
    try:
        yield
    finally:
        _CONTEXT = previous


def skew_detection_active() -> bool:
    """True while a scan is feeding a heavy-hitter detector."""
    return _SKEW_DETECTOR is not None


@contextmanager
def detecting_skew(detector) -> Iterator[None]:
    """Arm the skew-detection hook for the duration of the block.

    ``detector`` is a :class:`repro.skew.detector.HeavyHitterDetector`
    (anything with an ``observe(keys)`` method); ``None`` makes the
    context a no-op so call sites need no conditional.
    """
    global _SKEW_DETECTOR
    previous = _SKEW_DETECTOR
    _SKEW_DETECTOR = detector
    try:
        yield
    finally:
        _SKEW_DETECTOR = previous


def block_observer_active() -> bool:
    """True while a scan is feeding a per-block observer."""
    return _BLOCK_OBSERVER is not None


@contextmanager
def observing_blocks(observer) -> Iterator[None]:
    """Arm a per-block scan observer for the duration of the block.

    ``observer`` is any callable with :func:`record_scan_block`'s
    signature; it fires for every scanned block *before* the adaptive
    context (if any) sees it, and regardless of whether one is armed.
    """
    global _BLOCK_OBSERVER
    previous = _BLOCK_OBSERVER
    _BLOCK_OBSERVER = observer
    try:
        yield
    finally:
        _BLOCK_OBSERVER = previous


def record_scan_keys(keys) -> None:
    """One scanned block's surviving join keys — that block's slice of
    the worker batch, never the whole batch: the detector prunes its
    candidates per call (called from the JEN worker's per-block replay,
    right next to :func:`record_scan_block`)."""
    if _SKEW_DETECTOR is None:
        return
    _SKEW_DETECTOR.observe(keys)


# ----------------------------------------------------------------------
# Observation hooks (engine call sites)
# ----------------------------------------------------------------------
def record_db_filter(rows_scanned: int, rows_out: int) -> None:
    """Observed σ_T: the database filter's input and output counts
    (called from :meth:`repro.edw.database.ParallelDatabase.
    filter_project`)."""
    if _CONTEXT is None:
        return
    _CONTEXT.on_db_filter(rows_scanned, rows_out)


def scan_begin(total_blocks: int) -> None:
    """The distributed scan announces its block count (progress
    denominator); called from the JEN scan work queue."""
    if _CONTEXT is None:
        return
    _CONTEXT.on_scan_begin(total_blocks)


def record_scan_block(rows_scanned: int, stored_bytes: float,
                      rows_after_predicates: int, rows_after_bloom: int,
                      bloom_applied: bool) -> None:
    """One scanned block's counts (called once per block, in block
    order, when the JEN worker replays its finished batch).

    May raise :class:`SwitchSignal` when a fractional-progress decision
    checkpoint is crossed and the re-optimizer votes to switch; the
    rest of the batch is then abandoned with the scan.
    """
    if _BLOCK_OBSERVER is not None:
        _BLOCK_OBSERVER(rows_scanned, stored_bytes,
                        rows_after_predicates, rows_after_bloom,
                        bloom_applied)
    if _CONTEXT is None:
        return
    _CONTEXT.on_scan_block(rows_scanned, stored_bytes,
                           rows_after_predicates, rows_after_bloom,
                           bloom_applied)


def record_shuffle_partitions(sizes: Sequence[int]) -> None:
    """Per-destination partition sizes of a JEN shuffle (growth/skew
    observability; called from :func:`repro.jen.exchange.shuffle`)."""
    if _CONTEXT is None:
        return
    _CONTEXT.on_shuffle(list(sizes))


def record_phase(phase) -> None:
    """Every phase added to any trace while adapting (called from
    :meth:`repro.sim.trace.Trace.add`), so an abandoned segment's
    already-priced work can be charged on the final trace."""
    if _CONTEXT is None:
        return
    _CONTEXT.on_phase(phase)


def checkpoint(label: str) -> None:
    """A named decision checkpoint (e.g. ``"t_prime_built"``); may raise
    :class:`SwitchSignal`."""
    if _CONTEXT is None:
        return
    _CONTEXT.on_checkpoint(label)


# ----------------------------------------------------------------------
# Artifact bank (legal reuse across a switch)
# ----------------------------------------------------------------------
def banked_bloom(key):
    """A banked ``GlobalBloomResult`` for ``key``, or ``None``."""
    if _CONTEXT is None:
        return None
    return _CONTEXT.banked_bloom(key)


def bank_bloom(key, result) -> None:
    """Bank a freshly built ``GlobalBloomResult`` under ``key``."""
    if _CONTEXT is None:
        return
    _CONTEXT.bank_bloom(key, result)


def banked_db_filter(key) -> Optional[tuple]:
    """Banked ``(t_parts, matched)`` for a db filter, or ``None``."""
    if _CONTEXT is None:
        return None
    return _CONTEXT.banked_db_filter(key)


def bank_db_filter(key, parts, matched: int) -> None:
    """Bank the filtered T′ partitions under ``key``."""
    if _CONTEXT is None:
        return
    _CONTEXT.bank_db_filter(key, parts, matched)
