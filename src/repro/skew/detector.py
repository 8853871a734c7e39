"""Streaming heavy-hitter detection over the scan's join-key batches.

The detector wraps the count-min sketch + top-k heap kernel and adds
the one piece of policy the kernels cannot know: *what counts as hot*.
A key is hot when routing all of its rows to one worker would leave
that worker with more than its fair share of the shuffle — the
threshold is half a worker's fair share, ``1 / (2 * num_workers)`` of
the stream, below which even a perfectly colliding key cannot create a
meaningful straggler.

The no-false-negative guarantee is inherited from the sketch: its
estimates never underestimate and only grow, so a key whose final
frequency clears the threshold survives every prune from its last
observation onward and is present in :meth:`hot_keys`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.kernels.sketch import CountMinSketch, TopKHeap
from repro.observer import RunObserver


#: Count-min sketch geometry; 1024 x 4 bounds overestimation to
#: ~e*N/1024 per key, far below the hot threshold at any tested N.
SKETCH_WIDTH = 1024
SKETCH_DEPTH = 4
#: Seed for the sketch hashes (detection is fully deterministic).
SKETCH_SEED = 11
#: At most this many keys are treated as hot (broadcast has a cost).
TOP_K = 64
#: Work stealing triggers when max load > threshold * mean load.
#: Stealing is the backstop for what the hybrid split missed: below
#: ~2x residual imbalance, moving key-aligned fragments across the
#: 1 Gbit HDFS NICs costs more wall clock than the build/probe skew
#: it removes (the transfer is priced honestly on the trace).
STEAL_THRESHOLD = 2.0


@dataclass(frozen=True)
class HotKeySet:
    """Detected heavy hitters plus each key's spread fan-out.

    ``fanouts[i]`` is how many consecutive workers — starting at the
    key's agreed-hash home — share ``keys[i]``'s build rows; the
    matching probe rows are duplicated to exactly those workers (not
    broadcast cluster-wide), which bounds the duplication cost to the
    key's actual weight.  Only keys with fan-out >= 2 appear: a fan-out
    of 1 is byte-identical to the plain agreed hash, so such keys stay
    on the cold path.
    """

    keys: np.ndarray
    fanouts: np.ndarray

    def __len__(self) -> int:
        return int(self.keys.size)

    def destination_lists(self, num_workers: int, hash_fn):
        """Per-key destination arrays under the agreed hash.

        A fan-out sized before a crash is capped at the live workers:
        wrapping would list a worker twice (two probe-row copies).
        """
        homes = hash_fn(self.keys, num_workers)
        return [
            (int(home) + np.arange(min(int(fanout), num_workers),
                                   dtype=np.int64))
            % num_workers
            for home, fanout in zip(homes, self.fanouts)
        ]


class HeavyHitterDetector(RunObserver):
    """Accumulates join-key batches; reports the final hot-key set."""

    def __init__(self, num_workers: int):
        self.num_workers = int(num_workers)
        self.sketch = CountMinSketch(
            width=SKETCH_WIDTH, depth=SKETCH_DEPTH, seed=SKETCH_SEED)
        self.candidates = TopKHeap(TOP_K)
        #: Minimum share of the scanned stream a hot key must carry:
        #: half a worker's fair share.
        self.fraction = 1.0 / (2.0 * max(2, self.num_workers))

    @property
    def total(self) -> int:
        """Join keys observed so far."""
        return self.sketch.total

    def threshold(self) -> int:
        """Current absolute hot-key count threshold (grows with N)."""
        return max(1, math.ceil(self.fraction * self.sketch.total))

    def on_scan_block(self, rows_scanned, stored_bytes,
                      rows_after_predicates, rows_after_bloom,
                      bloom_applied, keys) -> None:
        """Scan observer protocol: observe the block's join keys."""
        if keys is not None:
            self.observe(keys)

    def observe(self, keys) -> None:
        """One scanned block's join keys."""
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size == 0:
            return
        unique, counts = np.unique(keys, return_counts=True)
        self.sketch.add(unique, counts)
        self.candidates.offer(unique, self.sketch.estimate(unique))
        self.candidates.prune(self.threshold())

    def hot_keys(self) -> np.ndarray:
        """Keys whose estimated frequency clears the final threshold.

        Candidates are re-estimated against the finished sketch before
        the final cut: a key offered early carries a stale (smaller)
        estimate, and the threshold kept growing after it was admitted.
        Sorted ascending so downstream ``np.isin`` calls and the
        invariant checks see one canonical order.
        """
        candidates = self.candidates.keys()
        if candidates.size == 0 or self.sketch.total == 0:
            return np.zeros(0, dtype=np.int64)
        estimates = self.sketch.estimate(candidates)
        return candidates[estimates >= self.threshold()]

    def hot_key_set(self) -> Optional[HotKeySet]:
        """The actionable hot keys with their spread fan-outs.

        A key's fan-out is how many fair shares of the stream its
        estimated frequency occupies, ``ceil(est / (total / workers))``
        capped at the worker count — spreading wider than that buys no
        balance but multiplies the probe-side duplication.  Keys whose
        fan-out rounds to 1 are dropped: hash routing already handles
        them, and keeping them hot would duplicate probe rows for
        nothing.
        """
        keys = self.hot_keys()
        if keys.size == 0:
            return None
        estimates = self.sketch.estimate(keys).astype(np.float64)
        fair = max(1.0, self.sketch.total / float(self.num_workers))
        fanouts = np.minimum(
            self.num_workers,
            np.ceil(estimates / fair).astype(np.int64),
        )
        spread = fanouts >= 2
        if not spread.any():
            return None
        return HotKeySet(keys=keys[spread], fanouts=fanouts[spread])
