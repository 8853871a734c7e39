"""Exact heavy-hitter detection over the rows a shuffle is about to route.

The trace prices a hash shuffle at the configured skew: its hottest
receiver gets that many times the mean.  A split can only shorten the
shuffle if its receivers balance better than that, so the hot line is
derived from the priced skew and the exact key counts (one
:func:`numpy.unique` over the routed keys):

* Cut every key into pieces of at most one worker's fair share of the
  rows (``total / num_workers``): a key's fan-out is ``ceil(count /
  piece)``, capped at the worker count and at its own rows, and a key
  whose fan-out is 1 stays on the agreed hash.
* Predict each receiver's rows under that split — each key spread over
  its fan-out consecutive workers from its agreed-hash home.  If the
  hottest receiver beats the priced skew, split; else halve the piece
  and try again, down to one row.  A split that cannot beat the priced
  skew is not made.

The coarsest split that gains is the one with the fewest probe-row
copies.  On a heavily skewed shuffle the first piece, one fair share,
already gains; when few keys meet many workers, only finer pieces do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.edw.partitioner import agreed_hash_partition


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


def hot_key_set(keys: np.ndarray, num_workers: int,
                priced_skew: float) -> Optional[HotKeySet]:
    """The keys among ``keys`` whose split lets ``num_workers``
    receivers balance better than ``priced_skew``, with their fan-outs;
    ``None`` when no split does, or none is needed.

    Keys come out sorted ascending, so downstream ``np.isin`` calls and
    the invariant checks see one canonical order.
    """
    if num_workers < 2 or keys.size == 0:
        return None
    unique, counts = np.unique(keys, return_counts=True)
    homes = agreed_hash_partition(unique, num_workers)
    # The piece is keys.size / pieces rows: one fair share, then halves.
    pieces = num_workers
    while True:
        fanouts = np.minimum(np.minimum(counts, num_workers),
                             -(-counts * pieces // keys.size))
        offsets = np.arange(fanouts.sum()) - np.repeat(
            np.cumsum(fanouts) - fanouts, fanouts)
        loads = np.bincount(
            (np.repeat(homes, fanouts) + offsets) % num_workers,
            weights=np.repeat(-(-counts // fanouts), fanouts),
            minlength=num_workers)
        if loads.max() * num_workers < priced_skew * keys.size:
            hot = fanouts >= 2
            if not hot.any():
                return None
            return HotKeySet(keys=unique[hot].astype(np.int64),
                             fanouts=fanouts[hot].astype(np.int64))
        if pieces >= keys.size:
            return None
        pieces *= 2
