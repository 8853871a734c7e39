"""Engine invariant hooks, active only inside :func:`checking`.

The distributed engines promise a handful of structural invariants that
differential tests alone can miss (two bugs can cancel out in the final
aggregate).  This module threads *assertion hooks* into the hot spots:

* **exactly-once shuffle delivery** — every destination of
  :func:`repro.jen.exchange.shuffle` accepts each sender's message
  exactly once, and receives exactly the rows addressed to it, even
  when the fault injector re-sends dropped messages or duplicates
  messages whose acknowledgement was lost;
* **partition completeness/disjointness** — the exchanges
  (:meth:`repro.jen.worker.JenWorker.partition_for_exchange`,
  :func:`repro.core.joins.repartition._route_db_rows`) route every
  input row to exactly one partition, and every row of partition ``i``
  re-hashes to ``i``;
* **Bloom no-false-negative** — a :class:`repro.core.bloom.BloomFilter`
  never reports an inserted key absent; a shadow key set is tracked
  through ``add``/``union_in_place``/``copy``/``combine`` and verified
  on every ``contains`` probe;
* **spill round-trip fidelity** — grace-hash fragmenting
  (:func:`repro.jen.spill.fragment_tables`) loses no rows and keeps
  equal keys co-located in the same fragment on both sides.

All hooks are gated on a module-level flag so production runs pay a
single ``if`` per call site.  Enable them with::

    from repro import testkit

    with testkit.checking():
        algorithm_by_name("zigzag").run(warehouse, query)

Violations raise :class:`repro.errors.InvariantViolation`.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.errors import InvariantViolation

#: Global gate; flip only through :func:`checking`.
_CHECKING = False

#: BloomFilter -> np.ndarray of every key ever inserted (shadow set).
#: Weak keys let filters die normally; entries exist only for filters
#: touched while checking was active.
_BLOOM_SHADOWS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def checking_enabled() -> bool:
    """True while invariant hooks are armed."""
    return _CHECKING


@contextmanager
def checking() -> Iterator[None]:
    """Arm every engine invariant hook for the duration of the block.

    Re-entrant; the shadow state of Bloom filters is dropped on the
    outermost exit so one test cannot poison the next.
    """
    global _CHECKING
    previous = _CHECKING
    _CHECKING = True
    try:
        yield
    finally:
        _CHECKING = previous
        if not previous:
            _BLOOM_SHADOWS.clear()


def violation(message: str) -> "InvariantViolation":
    """Build the typed error (helper so hooks read as one-liners)."""
    return InvariantViolation(message)


# ----------------------------------------------------------------------
# Shuffle delivery (jen/exchange.py)
# ----------------------------------------------------------------------
def check_shuffle_delivery(routed, per_destination,
                           delivery_counts: np.ndarray) -> None:
    """Exactly-once acceptance plus row conservation per destination.

    ``delivery_counts[sender, destination]`` counts the copies each
    receiver *accepted* (post dedup); ``routed[sender, destination]``
    the rows each sender addressed there.  Anything other than exactly
    one copy per (sender, destination) pair — or a received row count
    that differs from the rows addressed to that destination — is a
    violation.
    """
    if not _CHECKING:
        return
    bad = np.argwhere(delivery_counts != 1)
    if bad.size:
        sender, destination = (int(bad[0][0]), int(bad[0][1]))
        raise violation(
            "shuffle delivery is not exactly-once: destination "
            f"{destination} accepted {int(delivery_counts[sender, destination])} "
            f"copies from sender {sender} (expected 1)"
        )
    for destination, received in enumerate(per_destination):
        expected = int(routed[:, destination].sum())
        if received.num_rows != expected:
            raise violation(
                f"shuffle conservation broken at destination {destination}: "
                f"received {received.num_rows} rows, senders addressed "
                f"{expected}"
            )


# ----------------------------------------------------------------------
# Hash partitioning (jen/worker.py, core/joins/repartition.py)
# ----------------------------------------------------------------------
def check_hash_partition(table, key: str, parts: Sequence,
                         num_partitions: int, hash_fn) -> None:
    """Partition completeness and disjointness.

    * completeness — the partition row counts sum to the input rows
      (no row dropped, none duplicated);
    * disjointness — every row of partition ``i`` re-hashes to ``i``
      under the agreed hash, so no row could also belong elsewhere.
    """
    if not _CHECKING:
        return
    if len(parts) != num_partitions:
        raise violation(
            f"partitioner returned {len(parts)} parts for "
            f"{num_partitions} partitions"
        )
    total = sum(part.num_rows for part in parts)
    if total != table.num_rows:
        raise violation(
            f"partition completeness broken on key {key!r}: "
            f"{table.num_rows} input rows became {total} partitioned rows"
        )
    for index, part in enumerate(parts):
        if part.num_rows == 0:
            continue
        routed = hash_fn(part.column(key), num_partitions)
        wrong = np.flatnonzero(routed != index)
        if wrong.size:
            key_value = part.column(key)[wrong[0]]
            raise violation(
                f"partition disjointness broken: row with {key}="
                f"{key_value!r} landed in partition {index} but hashes "
                f"to {int(routed[wrong[0]])}"
            )


# ----------------------------------------------------------------------
# Hybrid (broadcast-hot / hash-cold) shuffle (jen/worker.py,
# core/joins/repartition.py)
# ----------------------------------------------------------------------
def _hot_destination_sets(hot_keys: np.ndarray,
                          fanouts: Optional[np.ndarray],
                          num_partitions: int, hash_fn):
    """Allowed destination set per hot key (all when no fan-outs)."""
    if fanouts is None:
        everywhere = frozenset(range(num_partitions))
        return {int(k): everywhere for k in hot_keys}
    homes = hash_fn(hot_keys, num_partitions)
    return {
        int(k): frozenset(
            (int(home) + offset) % num_partitions
            for offset in range(int(fanout))
        )
        for k, home, fanout in zip(hot_keys, homes, fanouts)
    }


def check_hybrid_partition(table, key: str, parts: Sequence,
                           num_partitions: int, hash_fn,
                           hot_keys: np.ndarray,
                           fanouts: Optional[np.ndarray] = None) -> None:
    """Hybrid split of the senders' build side (L rows).

    * completeness — the partition row counts sum to the input rows;
    * cold disjointness — every *cold* row of partition ``i`` re-hashes
      to ``i`` under the agreed hash;
    * hot conservation — each hot key's rows appear across the parts
      exactly as many times as in the input (spread, never duplicated),
      so no (l, t) pair can be produced twice downstream;
    * hot containment — hot rows only land inside their key's bounded
      destination set (``fanouts`` consecutive workers from the agreed-
      hash home; every worker when ``fanouts`` is ``None``).
    """
    if not _CHECKING:
        return
    if len(parts) != num_partitions:
        raise violation(
            f"hybrid partitioner returned {len(parts)} parts for "
            f"{num_partitions} partitions"
        )
    total = sum(part.num_rows for part in parts)
    if total != table.num_rows:
        raise violation(
            f"hybrid partition completeness broken on key {key!r}: "
            f"{table.num_rows} input rows became {total} partitioned rows"
        )
    hot_keys = np.asarray(hot_keys, dtype=np.int64)
    allowed = _hot_destination_sets(hot_keys, fanouts, num_partitions,
                                    hash_fn)
    for index, part in enumerate(parts):
        if part.num_rows == 0:
            continue
        keys = part.column(key)
        hot_mask = np.isin(keys, hot_keys)
        routed = hash_fn(keys, num_partitions)
        wrong = np.flatnonzero(~hot_mask & (routed != index))
        if wrong.size:
            raise violation(
                f"hybrid partition disjointness broken: cold row with "
                f"{key}={keys[wrong[0]]!r} landed in partition {index} "
                f"but hashes to {int(routed[wrong[0]])}"
            )
        for hot_key in np.unique(keys[hot_mask]):
            if index not in allowed[int(hot_key)]:
                raise violation(
                    f"hybrid partition containment broken: hot key "
                    f"{int(hot_key)} landed in partition {index}, "
                    f"outside its destination set "
                    f"{sorted(allowed[int(hot_key)])}"
                )
    input_keys = table.column(key)
    input_hot = input_keys[np.isin(input_keys, hot_keys)]
    spread_hot = np.concatenate([
        part.column(key)[np.isin(part.column(key), hot_keys)]
        for part in parts
    ]) if parts else np.zeros(0, dtype=np.int64)
    expected_keys, expected_counts = np.unique(input_hot,
                                               return_counts=True)
    actual_keys, actual_counts = np.unique(spread_hot, return_counts=True)
    if (not np.array_equal(expected_keys, actual_keys)
            or not np.array_equal(expected_counts, actual_counts)):
        raise violation(
            f"hybrid partition hot conservation broken on key {key!r}: "
            "spread hot rows do not match the input multiset"
        )


def check_broadcast_routing(t_parts, key: str, per_destination,
                            num_destinations: int, hash_fn,
                            hot_keys: np.ndarray,
                            fanouts: Optional[np.ndarray] = None) -> None:
    """Probe-side (T′) routing of a hybrid shuffle.

    Every destination must hold its agreed-hash share of the cold rows,
    plus — for each hot key whose bounded destination set contains it —
    exactly one copy of every input row of that key, and *zero* rows of
    hot keys whose set does not contain it.  Together with the L-side
    spread (:func:`check_hybrid_partition`) this guarantees each hot
    (l, t) pair is produced exactly once.
    """
    if not _CHECKING:
        return
    hot_keys = np.asarray(hot_keys, dtype=np.int64)
    allowed = _hot_destination_sets(hot_keys, fanouts, num_destinations,
                                    hash_fn)
    all_keys = np.concatenate([part.column(key) for part in t_parts]) \
        if t_parts else np.zeros(0, dtype=np.int64)
    hot_input = all_keys[np.isin(all_keys, hot_keys)]
    input_counts = {
        int(k): int(c)
        for k, c in zip(*np.unique(hot_input, return_counts=True))
    }
    cold_input = all_keys[~np.isin(all_keys, hot_keys)]
    cold_seen = 0
    for destination, received in enumerate(per_destination):
        keys = received.column(key)
        hot_mask = np.isin(keys, hot_keys)
        got_hot, got_counts = np.unique(keys[hot_mask],
                                        return_counts=True)
        got = {int(k): int(c) for k, c in zip(got_hot, got_counts)}
        for hot_key in hot_keys:
            expected = (
                input_counts.get(int(hot_key), 0)
                if destination in allowed[int(hot_key)] else 0
            )
            if got.get(int(hot_key), 0) != expected:
                raise violation(
                    f"broadcast routing broken at destination "
                    f"{destination}: hot key {int(hot_key)} delivered "
                    f"{got.get(int(hot_key), 0)} rows, expected "
                    f"{expected}"
                )
        cold = keys[~hot_mask]
        cold_seen += cold.size
        if cold.size:
            routed = hash_fn(cold, num_destinations)
            wrong = np.flatnonzero(routed != destination)
            if wrong.size:
                raise violation(
                    f"broadcast routing broken: cold row with {key}="
                    f"{cold[wrong[0]]!r} arrived at destination "
                    f"{destination} but hashes to {int(routed[wrong[0]])}"
                )
    if cold_seen != cold_input.size:
        raise violation(
            f"broadcast routing lost cold rows: {cold_input.size} input "
            f"cold rows became {cold_seen} delivered rows"
        )


# ----------------------------------------------------------------------
# Bloom filters (core/bloom.py)
# ----------------------------------------------------------------------
def record_bloom_add(bloom, keys: np.ndarray) -> None:
    """Track inserted keys in the filter's shadow set."""
    if not _CHECKING:
        return
    keys = np.unique(np.asarray(keys).astype(np.int64, copy=False))
    existing = _BLOOM_SHADOWS.get(bloom)
    if existing is None:
        _BLOOM_SHADOWS[bloom] = keys
    else:
        _BLOOM_SHADOWS[bloom] = np.union1d(existing, keys)


def record_bloom_merge(destination, source) -> None:
    """Union/copy propagates the source's shadow set."""
    if not _CHECKING:
        return
    source_keys = _BLOOM_SHADOWS.get(source)
    if source_keys is None:
        return
    existing = _BLOOM_SHADOWS.get(destination)
    if existing is None:
        _BLOOM_SHADOWS[destination] = source_keys.copy()
    else:
        _BLOOM_SHADOWS[destination] = np.union1d(existing, source_keys)


def check_bloom_contains(bloom, keys: np.ndarray,
                         mask: np.ndarray) -> None:
    """No false negatives: every shadow-tracked key must test True."""
    if not _CHECKING:
        return
    shadow = _BLOOM_SHADOWS.get(bloom)
    if shadow is None or shadow.size == 0:
        return
    keys = np.asarray(keys).astype(np.int64, copy=False)
    required = np.isin(keys, shadow)
    false_negatives = np.flatnonzero(required & ~np.asarray(mask))
    if false_negatives.size:
        key_value = int(keys[false_negatives[0]])
        raise violation(
            f"Bloom filter false negative: key {key_value} was inserted "
            "but contains() reported it absent"
        )


# ----------------------------------------------------------------------
# Spill fragmenting (jen/spill.py)
# ----------------------------------------------------------------------
def check_spill_fragments(build, probe, build_key: str, probe_key: str,
                          fragments, num_fragments: int,
                          hash_fn) -> None:
    """Grace-hash round trip: no rows lost, fragments co-aligned.

    Both inputs must reappear in full across the fragments, and every
    fragment's rows (both sides) must hash to that fragment — which is
    exactly what guarantees the fragment-wise join equals the in-memory
    join.
    """
    if not _CHECKING:
        return
    build_total = sum(pair[0].num_rows for pair in fragments)
    probe_total = sum(pair[1].num_rows for pair in fragments)
    if build_total != build.num_rows or probe_total != probe.num_rows:
        raise violation(
            "spill round trip lost rows: build "
            f"{build.num_rows}->{build_total}, probe "
            f"{probe.num_rows}->{probe_total}"
        )
    for index, (build_fragment, probe_fragment) in enumerate(fragments):
        for side, fragment, key in (
            ("build", build_fragment, build_key),
            ("probe", probe_fragment, probe_key),
        ):
            if fragment.num_rows == 0:
                continue
            routed = hash_fn(fragment.column(key), num_fragments)
            wrong = np.flatnonzero(routed != index)
            if wrong.size:
                raise violation(
                    f"spill fragment misalignment: {side} row with "
                    f"{key}={fragment.column(key)[wrong[0]]!r} sits in "
                    f"fragment {index} but hashes to "
                    f"{int(routed[wrong[0]])}"
                )
