"""The engine invariant checker, a run observer.

The distributed engines promise structural invariants that differential
tests alone can miss (two bugs can cancel out in the final aggregate),
and hand each step to the ``check_*`` hooks of their run's observers
(:class:`repro.observer.RunObserver`).  :class:`InvariantChecker`
checks them: exactly-once shuffle delivery (even when the fault
injector re-sends or duplicates messages), partition completeness and
disjointness (with hot keys: the build side's spread and the probe
side's copies meet exactly once), Bloom no-false-negative and spill
round-trip fidelity.  The Bloom check keeps no state on the filter:
the run reports each filter with the join keys it was built over
(T′'s for BF_DB, the scan survivors' for BF_H) and the checker tests
every probe mask against them.  A run is checked when its context
carries a checker::

    checker = InvariantChecker()
    algorithm_by_name("zigzag").run(
        warehouse, query, ExecutionContext(observers=(checker,)))

Violations raise :class:`repro.errors.InvariantViolation`;
:attr:`InvariantChecker.counts` counts the checks per invariant.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional, Sequence

import numpy as np

from repro.errors import InvariantViolation
from repro.observer import RunObserver


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


def _check_complete(kind: str, rows: int, key: str, parts: Sequence,
                    num_partitions: int) -> None:
    """``num_partitions`` parts whose rows add up to ``rows``."""
    if len(parts) != num_partitions:
        raise InvariantViolation(
            f"{kind}partitioner returned {len(parts)} parts for "
            f"{num_partitions} partitions"
        )
    total = sum(part.num_rows for part in parts)
    if total != rows:
        raise InvariantViolation(
            f"{kind}partition completeness broken on key {key!r}: "
            f"{rows} input rows became {total} partitioned rows"
        )


class InvariantChecker(RunObserver):
    """Checks every engine invariant of the runs it observes."""

    def __init__(self):
        #: Checks run, per invariant (``"shuffle_delivery"`` ...).
        self.counts: Counter = Counter()
        #: Filter -> the join keys the run built it over.
        self._built: Dict[object, np.ndarray] = {}

    def on_bloom_built(self, bloom, keys) -> None:
        self._built[bloom] = np.concatenate(
            [np.asarray(part).astype(np.int64, copy=False) for part in keys]
            or [np.zeros(0, dtype=np.int64)])

    def check_bloom_contains(self, bloom, keys, mask) -> None:
        """No false negatives: every key ``bloom`` was built over must
        test True (a filter the run did not report is not checked)."""
        built = self._built.get(bloom)
        if built is None:
            return
        self.counts["bloom_contains"] += 1
        keys = np.asarray(keys).astype(np.int64, copy=False)
        false_negatives = np.flatnonzero(
            np.isin(keys, built) & ~np.asarray(mask))
        if false_negatives.size:
            key_value = int(keys[false_negatives[0]])
            raise InvariantViolation(
                f"Bloom filter false negative: key {key_value} was built "
                "into the filter but the probe reported it absent"
            )

    def check_shuffle_delivery(self, routed, per_destination,
                               delivery_counts: np.ndarray) -> None:
        """Exactly-once acceptance plus row conservation per destination.

        ``delivery_counts[sender, destination]`` counts the copies each
        receiver *accepted* (post dedup); ``routed[sender, destination]``
        the rows each sender addressed there.  Anything other than exactly
        one copy per (sender, destination) pair — or a received row count
        that differs from the rows addressed to that destination — is a
        violation.
        """
        self.counts["shuffle_delivery"] += 1
        bad = np.argwhere(delivery_counts != 1)
        if bad.size:
            sender, destination = (int(bad[0][0]), int(bad[0][1]))
            raise InvariantViolation(
                "shuffle delivery is not exactly-once: destination "
                f"{destination} accepted "
                f"{int(delivery_counts[sender, destination])} copies from "
                f"sender {sender} (expected 1)"
            )
        for destination, received in enumerate(per_destination):
            expected = int(routed[:, destination].sum())
            if received.num_rows != expected:
                raise InvariantViolation(
                    "shuffle conservation broken at destination "
                    f"{destination}: received {received.num_rows} rows, "
                    f"senders addressed {expected}"
                )

    def check_hash_partition(self, table, key: str, parts: Sequence,
                             num_partitions: int, hash_fn, routed=None,
                             probe_keys=None) -> None:
        """Partition completeness and disjointness.

        * completeness — the partition row counts sum to the input rows
          (no row dropped, none duplicated);
        * disjointness — every row of partition ``i`` re-hashes to ``i``
          under the agreed hash, so no row could also belong elsewhere;
        * routing — given ``routed``, each of its rows is the hash
          histogram of one sender's rows (consecutive in ``table``);
        * the cut — given ``probe_keys``, the input is only the rows
          whose key one of them equals, and the parts hold their keys.
        """
        self.counts["hash_partition"] += 1
        keys = table.column(key)
        if routed is not None and not np.array_equal(routed, [
                np.bincount(sender, minlength=num_partitions)
                for sender in np.split(hash_fn(keys, num_partitions),
                                       np.cumsum(np.sum(routed, 1))[:-1])]):
            raise InvariantViolation(
                "routed matrix broken: it is not the agreed-hash "
                f"histogram of each sender's {key!r} rows")
        if probe_keys is not None:
            # As Python ints: numpy's isin over mixed signed / unsigned
            # 64-bit keys can match values that differ.
            keys = keys[np.isin(keys.astype(object),
                                np.asarray(probe_keys).astype(object))]
        _check_complete("", keys.size, key, parts, num_partitions)
        if probe_keys is not None:
            delivered = np.concatenate(
                [keys[:0]] + [part.column(key) for part in parts])
            if not np.array_equal(np.sort(keys), np.sort(delivered)):
                raise InvariantViolation(
                    f"partition cut broken on key {key!r}: the parts do "
                    "not hold the keys of the rows a probe can reach")
        for index, part in enumerate(parts):
            if part.num_rows == 0:
                continue
            hashed = hash_fn(part.column(key), num_partitions)
            wrong = np.flatnonzero(hashed != index)
            if wrong.size:
                key_value = part.column(key)[wrong[0]]
                raise InvariantViolation(
                    f"partition disjointness broken: row with {key}="
                    f"{key_value!r} landed in partition {index} but hashes "
                    f"to {int(hashed[wrong[0]])}"
                )

    def check_hybrid_partition(self, table, key: str, parts: Sequence,
                               num_partitions: int, hash_fn,
                               hot_keys: np.ndarray,
                               fanouts: Optional[np.ndarray] = None
                               ) -> None:
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
        self.counts["hybrid_partition"] += 1
        _check_complete("hybrid ", table.num_rows, key, parts,
                        num_partitions)
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
                raise InvariantViolation(
                    f"hybrid partition disjointness broken: cold row with "
                    f"{key}={keys[wrong[0]]!r} landed in partition {index} "
                    f"but hashes to {int(routed[wrong[0]])}"
                )
            for hot_key in np.unique(keys[hot_mask]):
                if index not in allowed[int(hot_key)]:
                    raise InvariantViolation(
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
            raise InvariantViolation(
                f"hybrid partition hot conservation broken on key {key!r}: "
                "spread hot rows do not match the input multiset"
            )

    def check_broadcast_routing(self, t_parts, key: str, per_destination,
                                num_destinations: int, hash_fn,
                                hot_keys: np.ndarray,
                                fanouts: Optional[np.ndarray] = None
                                ) -> None:
        """Probe-side (T′) routing of a hybrid shuffle.

        Every destination must hold its agreed-hash share of the cold rows,
        plus — for each hot key whose bounded destination set contains it —
        exactly one copy of every input row of that key, and *zero* rows of
        hot keys whose set does not contain it.  Together with the L-side
        spread (:meth:`check_hybrid_partition`) this guarantees each hot
        (l, t) pair is produced exactly once.
        """
        self.counts["broadcast_routing"] += 1
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
                    raise InvariantViolation(
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
                    raise InvariantViolation(
                        f"broadcast routing broken: cold row with {key}="
                        f"{cold[wrong[0]]!r} arrived at destination "
                        f"{destination} but hashes to {int(routed[wrong[0]])}"
                    )
        if cold_seen != cold_input.size:
            raise InvariantViolation(
                f"broadcast routing lost cold rows: {cold_input.size} input "
                f"cold rows became {cold_seen} delivered rows"
            )

    def check_spill_fragments(self, build, probe, build_key: str,
                              probe_key: str, fragments,
                              num_fragments: int, hash_fn) -> None:
        """Grace-hash round trip: no rows lost, fragments co-aligned.

        Both inputs must reappear in full across the fragments, and every
        fragment's rows (both sides) must hash to that fragment — which is
        exactly what guarantees the fragment-wise join equals the in-memory
        join.
        """
        self.counts["spill_fragments"] += 1
        build_total = sum(pair[0].num_rows for pair in fragments)
        probe_total = sum(pair[1].num_rows for pair in fragments)
        if build_total != build.num_rows or probe_total != probe.num_rows:
            raise InvariantViolation(
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
                    raise InvariantViolation(
                        f"spill fragment misalignment: {side} row with "
                        f"{key}={fragment.column(key)[wrong[0]]!r} sits in "
                        f"fragment {index} but hashes to "
                        f"{int(routed[wrong[0]])}"
                    )
