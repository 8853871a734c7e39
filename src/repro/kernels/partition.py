"""Single-pass hash partitioning.

The naive formulation used everywhere before this kernel existed —
``[table.filter(assignments == d) for d in range(p)]`` — scans the full
assignment array once *per destination*: O(n·p) work, which at the
paper's 30-worker shuffles means 30 full-table boolean filters plus 30
gathers.  The kernel computes destination assignments once, stable-sorts
the row indices by destination (O(n log n)), gathers the table a single
time in destination order, and hands out per-destination **zero-copy
slices** of that one gather.

Stability of the sort preserves original row order within each
destination, so the output tables are bit-identical to the naive
per-destination filters.  Rows whose assignment falls outside
``[0, num_partitions)`` are dropped, exactly as the naive masks drop
them.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np


def sorted_bounds(assignments: np.ndarray, num_partitions: int
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Stable destination order plus per-destination slice bounds.

    ``bounds[d]:bounds[d + 1]`` indexes destination ``d``'s rows inside
    ``order``.

    When every assignment is in range and the destination count fits 16
    bits — every shuffle and repartition in this codebase — the sort
    runs as a radix sort on a narrowed uint8/uint16 copy (numpy's
    stable sort is radix for small integer dtypes, several times faster
    than comparison-sorting int64; one byte beats two; assignments that
    arrive narrow are not copied).  Otherwise the original values are
    comparison-sorted; out-of-range assignments then sort before
    ``bounds[0]`` (negatives) or after ``bounds[-1]``
    (>= num_partitions) and are thereby excluded without a separate
    masking pass.

    Either way the bounds are read off the sorted keys, in the keys'
    own dtype, so the only row-count-sized index array is ``order``.
    """
    in_range = False
    if num_partitions <= np.iinfo(np.uint16).max and assignments.size:
        low = int(assignments.min())
        high = int(assignments.max())
        in_range = low >= 0 and high < num_partitions
    if not in_range:
        order = np.argsort(assignments, kind="stable").astype(
            np.int64, copy=False)
        edges = np.arange(num_partitions + 1, dtype=assignments.dtype)
        return order, np.searchsorted(assignments[order], edges,
                                      side="left")
    narrow = np.uint8 if num_partitions <= 256 else np.uint16
    keys = assignments.astype(narrow, copy=False)
    order = np.argsort(keys, kind="stable").astype(np.int64, copy=False)
    # The outer bounds are the ends, and the inner edges
    # 1 .. num_partitions - 1 fit the narrow dtype.
    edges = np.arange(1, num_partitions, dtype=narrow)
    inner = np.searchsorted(keys.take(order), edges, side="left")
    return order, np.concatenate(([0], inner, [keys.size]))


def partition_table(table, assignments: np.ndarray,
                    num_partitions: int, rows=None) -> List:
    """Split ``table`` into per-destination tables in one pass.

    One stable argsort plus one full-table gather; each returned table
    is a zero-copy row-range view of the gathered table, so downstream
    re-slicing (shuffle concatenation, spill fragmenting) copies no
    partition twice.  Bit-identical to filtering per destination.
    ``rows`` (ascending) limits the split to those rows of ``table``.
    """
    assignments = np.asarray(assignments)
    count = table.num_rows if rows is None else len(rows)
    if len(assignments) != count:
        raise ValueError(
            f"assignments length {len(assignments)} != table rows "
            f"{count}"
        )
    if count == 0:
        empty = table.slice(0, 0)
        return [empty] * num_partitions
    order, bounds = sorted_bounds(assignments, num_partitions)
    in_order = table.take(order if rows is None else rows.take(order))
    return [
        in_order.slice(int(bounds[partition]), int(bounds[partition + 1]))
        for partition in range(num_partitions)
    ]
