"""The reusable build side of the local equi-join.

Every distributed algorithm in the paper ends with each worker joining
its build-side rows against probe fragments.  A :class:`JoinBuildIndex`
performs the O(n log n) sort of the build keys once and then answers
any number of probes in O(p log n) each.

One index serves every worker of a query at once: with ``slot_bounds``
the build side is the concatenation of several slots (one worker's
rows, one spill fragment, one stolen fragment), the slot is the most
significant field of the sorted word, and a probe row only matches
build rows of the slot it names.  So one sort and one search replace a
per-worker loop whose ≈ 20 numpy calls per worker cost more than the
join itself once fragments are small.  The service plane additionally
caches indexes across queries that share a normalised build side (see
:class:`repro.service.cache.CachingJoinIndexProvider`).

The probe is a stable sort order + double ``searchsorted``, so match
pairs come back probe-major, build positions in sorted-key occurrence
order within one probe row.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def _key_offsets(keys: np.ndarray, low: int) -> np.ndarray:
    """``keys - low`` as a fresh int64 array: exact wherever the true
    offset is below 2**63, uint64 keys above 2**63 included (their
    offsets fit int64 even where the keys do not)."""
    if keys.dtype == np.uint64:
        return (keys - np.uint64(low)).astype(np.int64)
    offsets = keys.astype(np.int64)
    offsets -= low
    return offsets


def _slot_bases(slot_bounds: np.ndarray, span: int) -> np.ndarray:
    """``slot · span`` for every row, from the slots' row bounds."""
    bases = np.arange(len(slot_bounds) - 1, dtype=np.int64)
    bases *= span
    return np.repeat(bases, np.diff(slot_bounds))


def _slot_bounds(slot_bounds, count: int) -> Optional[np.ndarray]:
    """``slot_bounds`` as int64, or ``None`` for a single slot."""
    if slot_bounds is None or len(slot_bounds) <= 2:
        return None
    bounds = np.asarray(slot_bounds, dtype=np.int64)
    if bounds[0] != 0 or bounds[-1] != count or np.any(np.diff(bounds) < 0):
        raise ValueError("slot bounds must rise from 0 to the build size")
    return bounds


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` as int64, by the fastest route.

    Integer keys are packed with their positions into one int64 word
    each — ``(key - min) << shift | position`` — and the words are
    *value*-sorted, which numpy does several times faster than an
    indirect stable sort.  The position in the low bits makes every
    word distinct, so there are no ties for the unstable sort to
    reorder: equal keys come out in ascending position, which is the
    stable order.  Keys the packing cannot hold — non-integers, or a
    key span plus a position that need more than 63 bits — take the
    stable argsort itself.
    """
    count = len(keys)
    if count and keys.dtype.kind in "iu":
        low = int(keys.min())
        shift = (count - 1).bit_length()
        if (int(keys.max()) - low).bit_length() + shift <= 63:
            words = _key_offsets(keys, low)
            words <<= shift
            words |= np.arange(count, dtype=np.int64)
            words.sort()
            words &= (1 << shift) - 1
            return words
    return np.argsort(keys, kind="stable").astype(np.int64, copy=False)


def span_offsets(keys: np.ndarray, low) -> np.ndarray:
    """``keys - low`` (``low`` a scalar of the keys' dtype, every key in
    a span from it) in the keys' dtype, read as unsigned (8-byte keys as
    int64): exact, as every true offset is below the span."""
    offsets = keys - low
    return offsets.view(np.int64 if offsets.itemsize == 8
                        else f"u{offsets.itemsize}")


def key_presence(probe_keys: np.ndarray, low, span: int) -> np.ndarray:
    """Which of the ``span`` values from ``low`` (as above) some integer
    probe key equals."""
    inside = probe_keys[(probe_keys >= int(low))
                        & (probe_keys < int(low) + span)]
    present = np.zeros(span, dtype=bool)
    present[span_offsets(inside.astype(low.dtype), low)] = True
    return present


def reachable_rows(build_keys: np.ndarray, probe_keys: np.ndarray
                   ) -> Optional[np.ndarray]:
    """The build rows, ascending, whose key some probe key equals, or
    ``None`` (index every row) unless both sides have rows, the keys
    are integers, the build keys span at most one value per row and at
    most half the rows are reachable (:func:`key_presence` over the
    build keys' span)."""
    count = len(build_keys)
    if not (count and probe_keys.size and build_keys.dtype.kind in "iu"
            and probe_keys.dtype.kind in "iu"):
        return None
    low = build_keys.min()
    span = int(build_keys.max()) - int(low) + 1
    if span > count:
        return None
    hit = key_presence(probe_keys, low, span).take(
        span_offsets(build_keys, low))
    if 2 * np.count_nonzero(hit) > count:
        return None
    return np.flatnonzero(hit)


def fits_band(keys: np.ndarray, band_values: np.ndarray) -> bool:
    """Whether one join side's columns suit a banded index: integer
    keys that convert to int64 exactly and integer band values of at
    most 32 bits (so a difference of two values, and any band bound
    clamped to ``_BOUND_CLAMP``, is exact in int64)."""
    key_kind, key_size = keys.dtype.kind, keys.dtype.itemsize
    return ((key_kind == "i" or (key_kind == "u" and key_size < 8))
            and band_values.dtype.kind in "iu"
            and band_values.dtype.itemsize <= 4)


# |probe - build| < 2**33 for 32-bit band values, so a bound past this
# admits (or excludes) every pair exactly as the unclamped one does.
_BOUND_CLAMP = 1 << 34


def _empty_pairs() -> Tuple[np.ndarray, np.ndarray]:
    empty = np.empty(0, dtype=np.int64)
    return empty, empty


def _expand_ranges(lo: np.ndarray, counts: np.ndarray, total: int
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """``(sorted positions, probe rows)`` of the ranges
    ``[lo[p], lo[p] + counts[p])``, probe-major."""
    probe_idx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    # Pair j of probe row p reads sorted position lo[p] + (j -
    # starts[p]): repeat the per-row constant, add the running j.
    starts = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    positions = np.repeat(lo - starts, counts)
    positions += np.arange(total, dtype=np.int64)
    return positions, probe_idx


class JoinBuildIndex:
    """Sorted join keys plus the permutation back to build-row order.

    Parameters
    ----------
    build_keys:
        The build side's join-key column.  The array is retained (by
        reference) so cached indexes can be validated against a fresh
        build side with :meth:`matches` before reuse.
    band_values:
        Optionally, the build side's column of an integer band
        (:class:`repro.relational.expressions.Band`).  When keys and
        values pass :func:`fits_band` and the packing below fits 63
        bits, the index is *banded*: it sorts the word
        ``((slot·keyspan + key - kmin) << b_d | (value - vmin)) << b_p |
        position``, so one slot's key's rows lie in value order and a
        probe can cut out exactly the rows inside a band (:meth:`probe`
        with ``band``).  Otherwise the index is keyed on ``build_keys``
        alone.
    slot_bounds:
        Optionally, the row bounds of the slots the build side
        concatenates (``slot_bounds[s]:slot_bounds[s + 1]`` are slot
        *s*'s rows; one slot is the same as none).  A key-only index
        then sorts the words ``slot·keyspan + key - kmin`` when they fit
        int64, and ``slot·D + rank`` (the key's rank among the ``D``
        distinct build keys) otherwise — one stable sort over (slot,
        key) for any key dtype, packed with the positions as integer
        keys are whenever that fits 63 bits.
    """

    __slots__ = ("keys", "band_values", "slot_bounds", "order",
                 "sorted_keys", "banded", "_key_low", "_key_high",
                 "_key_span", "_distinct", "_value_low", "_value_bits",
                 "_position_bits")

    def __init__(self, build_keys: np.ndarray,
                 band_values: Optional[np.ndarray] = None,
                 slot_bounds: Optional[np.ndarray] = None):
        self.keys = np.asarray(build_keys)
        self.band_values = (None if band_values is None
                            else np.asarray(band_values))
        self.slot_bounds = _slot_bounds(slot_bounds, len(self.keys))
        self._distinct = None
        self.banded = (self.band_values is not None
                       and self._build_banded())
        if not self.banded:
            words = (self.keys if self.slot_bounds is None
                     else self._slot_words())
            self.order = _stable_order(words)
            self.sorted_keys = words.take(self.order)

    def _slot_words(self) -> np.ndarray:
        """The (slot, key) words a slotted key-only index sorts."""
        keys, bounds = self.keys, self.slot_bounds
        if keys.size and keys.dtype.kind in "iu":
            low, high = int(keys.min()), int(keys.max())
            span = high - low + 1
            if ((len(bounds) - 1) * span - 1).bit_length() <= 63:
                self._key_low, self._key_high = low, high
                self._key_span = span
                words = _key_offsets(keys, low)
                words += _slot_bases(bounds, span)
                return words
        # Keys the offsets cannot hold are ranked among the distinct
        # build keys instead; the rank keeps their order.
        self._distinct, ranks = np.unique(keys, return_inverse=True)
        self._key_span = max(len(self._distinct), 1)
        words = ranks.astype(np.int64)
        words += _slot_bases(bounds, self._key_span)
        return words

    def _build_banded(self) -> bool:
        """Sort the composite words; False (nothing set) when the keys
        or values cannot be packed."""
        keys, values = self.keys, self.band_values
        count = len(keys)
        if not (count and fits_band(keys, values)):
            return False
        key_low, key_high = int(keys.min()), int(keys.max())
        key_span = key_high - key_low + 1
        num_slots = (1 if self.slot_bounds is None
                     else len(self.slot_bounds) - 1)
        value_low = int(values.min())
        key_bits = (num_slots * key_span - 1).bit_length()
        value_bits = (int(values.max()) - value_low).bit_length()
        # At least one position bit keeps the probe's largest target,
        # one past the top word, inside int64.
        position_bits = max((count - 1).bit_length(), 1)
        if key_bits + value_bits + position_bits > 63:
            return False
        words = keys.astype(np.int64)
        words -= key_low
        if self.slot_bounds is not None:
            words += _slot_bases(self.slot_bounds, key_span)
        words <<= value_bits
        value_offsets = values.astype(np.int64)
        value_offsets -= value_low
        words |= value_offsets
        del value_offsets
        words <<= position_bits
        words |= np.arange(count, dtype=np.int64)
        words.sort()
        self.order = words & ((1 << position_bits) - 1)
        # The sorted (slot, key, value) words without the position:
        # what a band probe searches.
        words >>= position_bits
        self.sorted_keys = words
        self._key_low, self._key_high = key_low, key_high
        self._key_span = key_span
        self._value_low, self._value_bits = value_low, value_bits
        self._position_bits = position_bits
        return True

    @property
    def num_keys(self) -> int:
        """Number of build rows indexed."""
        return len(self.keys)

    def matches(self, build_keys: np.ndarray,
                band_values: Optional[np.ndarray] = None,
                slot_bounds: Optional[np.ndarray] = None) -> bool:
        """Whether this index was built over exactly ``build_keys``,
        ``band_values`` (a key-only index never serves a band request,
        nor the reverse) and ``slot_bounds`` (equal keys split into
        slots differently are another index).

        Identity is checked first (the common case for a per-query
        reuse); otherwise an O(n) element compare guards cached reuse
        across queries — still far cheaper than the O(n log n) rebuild.
        """
        return (_same_array(np.asarray(build_keys), self.keys)
                and _same_array(band_values, self.band_values)
                and _same_array(_slot_bounds(slot_bounds, len(self.keys)),
                                self.slot_bounds))

    def probe(self, probe_keys: np.ndarray,
              band: Optional[Tuple[np.ndarray, int, int]] = None,
              slots: Optional[np.ndarray] = None,
              ordered: bool = True):
        """All matching (build_row, probe_row) pairs for an equi-join.

        Duplicate keys multiply out exactly as SQL requires; the pairs
        come back probe-major, build positions ascending within one
        probe row.  A slotted index takes ``slots``, each probe row's
        slot, and matches a row only with build rows of that slot.

        A banded index takes ``band=(probe_values, low, high)`` instead
        and returns ``(build_idx, probe_idx, key_pairs)``: only the key
        matches with ``low <= probe_value - build_value <= high``, in the
        same order, plus the number of key matches before the band.
        With ``ordered=False`` the band pairs of one probe row stay in
        build-value order; only a consumer whose result depends on the
        order (a float sum) needs the restoring sort.
        """
        probe_keys = np.asarray(probe_keys)
        if self.banded != (band is not None):
            raise ValueError(
                "a band probe needs a banded index, and a banded index "
                "a band probe")
        if (self.slot_bounds is None) != (slots is None):
            raise ValueError(
                "a slotted index needs probe slots, and probe slots a "
                "slotted index")
        if band is not None:
            return self._probe_band(probe_keys, *band, slots, ordered)
        if self.num_keys == 0 or probe_keys.size == 0:
            return _empty_pairs()
        first = last = probe_keys
        if slots is not None:
            first, last = self._slot_targets(probe_keys, slots)
        lo = np.searchsorted(self.sorted_keys, first, side="left")
        hi = np.searchsorted(self.sorted_keys, last, side="right")
        counts = (hi - lo).astype(np.int64)
        total = int(counts.sum())
        if total == 0:
            return _empty_pairs()
        positions, probe_idx = _expand_ranges(lo, counts, total)
        return self.order.take(positions), probe_idx

    def _slot_targets(self, probe_keys: np.ndarray, slots: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """The first and last (slot, key) word each probe row matches;
        a row that matches nothing gets a range no word lies in."""
        base = np.asarray(slots, dtype=np.int64) * self._key_span
        probe_dtype = probe_keys.dtype
        if (self._distinct is None and probe_dtype.kind in "iu"
                and (probe_dtype == np.uint64)
                == (self.keys.dtype == np.uint64)):
            low, high = self._key_low, self._key_high
            if probe_dtype == np.uint64:
                inside = ((probe_keys >= np.uint64(low))
                          & (probe_keys <= np.uint64(high)))
                words = _key_offsets(probe_keys, low)
            else:
                words = probe_keys.astype(np.int64)
                inside = (words >= low) & (words <= high)
                words -= low
            words += base
            words[~inside] = -1
            return words, words
        # Any other probe dtype finds its keys among the distinct build
        # keys with the same ``searchsorted`` comparison an unslotted
        # index makes, then reads their words.
        if self._distinct is None:
            distinct = np.unique(self.keys)
            domain = _key_offsets(distinct, self._key_low)
        else:
            distinct = self._distinct
            domain = np.arange(len(distinct), dtype=np.int64)
        lo = np.searchsorted(distinct, probe_keys, side="left")
        hi = np.searchsorted(distinct, probe_keys, side="right")
        found = hi > lo
        first = base + domain.take(np.minimum(lo, len(distinct) - 1))
        last = base + domain.take(np.maximum(hi - 1, 0))
        first[~found] = 0
        last[~found] = -1
        return first, last

    def _probe_band(self, probe_keys: np.ndarray,
                    probe_values: np.ndarray, low: int, high: int,
                    slots: Optional[np.ndarray] = None,
                    ordered: bool = True):
        """Cut each probe row's band out of the sorted (slot, key,
        value) words: the ranges *are* the in-band pairs, no key match
        outside them is ever produced."""
        if probe_keys.size == 0:
            return _empty_pairs() + (0,)
        if not fits_band(probe_keys, probe_values):
            raise ValueError("a band probe needs integer keys and "
                             "integer band values of at most 32 bits")
        key_offsets = probe_keys.astype(np.int64)
        in_range = ((key_offsets >= self._key_low)
                    & (key_offsets <= self._key_high))
        key_offsets -= self._key_low
        if slots is not None:
            key_offsets += np.asarray(slots, dtype=np.int64) \
                * self._key_span
        # The build values v inside the band satisfy
        # value_offset - high <= v - vmin <= value_offset - low.
        low = min(max(int(low), -_BOUND_CLAMP), _BOUND_CLAMP)
        high = min(max(int(high), -_BOUND_CLAMP), _BOUND_CLAMP)
        value_bits = self._value_bits
        value_span = (1 << value_bits) - 1
        value_offsets = probe_values.astype(np.int64) - self._value_low
        base = key_offsets << value_bits
        # One search for four cuts per probe row: the key's first word,
        # the band's first and one-past-last words, the next key's first
        # word.  Every in-range target stays below 2**62; rows whose key
        # lies outside the build's range get empty cuts.
        cuts = np.searchsorted(self.sorted_keys, np.concatenate((
            base,
            base + np.clip(value_offsets - high, 0, value_span + 1),
            base + np.clip(value_offsets - low + 1, 0, value_span + 1),
            base + (1 << value_bits),
        ))).reshape(4, -1)
        cuts[:, ~in_range] = 0
        key_pairs = int((cuts[3] - cuts[0]).sum())
        lo = cuts[1]
        counts = np.maximum(cuts[2] - lo, 0)
        total = int(counts.sum())
        if total == 0:
            return _empty_pairs() + (key_pairs,)
        positions, probe_idx = _expand_ranges(lo, counts, total)
        build_idx = self.order.take(positions)
        if not ordered:
            return build_idx, probe_idx, key_pairs
        # Within a probe row the pairs came out in value order; one
        # packed sort restores build-position order, the order a
        # key-only probe (and so every float SUM) sees.
        position_bits = self._position_bits
        if (len(probe_keys) - 1).bit_length() + position_bits <= 63:
            words = probe_idx << position_bits
            words |= build_idx
            words.sort()
            build_idx = words & ((1 << position_bits) - 1)
            probe_idx = words >> position_bits
        else:
            restore = np.lexsort((build_idx, probe_idx))
            build_idx = build_idx.take(restore)
            probe_idx = probe_idx.take(restore)
        return build_idx, probe_idx, key_pairs

    def __repr__(self) -> str:
        band = ", banded" if self.banded else ""
        slots = (f", slots={len(self.slot_bounds) - 1}"
                 if self.slot_bounds is not None else "")
        return f"JoinBuildIndex(keys={self.num_keys}{band}{slots})"


def _same_array(given: Optional[np.ndarray],
                held: Optional[np.ndarray]) -> bool:
    """Identity first, then shape + element equality; None only
    matches None."""
    if given is None or held is None:
        return given is held
    given = np.asarray(given)
    if given is held:
        return True
    if given.shape != held.shape:
        return False
    return bool(np.array_equal(given, held))


def probe_join(build_keys: np.ndarray, probe_keys: np.ndarray,
               build_index: Optional[JoinBuildIndex] = None,
               ) -> Tuple[np.ndarray, np.ndarray]:
    """Equi-join index pairs, reusing ``build_index`` when one is given.

    Without an index this is a one-shot build + probe; with one, the
    build-side sort is skipped entirely.  A supplied index must cover
    exactly ``build_keys`` (cheaply verified), falling back to a fresh
    build on mismatch rather than returning wrong pairs.
    """
    if build_index is not None and build_index.matches(build_keys):
        return build_index.probe(probe_keys)
    return JoinBuildIndex(build_keys).probe(probe_keys)
