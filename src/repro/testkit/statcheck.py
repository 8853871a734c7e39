"""The statistical oracle contract for the approximate tier.

An approximate join's promise is not a value but a *rate*: across many
seeded runs at confidence ``c``, the exact answer (from
:mod:`repro.testkit.oracle`) must fall inside the reported interval in
at least a fraction ``c`` of trials.  One trial is one
``(seed, group, aggregate)`` interval; a group the sample never saw
counts as a miss (the estimator reported "no such group", which the
exact answer refutes).

Checking a rate with a finite number of trials needs its own
statistics, otherwise the test suite is flaky by construction.  The
acceptance rule is a **binomial lower confidence bound**: the battery
passes when the Wilson score lower bound of the observed coverage rate
is at least ``min_lower_bound`` (the ISSUE's 0.90 against a stated 0.95
coverage).  Because the bound concedes sampling noise, a correctly
calibrated estimator fails only when the observed rate is improbably
far below its true coverage — :func:`CoverageVerdict.
false_failure_probability` reports exactly how improbable, computed
from the exact binomial tail (pure ``math.lgamma``, no scipy), so the
suite is deterministic-in-expectation with a known false-failure rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

#: Two-sided normal critical values for the Wilson score interval.
_Z_TABLE = {0.90: 1.645, 0.95: 1.960, 0.99: 2.576}


def wilson_lower_bound(hits: int, trials: int,
                       z_confidence: float = 0.95) -> float:
    """Wilson score lower confidence bound on a binomial proportion.

    Preferred over the normal approximation because it never leaves
    [0, 1] and behaves at rates near 1 — exactly where coverage checks
    live.
    """
    if trials <= 0:
        return 0.0
    try:
        z = _Z_TABLE[z_confidence]
    except KeyError:
        raise ValueError(
            f"z_confidence must be one of {sorted(_Z_TABLE)}"
        ) from None
    rate = hits / trials
    denominator = 1.0 + z * z / trials
    centre = rate + z * z / (2.0 * trials)
    margin = z * math.sqrt(
        rate * (1.0 - rate) / trials + z * z / (4.0 * trials * trials)
    )
    return max(0.0, (centre - margin) / denominator)


def _log_binomial_pmf(k: int, n: int, p: float) -> float:
    log_choose = (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    )
    return (
        log_choose
        + k * math.log(p)
        + (n - k) * math.log1p(-p)
    )


def binomial_cdf(k: int, n: int, p: float) -> float:
    """Exact P[X <= k] for X ~ Binomial(n, p), via log-space summation."""
    if k < 0:
        return 0.0
    if k >= n:
        return 1.0
    if p <= 0.0:
        return 1.0
    if p >= 1.0:
        return 0.0
    total = 0.0
    for i in range(k + 1):
        total += math.exp(_log_binomial_pmf(i, n, p))
    return min(1.0, total)


@dataclass(frozen=True)
class CoverageVerdict:
    """The outcome of one coverage battery."""

    trials: int
    hits: int
    #: The coverage rate the estimator *stated* (its confidence level).
    stated_coverage: float
    #: Acceptance threshold on the Wilson lower bound.
    min_lower_bound: float
    observed_rate: float
    lower_bound: float
    passed: bool
    #: P[battery fails | true coverage == stated_coverage] — the known
    #: false-failure probability of this exact acceptance rule at this
    #: trial count.
    false_failure_probability: float

    def describe(self) -> str:
        return (
            f"coverage {self.hits}/{self.trials} = "
            f"{self.observed_rate:.4f} (stated {self.stated_coverage}), "
            f"Wilson lower bound {self.lower_bound:.4f} vs required "
            f"{self.min_lower_bound} -> "
            f"{'PASS' if self.passed else 'FAIL'} "
            f"(false-failure p = {self.false_failure_probability:.2e})"
        )


def check_coverage(hits: int, trials: int, stated_coverage: float,
                   min_lower_bound: float = 0.90,
                   z_confidence: float = 0.95) -> CoverageVerdict:
    """Apply the binomial acceptance rule to a battery's tally.

    The rule: pass iff ``wilson_lower_bound(hits, trials) >=
    min_lower_bound``.  The verdict carries the rule's exact
    false-failure probability — the binomial tail mass of all tallies
    that would fail, assuming the estimator truly covers at
    ``stated_coverage``.
    """
    if trials <= 0:
        raise ValueError("coverage check needs at least one trial")
    lower = wilson_lower_bound(hits, trials, z_confidence)
    passed = lower >= min_lower_bound

    # Largest hit count that still fails the rule; everything at or
    # below it is the false-failure region under the stated coverage.
    failing = -1
    for k in range(trials, -1, -1):
        if wilson_lower_bound(k, trials, z_confidence) < min_lower_bound:
            failing = k
            break
    false_failure = binomial_cdf(failing, trials, stated_coverage)
    return CoverageVerdict(
        trials=trials,
        hits=hits,
        stated_coverage=stated_coverage,
        min_lower_bound=min_lower_bound,
        observed_rate=hits / trials,
        lower_bound=lower,
        passed=passed,
        false_failure_probability=false_failure,
    )


class CoverageTracker:
    """Tallies interval-contains-truth trials across seeded runs."""

    def __init__(self, stated_coverage: float):
        self.stated_coverage = stated_coverage
        self.trials = 0
        self.hits = 0
        self.misses: list = []

    def record(self, hit: bool, context=None) -> None:
        self.trials += 1
        if hit:
            self.hits += 1
        elif context is not None and len(self.misses) < 20:
            self.misses.append(context)

    def record_cells(self, cells: Dict[Tuple[Tuple, str], "object"],
                     exact_cells: Dict[Tuple[Tuple, str], float],
                     supported: Optional[Iterable[str]] = None) -> None:
        """One run's trials: every supported exact cell vs its interval.

        ``cells`` maps ``(group, aggregate_name)`` to objects with a
        ``contains(value)`` method (:class:`repro.approx.estimator.
        CellEstimate`); ``exact_cells`` is the oracle's map of true
        values.  Exact cells with no reported interval are misses.
        """
        supported_set = set(supported) if supported is not None else None
        for key, truth in exact_cells.items():
            if supported_set is not None and key[1] not in supported_set:
                continue
            cell = cells.get(key)
            if cell is None:
                self.record(False, context=("missing-group", key, truth))
            else:
                self.record(
                    cell.lower <= truth <= cell.upper,
                    context=(key, truth, cell.lower, cell.upper),
                )

    def verdict(self, min_lower_bound: float = 0.90,
                z_confidence: float = 0.95) -> CoverageVerdict:
        return check_coverage(
            self.hits, self.trials, self.stated_coverage,
            min_lower_bound=min_lower_bound, z_confidence=z_confidence,
        )
