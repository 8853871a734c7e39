"""Synthetic T and L tables with controlled selectivities.

The paper's trick (Section 5): each table's local predicate is a
conjunction over two columns — ``corPred``, *correlated* with the join
key, and ``indPred``, independent of it — so the experimenters can vary
the join-key selectivities S_T′/S_L′ while holding the combined tuple
selectivities σ_T/σ_L fixed, and vice versa.

We reproduce that construction exactly:

1. The join-key universe ``[0, n_keys)`` is carved into four regions —
   keys that survive both tables' predicates (the *overlap*), keys in
   T′ only, keys in L′ only, and the rest::

       [0 ... o)           overlap   (JK(T') ∩ JK(L'))
       [o ... kt)          T'-only
       [kt ... kt+kl-o)    L'-only
       [kt+kl-o ... n)     neither

   where ``kt = |JK(T')|``, ``kl = |JK(L')|`` and the sizes are solved
   from the requested selectivities (``o = S_T'*kt = S_L'*kl``).

2. Each table maps keys through a piecewise *rank* permutation putting
   its surviving keys first, and draws ``corPred`` from the key's rank —
   so ``corPred <= a`` selects exactly that table's surviving key
   region.  ``indPred`` is drawn independently and thresholded to make
   the *combined* tuple selectivity come out at σ.

Row values are uniform, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.relational.table import Table

#: Domain of the independent predicate column.
IND_DOMAIN = 1_000_000
#: Number of days the date columns span; the paper's post-join predicate
#: (within one day) then has selectivity about 2/DATE_DOMAIN.
DATE_DOMAIN = 30


@dataclass(frozen=True)
class WorkloadSpec:
    """Requested shape of one synthetic workload.

    ``s_t``/``s_l`` are the join-key selectivities S_T′/S_L′.  At least
    one must be given; a missing one is derived by fixing the other
    table's correlated-key region to exactly its σ (full correlation).
    """

    sigma_t: float
    sigma_l: float
    s_t: Optional[float] = None
    s_l: Optional[float] = None
    t_rows: int = 160_000
    l_rows: int = 1_500_000
    n_keys: int = 1_600
    n_urls: int = 400
    seed: int = 42
    #: Zipf exponent for the join-key popularity distribution.  0 (the
    #: paper's setting) draws keys uniformly; larger values concentrate
    #: rows on few keys, the robustness extension studied by the
    #: ``ext_skew`` experiment.
    key_skew: float = 0.0

    def __post_init__(self):
        for label, value in (("sigma_t", self.sigma_t),
                             ("sigma_l", self.sigma_l)):
            if not 0.0 < value <= 1.0:
                raise WorkloadError(f"{label} must be in (0, 1], got {value}")
        for label, value in (("s_t", self.s_t), ("s_l", self.s_l)):
            if value is not None and not 0.0 < value <= 1.0:
                raise WorkloadError(f"{label} must be in (0, 1], got {value}")
        if self.s_t is None and self.s_l is None:
            raise WorkloadError("at least one of s_t / s_l must be given")
        if min(self.t_rows, self.l_rows, self.n_keys) <= 0:
            raise WorkloadError("row and key counts must be positive")
        if self.key_skew < 0:
            raise WorkloadError("key_skew must be non-negative")


@dataclass(frozen=True)
class KeyLayout:
    """Solved key-region sizes for a spec.

    ``clamped`` marks specs that are *mathematically* infeasible with
    exact disjoint key regions (e.g. the paper's Fig. 9b point σ_T=0.1,
    σ_L=0.4, S_T′=0.2, S_L′=0.4 needs |JK(T')∪JK(L')| = 1.04·n_keys) and
    were approximated by shrinking the overlap to the boundary; the
    achieved σ values then land slightly below the request, just as the
    paper's own measured selectivities are approximate.
    """

    n_keys: int
    kt: int        # |JK(T')|
    kl: int        # |JK(L')|
    overlap: int   # |JK(T') ∩ JK(L')|
    clamped: bool = False

    def __post_init__(self):
        if not (0 < self.overlap <= min(self.kt, self.kl)):
            raise WorkloadError(
                f"invalid layout: overlap={self.overlap}, kt={self.kt}, "
                f"kl={self.kl}"
            )
        if self.kt + self.kl - self.overlap > self.n_keys:
            raise WorkloadError(
                "key regions exceed the universe: "
                f"kt={self.kt} + kl={self.kl} - o={self.overlap} "
                f"> n={self.n_keys}"
            )


def solve_key_layout(spec: WorkloadSpec) -> KeyLayout:
    """Solve the key-region sizes from the requested selectivities.

    Raises :class:`WorkloadError` with a diagnostic when the requested
    combination is infeasible (e.g. σ_L·S_L′ too large relative to σ_T
    and the key universe).
    """
    n = spec.n_keys
    clamped = False
    if spec.s_t is not None and spec.s_l is not None:
        # o = s_t*kt = s_l*kl; kt >= sigma_t*n, kl >= sigma_l*n,
        # kt + kl - o <= n.
        o_min = max(spec.sigma_t * spec.s_t, spec.sigma_l * spec.s_l) * n
        o_max = n / (1.0 / spec.s_t + 1.0 / spec.s_l - 1.0)
        if o_min > o_max * (1 + 1e-9):
            # Mildly over-constrained combinations (the paper itself uses
            # one in Fig. 9b) are approximated at the feasibility
            # boundary; grossly infeasible requests are rejected.
            if o_min > o_max * 1.3:
                raise WorkloadError(
                    "infeasible selectivity combination: "
                    f"sigma_t={spec.sigma_t}, sigma_l={spec.sigma_l}, "
                    f"s_t={spec.s_t}, s_l={spec.s_l} (required overlap "
                    f"{o_min:.1f} > available {o_max:.1f} keys)"
                )
            clamped = True
            o_min = o_max
        # The smallest feasible overlap keeps each table's correlated key
        # region as close to sigma*n as possible, which keeps per-key row
        # multiplicities (and hence the join output) steady across sweeps.
        overlap = max(1, round(min(o_min, o_max)))
        kt = max(1, round(overlap / spec.s_t))
        kl = max(1, round(overlap / spec.s_l))
        overlap = min(overlap, kt, kl)
        if kt + kl - overlap > n:
            # Integer rounding can nudge past the boundary; pull the
            # regions back inside the universe.
            excess = kt + kl - overlap - n
            kl = max(overlap, kl - excess)
            clamped = True
    elif spec.s_l is not None:
        # Fix L's regions exactly; grow JK(T') beyond sigma_t*n if the
        # requested overlap demands it (the independent predicate column
        # absorbs the difference, keeping sigma_t intact).
        kl = max(1, round(spec.sigma_l * n))
        overlap = max(1, round(spec.s_l * kl))
        kt = max(max(1, round(spec.sigma_t * n)), overlap)
        if kt + kl - overlap > n:
            raise WorkloadError(
                f"infeasible: s_l={spec.s_l} with sigma_l={spec.sigma_l} "
                f"and sigma_t={spec.sigma_t} does not fit in "
                f"{n} join keys; reduce s_l or the sigmas"
            )
    else:
        kt = max(1, round(spec.sigma_t * n))
        overlap = max(1, round(spec.s_t * kt))
        kl = max(max(1, round(spec.sigma_l * n)), overlap)
        if kt + kl - overlap > n:
            raise WorkloadError(
                f"infeasible: s_t={spec.s_t} with sigma_t={spec.sigma_t} "
                f"and sigma_l={spec.sigma_l} does not fit in "
                f"{n} join keys; reduce s_t or the sigmas"
            )
    return KeyLayout(n_keys=n, kt=kt, kl=kl, overlap=overlap,
                     clamped=clamped)


@dataclass(frozen=True)
class PredicateThresholds:
    """The constants a/b (or c/d) of one table's local predicate."""

    cor_threshold: int
    ind_threshold: int


@dataclass
class Workload:
    """Generated tables plus everything needed to query them."""

    spec: WorkloadSpec
    layout: KeyLayout
    t_table: Table
    l_table: Table
    t_thresholds: PredicateThresholds
    l_thresholds: PredicateThresholds


def _rank_to_l(keys: np.ndarray, layout: KeyLayout) -> np.ndarray:
    """The L-side piecewise rank permutation.

    Maps overlap keys to ranks ``[0, o)``, L'-only keys to
    ``[o, kl)``, T'-only keys to ``[kl, kl + kt - o)`` and the rest
    beyond, so that ``rank < kl`` selects exactly JK(L').
    """
    kt, kl, o = layout.kt, layout.kl, layout.overlap
    ranks = np.empty(len(keys), dtype=np.int64)
    in_overlap = keys < o
    in_t_only = (keys >= o) & (keys < kt)
    in_l_only = (keys >= kt) & (keys < kt + kl - o)
    in_rest = keys >= kt + kl - o
    ranks[in_overlap] = keys[in_overlap]
    ranks[in_l_only] = o + (keys[in_l_only] - kt)
    ranks[in_t_only] = kl + (keys[in_t_only] - o)
    ranks[in_rest] = kl + (kt - o) + (keys[in_rest] - (kt + kl - o))
    return ranks


def _cor_pred_from_ranks(
    ranks: np.ndarray, n_keys: int, rng: np.random.Generator
) -> Tuple[np.ndarray, int]:
    """Correlated predicate values plus the rank→value scale."""
    scale = max(1, min(1000, (2**31 - 2) // max(n_keys, 1)))
    noise = rng.integers(0, scale, size=len(ranks))
    return (ranks * scale + noise).astype(np.int32), scale


def _thresholds(
    region_keys: int, n_keys: int, sigma: float, scale: int,
    cor_mass: Optional[float] = None,
) -> PredicateThresholds:
    """Predicate constants selecting the first ``region_keys`` ranks with
    combined tuple selectivity ``sigma``.

    ``cor_mass`` is the probability a row's key falls in the region —
    ``region_keys / n_keys`` for uniform keys, but larger/smaller under
    key skew, where it must be measured from the key distribution.
    """
    sigma_cor = cor_mass if cor_mass is not None else region_keys / n_keys
    if cor_mass is not None and sigma_cor < sigma * 0.9:
        # Integer rounding on tiny key universes can undershoot a little
        # (the achieved sigma then lands slightly low, as before); a gap
        # beyond 10% means the skew genuinely starves the region.
        raise WorkloadError(
            f"requested sigma={sigma} but the correlated key region only "
            f"carries probability mass {sigma_cor:.4f} under this key "
            "skew; reduce key_skew or sigma"
        )
    sigma_ind = min(1.0, sigma / sigma_cor)
    return PredicateThresholds(
        cor_threshold=region_keys * scale - 1,
        ind_threshold=max(0, round(sigma_ind * IND_DOMAIN) - 1),
    )


def zipf_skew_factor(key_skew: float, n_keys: int,
                     workers: int) -> float:
    """Expected hottest-worker load over the mean for Zipf(s) keys.

    Under a hash shuffle each worker owns ~``n_keys/workers`` keys; the
    worker that owns the single hottest key carries that key's whole
    probability mass ``p1`` plus its fair share of the rest, so the
    hottest-to-mean ratio is about ``workers*p1 + (1 - p1)``.  Evaluated
    at *paper-scale* key counts this is the multiplier the time plane
    applies to shuffles and hash builds (``HybridConfig.shuffle_skew``).
    """
    if key_skew <= 0 or n_keys <= 0 or workers <= 1:
        return 1.0
    ranks = np.arange(1, n_keys + 1, dtype=np.float64)
    weights = ranks ** (-key_skew)
    p1 = float(weights[0] / weights.sum())
    return workers * p1 + (1.0 - p1)


def _key_probabilities(spec: WorkloadSpec) -> Optional[np.ndarray]:
    """Zipf key-popularity vector, or None for uniform keys."""
    if spec.key_skew <= 0:
        return None
    ranks = np.arange(1, spec.n_keys + 1, dtype=np.float64)
    weights = ranks ** (-spec.key_skew)
    return weights / weights.sum()


def _draw_keys(rng, spec: WorkloadSpec, size: int,
               probabilities: Optional[np.ndarray]) -> np.ndarray:
    if probabilities is None:
        return rng.integers(0, spec.n_keys, size=size)
    return rng.choice(spec.n_keys, size=size, p=probabilities)


def generate_workload(spec: WorkloadSpec) -> Workload:
    """Generate T and L for ``spec`` (deterministic given the seed)."""
    layout = solve_key_layout(spec)
    rng = np.random.default_rng(spec.seed)
    probabilities = _key_probabilities(spec)
    from repro.workload.scenario import (
        log_schema,
        make_url_dictionary,
        transaction_schema,
    )

    # ------------------------------------------------------------- T --
    t_keys = _draw_keys(rng, spec, spec.t_rows, probabilities)
    t_ranks = t_keys.astype(np.int64)  # T's permutation is the identity.
    t_cor, t_scale = _cor_pred_from_ranks(t_ranks, spec.n_keys, rng)
    t_cor_mass = (
        float(probabilities[:layout.kt].sum())
        if probabilities is not None else None
    )
    t_thresholds = _thresholds(layout.kt, spec.n_keys, spec.sigma_t,
                               t_scale, cor_mass=t_cor_mass)
    t_columns = {
        "uniqKey": np.arange(spec.t_rows, dtype=np.int64),
        "joinKey": t_keys.astype(np.int32),
        "corPred": t_cor,
        "indPred": rng.integers(
            0, IND_DOMAIN, size=spec.t_rows
        ).astype(np.int32),
        "predAfterJoin": rng.integers(
            0, DATE_DOMAIN, size=spec.t_rows
        ).astype(np.int32),
        "dummy1": rng.integers(0, 64, size=spec.t_rows).astype(np.int32),
        "dummy2": rng.integers(0, 1 << 20, size=spec.t_rows).astype(np.int32),
        "dummy3": rng.integers(0, 86_400, size=spec.t_rows).astype(np.int32),
    }
    t_schema = transaction_schema()
    t_dictionary = np.array(
        [f"promo-code-{index:04d}-{'x' * 18}" for index in range(64)],
        dtype=object,
    )
    t_table = Table(t_schema, t_columns, {"dummy1": t_dictionary})

    # ------------------------------------------------------------- L --
    l_keys = _draw_keys(rng, spec, spec.l_rows, probabilities)
    l_ranks = _rank_to_l(l_keys.astype(np.int64), layout)
    l_cor, l_scale = _cor_pred_from_ranks(l_ranks, spec.n_keys, rng)
    if probabilities is not None:
        all_ranks = _rank_to_l(
            np.arange(spec.n_keys, dtype=np.int64), layout
        )
        l_cor_mass = float(probabilities[all_ranks < layout.kl].sum())
    else:
        l_cor_mass = None
    l_thresholds = _thresholds(layout.kl, spec.n_keys, spec.sigma_l,
                               l_scale, cor_mass=l_cor_mass)
    url_dictionary = make_url_dictionary(spec.n_urls)
    l_columns = {
        "joinKey": l_keys.astype(np.int32),
        "corPred": l_cor,
        "indPred": rng.integers(
            0, IND_DOMAIN, size=spec.l_rows
        ).astype(np.int32),
        "predAfterJoin": rng.integers(
            0, DATE_DOMAIN, size=spec.l_rows
        ).astype(np.int32),
        "groupByExtractCol": rng.integers(
            0, spec.n_urls, size=spec.l_rows
        ).astype(np.int32),
        "dummy": rng.integers(0, 16, size=spec.l_rows).astype(np.int32),
    }
    l_schema = log_schema()
    l_dummy_dictionary = np.array(
        [f"tag{index:05d}" for index in range(16)], dtype=object
    )
    l_table = Table(
        l_schema,
        l_columns,
        {
            "groupByExtractCol": url_dictionary,
            "dummy": l_dummy_dictionary,
        },
    )

    return Workload(
        spec=spec,
        layout=layout,
        t_table=t_table,
        l_table=l_table,
        t_thresholds=t_thresholds,
        l_thresholds=l_thresholds,
    )
