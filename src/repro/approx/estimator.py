"""Closed-form estimators for block-sampled join-aggregates.

The join distributes over HDFS blocks: joining T′ against each sampled
block and summing the per-block group contributions equals joining T′
against the union of those blocks.  Each sampled block therefore yields
one observation per ``(group, aggregate-component)`` cell, and the
classical simple-random-sampling-without-replacement estimators apply
with the block as the sampling unit:

* ``count`` / ``sum`` — a population *total* over the ``M`` blocks:
  ``τ̂ = M · ȳ`` with variance ``M²(1 − m/M)s²/m``.  Blocks where the
  group never appears contribute implicit zeros, which is exactly what
  the running Σ/Σ² accumulators encode.
* ``avg`` — a *ratio* of two totals (sum over count); the linearised
  ratio-estimator variance uses the per-block covariance between the
  numerator and denominator contributions, widened to the
  interval-arithmetic propagation of the two total intervals whenever
  that is wider (the linearisation under-covers for groups
  concentrated in few blocks).
* ``min`` / ``max`` — no unbiased closed form exists under block
  sampling, so the sampled extreme is folded without an interval and
  reported in ``unsupported`` (exact once every block is scanned).

Intervals use Student-t critical values from a hardcoded table (no
scipy in this environment); the tabulated confidence is rounded *up*
and the degrees of freedom *down*, so the interval is conservative.
With fewer than two observed blocks the variance is undefined and the
half-width is ``inf`` — an honest "no information yet" interval.

The ordering produced by :mod:`repro.approx.sampler` is proportionally
stratified by datanode, so these pooled SRSWOR formulas are (weakly)
conservative rather than optimistic — the stratification only removes
between-stratum variance from the true sampling error.

Empty-join behaviour deliberately mirrors :mod:`repro.testkit.oracle`:
a group never seen in any scanned block is absent from the result (the
oracle's dict-based group-by also only materialises observed groups),
and a join with no qualifying rows at all yields a zero-row table with
the full result schema.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import JoinError
from repro.query.plan import join_aggregate
from repro.query.query import HybridQuery
from repro.relational.aggregates import AggregateSpec
from repro.relational.schema import Column, DataType, Schema
from repro.relational.table import Table, table_from_rows

#: Cell identity: (group-key tuple, aggregate output name).
CellKey = Tuple[Tuple, str]

#: Alias of the per-block joined row count in the block partials.
_ROWS = "__rows"

# ----------------------------------------------------------------------
# Student-t critical values (two-sided), indexed by confidence then dof.
# dof keys must be ascending; lookups round confidence up, dof down.
# ----------------------------------------------------------------------
_T_TABLE: Dict[float, Tuple[Tuple[float, float], ...]] = {
    0.90: (
        (1, 6.314), (2, 2.920), (3, 2.353), (4, 2.132), (5, 2.015),
        (6, 1.943), (7, 1.895), (8, 1.860), (9, 1.833), (10, 1.812),
        (11, 1.796), (12, 1.782), (13, 1.771), (14, 1.761), (15, 1.753),
        (16, 1.746), (17, 1.740), (18, 1.734), (19, 1.729), (20, 1.725),
        (21, 1.721), (22, 1.717), (23, 1.714), (24, 1.711), (25, 1.708),
        (26, 1.706), (27, 1.703), (28, 1.701), (29, 1.699), (30, 1.697),
        (40, 1.684), (60, 1.671), (120, 1.658), (math.inf, 1.645),
    ),
    0.95: (
        (1, 12.706), (2, 4.303), (3, 3.182), (4, 2.776), (5, 2.571),
        (6, 2.447), (7, 2.365), (8, 2.306), (9, 2.262), (10, 2.228),
        (11, 2.201), (12, 2.179), (13, 2.160), (14, 2.145), (15, 2.131),
        (16, 2.120), (17, 2.110), (18, 2.101), (19, 2.093), (20, 2.086),
        (21, 2.080), (22, 2.074), (23, 2.069), (24, 2.064), (25, 2.060),
        (26, 2.056), (27, 2.052), (28, 2.048), (29, 2.045), (30, 2.042),
        (40, 2.021), (60, 2.000), (120, 1.980), (math.inf, 1.960),
    ),
    0.99: (
        (1, 63.657), (2, 9.925), (3, 5.841), (4, 4.604), (5, 4.032),
        (6, 3.707), (7, 3.499), (8, 3.355), (9, 3.250), (10, 3.169),
        (11, 3.106), (12, 3.055), (13, 3.012), (14, 2.977), (15, 2.947),
        (16, 2.921), (17, 2.898), (18, 2.878), (19, 2.861), (20, 2.845),
        (21, 2.831), (22, 2.819), (23, 2.807), (24, 2.797), (25, 2.787),
        (26, 2.779), (27, 2.771), (28, 2.763), (29, 2.756), (30, 2.750),
        (40, 2.704), (60, 2.660), (120, 2.617), (math.inf, 2.576),
    ),
}


def t_critical(confidence: float, dof: int) -> float:
    """Two-sided Student-t critical value, conservatively tabulated.

    The requested confidence is rounded up to the nearest tabulated
    level and ``dof`` rounded down to the nearest tabulated entry, so
    the returned quantile never understates the interval.  ``dof <= 0``
    returns ``inf``: with one observed block there is no variance
    estimate and the honest interval is unbounded.
    """
    if dof <= 0:
        return math.inf
    for level in sorted(_T_TABLE):
        if confidence <= level + 1e-12:
            rows = _T_TABLE[level]
            value = rows[0][1]
            for entry_dof, entry_value in rows:
                if entry_dof <= dof:
                    value = entry_value
                else:
                    break
            return value
    raise JoinError(
        f"confidence {confidence} above highest tabulated level "
        f"{max(_T_TABLE)}"
    )


# ----------------------------------------------------------------------
# Cell estimates
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CellEstimate:
    """One aggregate value with its confidence interval."""

    estimate: float
    #: Reported half-width (progressive mode clamps this to a running
    #: minimum so intervals refine monotonically).
    half_width: float
    #: Un-clamped half-width straight from the variance formula.
    raw_half_width: float
    exact: bool = False

    @property
    def lower(self) -> float:
        return self.estimate - self.half_width

    @property
    def upper(self) -> float:
        return self.estimate + self.half_width

    def clamped(self, previous_half_width: float) -> "CellEstimate":
        """This estimate with the half-width capped at a previous one."""
        if self.half_width <= previous_half_width:
            return self
        return CellEstimate(
            estimate=self.estimate,
            half_width=previous_half_width,
            raw_half_width=self.raw_half_width,
            exact=self.exact,
        )


@dataclass(frozen=True)
class ApproxEstimate:
    """A full query answer estimated from ``blocks_scanned`` blocks."""

    blocks_scanned: int
    blocks_total: int
    cells: Dict[CellKey, CellEstimate]
    result: Table
    #: Output names of min/max aggregates — folded sampled extremes
    #: without intervals (exact only at full scan).
    unsupported: Tuple[str, ...] = ()

    @property
    def fraction_scanned(self) -> float:
        if self.blocks_total == 0:
            return 1.0
        return self.blocks_scanned / self.blocks_total

    @property
    def exact(self) -> bool:
        return self.blocks_scanned >= self.blocks_total

    def max_relative_error(self) -> float:
        """Worst relative half-width across cells (absolute at zero)."""
        worst = 0.0
        for cell in self.cells.values():
            scale = abs(cell.estimate)
            error = cell.half_width / scale if scale else cell.half_width
            worst = max(worst, error)
        return worst


# ----------------------------------------------------------------------
# The estimator
# ----------------------------------------------------------------------
@dataclass
class _GroupState:
    """Running Σ, Σ² and cross-moments of one group's block series."""

    sums: List[float]
    squares: List[float]
    crosses: Dict[Tuple[int, int], float]
    extremes: List[Optional[float]]


class JoinAggregateEstimator:
    """Accumulates per-block join contributions into interval estimates.

    Feed it T′ and one sampled wire block at a time via
    :meth:`observe_join_block`; ask for the current
    :class:`ApproxEstimate` at any point with :meth:`estimate`.
    """

    def __init__(self, query: HybridQuery, total_blocks: int,
                 confidence: float):
        self.query = query
        self.total_blocks = total_blocks
        self.confidence = confidence
        self.blocks_observed = 0
        self._groups: Dict[Tuple, _GroupState] = {}
        self._partial_schema: Optional[Schema] = None

        # Decompose the query's aggregates into linear components.
        # count → a count component; sum → a sum component; avg → one of
        # each (shared across aggregates via dedup).  min/max fold
        # outside the linear machinery.
        self._components: List[AggregateSpec] = []
        component_index: Dict[Tuple[str, Optional[str]], int] = {}

        def component(function: str, column: Optional[str]) -> int:
            key = (function, column)
            if key not in component_index:
                index = len(self._components)
                component_index[key] = index
                self._components.append(
                    AggregateSpec(function, column=column,
                                  alias=f"__comp{index}")
                )
            return component_index[key]

        #: Per original aggregate: ("total", comp) | ("ratio", num, den)
        #: | ("extreme", extreme_idx).
        self._plans: List[Tuple] = []
        self._extreme_specs: List[AggregateSpec] = []
        self._cross_pairs: List[Tuple[int, int]] = []
        for spec in query.aggregates:
            if spec.function == "count":
                self._plans.append(("total", component("count", None)))
            elif spec.function == "sum":
                self._plans.append(("total", component("sum", spec.column)))
            elif spec.function == "avg":
                numerator = component("sum", spec.column)
                denominator = component("count", None)
                pair = (numerator, denominator)
                if pair not in self._cross_pairs:
                    self._cross_pairs.append(pair)
                self._plans.append(("ratio", numerator, denominator))
            else:  # min / max
                index = len(self._extreme_specs)
                self._extreme_specs.append(
                    AggregateSpec(spec.function, column=spec.column,
                                  alias=f"__mm{index}")
                )
                self._plans.append(("extreme", index))
        #: What one block's partial aggregates: the components, the
        #: extremes, then the block's joined row count.
        self._block_query = dataclasses.replace(query, aggregates=tuple(
            self._components + self._extreme_specs
            + [AggregateSpec("count", alias=_ROWS)]))

    # ------------------------------------------------------------------
    @property
    def unsupported_names(self) -> Tuple[str, ...]:
        return tuple(
            spec.output_name()
            for spec in self.query.aggregates
            if spec.function in ("min", "max")
        )

    def observe_join_block(self, t_prime: Table, wire_block: Table) -> int:
        """Join one sampled block against T′ and fold it in.

        The block goes through the engines' fused join -> partial
        aggregate as its one unit (:func:`~repro.query.plan.join_aggregate`),
        so no joined row is materialised and a band post-join predicate
        only ever produces its surviving pairs.  Returns the block's
        post-predicate join output row count (the caller's volume
        accounting).
        """
        partial, _pairs = join_aggregate(
            [(t_prime, wire_block)], self._block_query)
        self._fold(partial)
        return int(partial.column(_ROWS).sum())

    def _fold(self, partial: Table) -> None:
        """Fold one block's partial aggregate into the state."""
        group_columns = list(self.query.group_by)
        if self._partial_schema is None:
            self._partial_schema = partial.schema
        self.blocks_observed += 1

        n_groups = len(group_columns)
        n_components = len(self._components)
        for row in partial.to_rows():
            key = row[:n_groups]
            values = row[n_groups:n_groups + n_components]
            extremes = row[n_groups + n_components:]
            state = self._groups.get(key)
            if state is None:
                state = _GroupState(
                    sums=[0.0] * n_components,
                    squares=[0.0] * n_components,
                    crosses={pair: 0.0 for pair in self._cross_pairs},
                    extremes=[None] * len(self._extreme_specs),
                )
                self._groups[key] = state
            for index, value in enumerate(values):
                value = float(value)
                state.sums[index] += value
                state.squares[index] += value * value
            for pair in self._cross_pairs:
                state.crosses[pair] += (
                    float(values[pair[0]]) * float(values[pair[1]])
                )
            for index, spec in enumerate(self._extreme_specs):
                value = extremes[index]
                current = state.extremes[index]
                if current is None:
                    state.extremes[index] = value
                elif spec.function == "min":
                    state.extremes[index] = min(current, value)
                else:
                    state.extremes[index] = max(current, value)

    # ------------------------------------------------------------------
    def _total_cell(self, state: _GroupState, comp: int,
                    exact: bool) -> CellEstimate:
        m, total = self.blocks_observed, self.total_blocks
        series_sum = state.sums[comp]
        if exact:
            # Full scan: report Σy itself — no M/m rescaling, so no
            # floating-point drift away from the oracle's integer answer.
            return CellEstimate(series_sum, 0.0, 0.0, exact=True)
        estimate = total * series_sum / m
        if m < 2:
            return CellEstimate(estimate, math.inf, math.inf)
        sample_var = max(
            0.0,
            (state.squares[comp] - series_sum * series_sum / m) / (m - 1),
        )
        variance = total * total * (1.0 - m / total) * sample_var / m
        half = t_critical(self.confidence, m - 1) * math.sqrt(variance)
        return CellEstimate(estimate, half, half)

    def _ratio_cell(self, state: _GroupState, numerator: int,
                    denominator: int, exact: bool) -> CellEstimate:
        m = self.blocks_observed
        sum_y = state.sums[numerator]
        sum_x = state.sums[denominator]
        # A group only exists in the state if at least one joined row was
        # observed, so sum_x >= 1; the 0.0 fallback mirrors the oracle's
        # avg-of-empty convention all the same.
        ratio = sum_y / sum_x if sum_x else 0.0
        if exact:
            return CellEstimate(ratio, 0.0, 0.0, exact=True)
        if m < 2 or not sum_x:
            return CellEstimate(ratio, math.inf, math.inf)
        mean_x = sum_x / m
        var_y = max(
            0.0, (state.squares[numerator] - sum_y * sum_y / m) / (m - 1)
        )
        var_x = max(
            0.0, (state.squares[denominator] - sum_x * sum_x / m) / (m - 1)
        )
        cov = (
            state.crosses[(numerator, denominator)] - sum_y * sum_x / m
        ) / (m - 1)
        variance = max(
            0.0,
            (1.0 - m / self.total_blocks)
            / (m * mean_x * mean_x)
            * (var_y + ratio * ratio * var_x - 2.0 * ratio * cov),
        )
        half = t_critical(self.confidence, m - 1) * math.sqrt(variance)
        # The linearised variance assumes the denominator's coefficient
        # of variation is small — false for a group concentrated in a
        # few blocks, where it badly under-covers.  Guard it with the
        # interval-arithmetic propagation of the two *total* intervals
        # (extreme quotient of the numerator and denominator bounds):
        # whenever both parent intervals hold, the propagated one holds
        # too, so taking the wider of the two restores coverage at the
        # cost of width only where the ratio is genuinely unstable.
        y = self._total_cell(state, numerator, exact)
        x = self._total_cell(state, denominator, exact)
        if (
            x.lower <= 0.0
            or not math.isfinite(y.half_width)
            or not math.isfinite(x.half_width)
        ):
            return CellEstimate(ratio, math.inf, math.inf)
        propagated = max(
            ratio - y.lower / x.upper, y.upper / x.lower - ratio
        )
        half = max(half, propagated)
        return CellEstimate(ratio, half, half)

    def estimate(self) -> ApproxEstimate:
        """Current estimates, intervals, and the rendered result table."""
        if self._partial_schema is None:
            raise JoinError(
                "approximate estimator has observed no blocks yet"
            )
        exact = self.blocks_observed >= self.total_blocks
        group_columns = list(self.query.group_by)
        specs = list(self.query.aggregates)

        cells: Dict[CellKey, CellEstimate] = {}
        rows: List[Tuple] = []
        for key in sorted(self._groups):
            state = self._groups[key]
            out_row: List = list(key)
            for spec, plan in zip(specs, self._plans):
                if plan[0] == "total":
                    cell = self._total_cell(state, plan[1], exact)
                    cells[(key, spec.output_name())] = cell
                    value = cell.estimate
                    if exact:
                        value = int(round(value))
                elif plan[0] == "ratio":
                    cell = self._ratio_cell(state, plan[1], plan[2], exact)
                    cells[(key, spec.output_name())] = cell
                    value = cell.estimate
                else:  # extreme
                    value = state.extremes[plan[1]]
                out_row.append(value)
            rows.append(tuple(out_row))

        schema_columns: List[Column] = [
            self._partial_schema.column(name) for name in group_columns
        ]
        for spec in specs:
            if exact or spec.function in ("min", "max"):
                dtype = spec.output_dtype()
            else:
                # Scaled-up totals are real-valued; an int column would
                # silently truncate the estimate.
                dtype = DataType.FLOAT64
            schema_columns.append(Column(spec.output_name(), dtype))

        result = table_from_rows(Schema(schema_columns), rows)
        return ApproxEstimate(
            blocks_scanned=self.blocks_observed,
            blocks_total=self.total_blocks,
            cells=cells,
            result=result,
            unsupported=self.unsupported_names,
        )
