"""Delta-debugging minimizer for failing (case, config) pairs.

Given a data case and a config cell whose result diverges from the
oracle, :func:`shrink` produces the smallest repro it can find within
its evaluation budget, in two phases:

1. **config-axis reduction** — every non-default axis of the cell is
   greedily reset to its default while the failure persists, so the
   final cell names the single axis (beyond the algorithm itself) that
   matters;
2. **row minimization** — classic ddmin over the T and L row sets,
   alternating sides until neither shrinks, always re-deriving the
   oracle answer for the reduced tables so the failure predicate stays
   honest.

The outcome carries a ready-to-paste Python snippet that rebuilds the
minimal case from its provenance expression and re-runs the failing
cell.  A cell that does not actually fail returns ``None``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.testkit import oracle
from repro.testkit.generator import (
    ConfigCell,
    DataCase,
    run_cell,
    with_rows,
)

#: Axis name -> default value; greedy reduction resets them in order of
#: how much a default simplifies the repro (faults and caches first).
_AXIS_DEFAULTS = (
    ("fault_spec", None),
    ("cache_warm", False),
    ("estimate_error", None),
    ("approx", None),
    ("late_materialization", False),
    ("format_name", "parquet"),
    ("workers", 4),
)


@dataclass
class ShrinkOutcome:
    """A minimal failing repro plus how it was reached."""

    original_case: DataCase
    original_cell: ConfigCell
    case: DataCase
    cell: ConfigCell
    t_indices: List[int]
    l_indices: List[int]
    diff: str
    evaluations: int

    @property
    def total_rows(self) -> int:
        """Rows in the minimal repro across both tables."""
        return len(self.t_indices) + len(self.l_indices)

    def reduced_axes(self) -> List[str]:
        """The non-default axes the failure still needs."""
        axes = []
        for name, default in _AXIS_DEFAULTS:
            if getattr(self.cell, name) != default:
                axes.append(name)
        return axes

    def snippet(self) -> str:
        """Ready-to-paste Python reproducing the minimal failure."""
        return (
            "# Minimal repro generated by repro.testkit.shrink\n"
            "from repro.testkit import generator, oracle\n"
            "\n"
            f"case = {self.case.provenance}\n"
            f"cell = generator.{self.cell!r}\n"
            "actual = generator.run_cell(case, cell)\n"
            "expected = oracle.oracle_execute(\n"
            "    case.t_table, case.l_table, case.query)\n"
            "print(oracle.compare_tables(actual, expected)\n"
            "      or 'no divergence')\n"
        )

    def report(self) -> str:
        """Human-readable summary of the shrink."""
        axes = ", ".join(self.reduced_axes()) or "none beyond the algorithm"
        return (
            f"shrunk {self.original_case.name} / "
            f"{self.original_cell.label()} to "
            f"{len(self.t_indices)} T row(s) x "
            f"{len(self.l_indices)} L row(s) in {self.evaluations} "
            f"evaluations; decisive axes: {axes}\n"
            f"{self.diff}\n--- repro snippet ---\n{self.snippet()}"
        )


class _Evaluator:
    """The failure predicate, with budget accounting.

    Reductions only count when they fail the *same way* as the original
    run — a divergence must stay a divergence, a crash must stay the
    same exception type.  Without this, ddmin happily "shrinks" a wrong
    answer down to an empty table that merely crashes the loader.
    """

    def __init__(self, case: DataCase, max_evaluations: int):
        self.case = case
        self.max_evaluations = max_evaluations
        self.evaluations = 0
        self.target_kind: Optional[str] = None
        self.last_diff: Optional[str] = None

    @property
    def exhausted(self) -> bool:
        return self.evaluations >= self.max_evaluations

    def outcome_for(self, cell: ConfigCell, t_indices: Sequence[int],
                    l_indices: Sequence[int]
                    ) -> Optional[Tuple[str, str]]:
        """(failure kind, detail) for the reduced case, or None if ok.

        Kind is ``"divergence"`` for a wrong answer or
        ``"error:<ExceptionType>"`` for a crash, so crashes can be
        shrunk too without letting one failure mode morph into another.
        """
        self.evaluations += 1
        reduced = with_rows(self.case, t_indices, l_indices)
        try:
            result = run_cell(reduced, cell)
        except Exception as error:  # noqa: BLE001 - classified below
            return (
                f"error:{type(error).__name__}",
                f"execution raised {type(error).__name__}: {error}",
            )
        diff = oracle.compare_tables(
            result, reduced.oracle_rows(), label=cell.label()
        )
        if diff is None:
            return None
        return ("divergence", diff)

    def fails(self, cell: ConfigCell, t_indices: Sequence[int],
              l_indices: Sequence[int]) -> bool:
        outcome = self.outcome_for(cell, t_indices, l_indices)
        if outcome is None or outcome[0] != self.target_kind:
            return False
        self.last_diff = outcome[1]
        return True


def _reduce_axes(evaluator: _Evaluator, cell: ConfigCell,
                 t_indices: List[int], l_indices: List[int]) -> ConfigCell:
    """Greedily reset every axis to its default while still failing."""
    for name, default in _AXIS_DEFAULTS:
        if evaluator.exhausted or getattr(cell, name) == default:
            continue
        candidate = dataclasses.replace(cell, **{name: default})
        if evaluator.fails(candidate, t_indices, l_indices):
            cell = candidate
    return cell


def _chunks(indices: List[int], n: int) -> List[List[int]]:
    size, remainder = divmod(len(indices), n)
    out, start = [], 0
    for i in range(n):
        stop = start + size + (1 if i < remainder else 0)
        out.append(indices[start:stop])
        start = stop
    return [chunk for chunk in out if chunk]


def _ddmin(indices: List[int],
           still_fails: Callable[[List[int]], bool],
           exhausted: Callable[[], bool]) -> List[int]:
    """Zeller/Hildebrandt ddmin over a row-index list."""
    if not still_fails(indices):
        return indices
    if still_fails([]):
        return []
    n = 2
    while len(indices) >= 2 and not exhausted():
        chunks = _chunks(indices, n)
        reduced = False
        for chunk in chunks:
            if len(chunk) < len(indices) and still_fails(chunk):
                indices, n, reduced = chunk, 2, True
                break
        if not reduced:
            for i in range(len(chunks)):
                complement = [
                    index for j, chunk in enumerate(chunks) if j != i
                    for index in chunk
                ]
                if complement and len(complement) < len(indices) \
                        and still_fails(complement):
                    indices, reduced = complement, True
                    n = max(n - 1, 2)
                    break
        if not reduced:
            if n >= len(indices):
                break
            n = min(len(indices), n * 2)
    return indices


def shrink(case: DataCase, cell: ConfigCell,
           max_evaluations: int = 400) -> Optional[ShrinkOutcome]:
    """Minimize a failing (case, cell); None if it does not fail.

    ``max_evaluations`` bounds the number of end-to-end executions; on
    exhaustion the best reduction found so far is returned.
    """
    evaluator = _Evaluator(case, max_evaluations)
    t_indices = list(range(case.t_table.num_rows))
    l_indices = list(range(case.l_table.num_rows))
    initial = evaluator.outcome_for(cell, t_indices, l_indices)
    if initial is None:
        return None
    evaluator.target_kind, evaluator.last_diff = initial

    cell = _reduce_axes(evaluator, cell, t_indices, l_indices)

    # Alternate ddmin over the two sides until a full round holds both.
    for _ in range(4):
        before = (len(t_indices), len(l_indices))
        t_indices = _ddmin(
            t_indices,
            lambda t: evaluator.fails(cell, t, l_indices),
            lambda: evaluator.exhausted,
        )
        l_indices = _ddmin(
            l_indices,
            lambda rows: evaluator.fails(cell, t_indices, rows),
            lambda: evaluator.exhausted,
        )
        if (len(t_indices), len(l_indices)) == before \
                or evaluator.exhausted:
            break

    final_diff = evaluator.last_diff or initial[1]
    return ShrinkOutcome(
        original_case=case,
        original_cell=cell,
        case=with_rows(case, t_indices, l_indices),
        cell=cell,
        t_indices=list(t_indices),
        l_indices=list(l_indices),
        diff=final_diff,
        evaluations=evaluator.evaluations,
    )
