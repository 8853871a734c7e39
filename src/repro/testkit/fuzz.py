"""Budgeted differential fuzzing over the metamorphic config space.

The driver behind ``python -m repro fuzz`` and the CI ``fuzz-smoke``
job: for each seed it generates a fresh data case, samples config cells
across every metamorphic axis, runs each cell under an invariant
checker, and compares the result against the single-node oracle.
Every failure is shrunk to a minimal repro
(:mod:`repro.testkit.shrink`) and — when an artifact directory is given
— written out as a JSON record plus a ready-to-run ``.py`` snippet so
CI can upload the failing seed for offline replay.
"""

from __future__ import annotations

import json
import pathlib
import time
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.testkit import oracle, shrink
from repro.testkit.generator import (
    ALL_ALGORITHMS,
    ESTIMATE_ERROR_AXIS,
    FAULT_AXIS,
    FORMAT_AXIS,
    WORKER_AXIS,
    ConfigCell,
    DataCase,
    edge_cases,
    generate_data_case,
    run_cell,
)


@dataclass
class FuzzFailure:
    """One fuzzed cell that disagreed with the oracle (or crashed)."""

    case_name: str
    provenance: str
    cell: ConfigCell
    kind: str
    diff: str
    shrunk: Optional[shrink.ShrinkOutcome] = None

    def record(self) -> dict:
        """JSON-serialisable artifact for CI upload."""
        payload = {
            "case": self.case_name,
            "provenance": self.provenance,
            "cell": repr(self.cell),
            "kind": self.kind,
            "diff": self.diff,
        }
        if self.shrunk is not None:
            payload["shrunk_provenance"] = self.shrunk.case.provenance
            payload["shrunk_cell"] = repr(self.shrunk.cell)
            payload["shrunk_rows"] = self.shrunk.total_rows
            payload["snippet"] = self.shrunk.snippet()
        return payload


@dataclass
class FuzzReport:
    """Everything one fuzz run did."""

    seeds: List[int]
    cells_run: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    artifact_paths: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = [
            f"fuzz: {self.cells_run} cells over {len(self.seeds)} seed(s) "
            f"in {self.elapsed_seconds:.1f}s — "
            f"{len(self.failures)} failure(s)"
        ]
        for failure in self.failures:
            lines.append(
                f"  FAIL {failure.case_name} / {failure.cell.label()} "
                f"[{failure.kind}]"
            )
            if failure.shrunk is not None:
                lines.append(
                    f"    shrunk to {failure.shrunk.total_rows} row(s); "
                    "repro snippet in artifact"
                )
            lines.extend(
                f"    {line}" for line in failure.diff.splitlines()[:4]
            )
        for path in self.artifact_paths:
            lines.append(f"  artifact: {path}")
        return "\n".join(lines)


def sample_cell(rng: np.random.Generator) -> ConfigCell:
    """One random config cell spanning every metamorphic axis.

    Faults and warm caches are sampled at low probability so most cells
    exercise the plain engine paths, mirroring the default grid's mix.
    An adaptive cell starts from a wrong estimate, so it can switch.
    """
    fault_spec = None
    cache_warm = False
    roll = rng.random()
    if roll < 0.15:
        fault_spec = str(rng.choice(FAULT_AXIS))
    elif roll < 0.25:
        cache_warm = True
    workers = int(rng.choice(WORKER_AXIS))
    if fault_spec is not None:
        workers = 30  # fault specs name workers that must exist
    algorithm = str(rng.choice(ALL_ALGORITHMS))
    estimate_error = None
    if algorithm == "adaptive":
        # Read off the roll already drawn, so the axis leaves every
        # other draw of the seed, and so every other cell, unchanged.
        estimate_error = ESTIMATE_ERROR_AXIS[
            int(roll * 1_000_000) % len(ESTIMATE_ERROR_AXIS)]
    return ConfigCell(
        algorithm=algorithm,
        workers=workers,
        format_name=str(rng.choice(FORMAT_AXIS)),
        fault_spec=fault_spec,
        cache_warm=cache_warm,
        estimate_error=estimate_error,
        late_materialization=bool(rng.random() < 0.25),
    )


def _check_cell(case: DataCase, cell: ConfigCell
                ) -> Optional[FuzzFailure]:
    try:
        result = run_cell(case, cell)
    except Exception as error:  # noqa: BLE001 - reported, not swallowed
        return FuzzFailure(
            case_name=case.name,
            provenance=case.provenance,
            cell=cell,
            kind=f"error:{type(error).__name__}",
            diff=f"execution raised {type(error).__name__}: {error}",
        )
    diff = oracle.compare_tables(
        result, case.oracle_rows(), label=cell.label()
    )
    if diff is None:
        return None
    return FuzzFailure(
        case_name=case.name,
        provenance=case.provenance,
        cell=cell,
        kind="divergence",
        diff=diff,
    )


def _write_artifacts(directory: pathlib.Path, index: int,
                     failure: FuzzFailure) -> List[str]:
    directory.mkdir(parents=True, exist_ok=True)
    stem = f"failure-{index:03d}-{failure.case_name}"
    json_path = directory / f"{stem}.json"
    json_path.write_text(json.dumps(failure.record(), indent=2) + "\n")
    paths = [str(json_path)]
    if failure.shrunk is not None:
        snippet_path = directory / f"{stem}.py"
        snippet_path.write_text(failure.shrunk.snippet())
        paths.append(str(snippet_path))
    return paths


def fuzz_cells(seeds: Sequence[int], cells_per_seed: int = 10,
               rows_scale: float = 1.0,
               include_edge_cases: bool = False
               ) -> Iterator[Tuple[DataCase, ConfigCell]]:
    """Every ``(case, cell)`` a fuzz run over ``seeds`` checks, in
    order: ``cells_per_seed`` sampled cells per case."""
    cases: List[DataCase] = [
        generate_data_case(
            seed,
            t_rows=max(60, int(1_500 * rows_scale)),
            l_rows=max(240, int(6_000 * rows_scale)),
        )
        for seed in seeds
    ]
    if include_edge_cases:
        cases.extend(edge_cases())
    for case_index, case in enumerate(cases):
        seed = seeds[case_index % len(seeds)]
        rng = np.random.default_rng(seed * 1_000 + case_index)
        for _ in range(cells_per_seed):
            yield case, sample_cell(rng)


def run_fuzz(seeds: Sequence[int], cells_per_seed: int = 10,
             rows_scale: float = 1.0,
             include_edge_cases: bool = False,
             artifact_dir: Optional[str] = None,
             shrink_budget: int = 150) -> FuzzReport:
    """Fuzz ``cells_per_seed`` sampled cells for every seed.

    Each cell runs under an invariant checker; any divergence,
    invariant violation, or crash becomes a :class:`FuzzFailure`,
    shrunk within ``shrink_budget`` evaluations.  ``rows_scale``
    scales the generated table sizes (CI smoke uses < 1).
    """
    report = FuzzReport(seeds=list(seeds))
    directory = pathlib.Path(artifact_dir) if artifact_dir else None
    started = time.perf_counter()
    for case, cell in fuzz_cells(seeds, cells_per_seed, rows_scale,
                                 include_edge_cases):
        failure = _check_cell(case, cell)
        report.cells_run += 1
        if failure is None:
            continue
        failure.shrunk = shrink.shrink(
            case, cell, max_evaluations=shrink_budget
        )
        if directory is not None:
            report.artifact_paths.extend(_write_artifacts(
                directory, len(report.failures), failure
            ))
        report.failures.append(failure)
    report.elapsed_seconds = time.perf_counter() - started
    return report
