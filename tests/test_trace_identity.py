"""Pinned traces: every algorithm under every plane, hashed.

Each cell runs one algorithm under one setting and hashes a canonical
dump of everything the run produced: the result rows in engine order,
the :class:`~repro.core.joins.base.JoinStats`, the trace metadata and
every phase in trace order (name, kind, ``repr`` of the simulated
seconds, after, streams_from, volume_bytes, tuples, description).  A
change to the join pipeline that moves any of them fails here.

The first op of each benchmark workload (``benchmarks.e2e``) at seed
42 is pinned the same way, one dump per query of the op: a change that
moves what the benchmark measures fails here before it reaches a timed
run.  A ``benchmark`` change that edits a workload re-pins these cells
(``BENCHMARK_PINS``).

To see *what* moved, dump every cell on two trees and diff the files::

    PYTHONPATH=src python -m tests.test_trace_identity > dump.json
    PYTHONPATH=src python -m tests.test_trace_identity --pins

The second form prints the ``PINS`` and ``BENCHMARK_PINS`` tables for
the current tree.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import sys
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro import (
    HybridWarehouse,
    algorithm_by_name,
    default_config,
    load_paper_tables,
)
from repro.config import ClusterConfig
from repro.core.joins.base import ExecutionContext, valid_algorithm_names
from repro.faults import FaultPlan
from repro.latemat import set_late_materialization_enabled
from repro.testkit.generator import edge_case, skewed_case

#: Every registered name, plus a forced adaptive switch (the 10x sigma_L
#: underestimate) and a sampled approximate run.
VARIANTS: Dict[str, Tuple[str, dict]] = {
    **{name: (name, {}) for name in valid_algorithm_names()},
    "adaptive[switch]": ("adaptive", {"estimate_errors": (1.0, 0.1)}),
    "approx@0.25": ("approx", {"sample_rate": 0.25}),
}
SETTINGS = ("classic", "latemat", "skew", "spill", "crash")
#: Per-worker build rows (paper scale) small enough that every JEN-side
#: join spills on the four-worker cluster.
SPILL_BUDGET_ROWS = 2.0e6


def cells() -> List[Tuple[str, str]]:
    return [
        (variant, setting)
        for setting in SETTINGS for variant in VARIANTS
        # The approximate tier rejects armed fault plans.
        if not (setting == "crash" and variant.startswith("approx"))
    ]


@functools.lru_cache(maxsize=None)
def _warehouse(setting: str):
    """The loaded warehouse and query a setting runs on.

    Late materialization runs on the wide-payload case, where both
    sides travel thin; skew handling on thirty workers, where work
    stealing fires; the others on a small Zipf-skewed case, where the
    forced adaptive run really switches.
    """
    workers, db_servers = (30, 5) if setting == "skew" else (4, 2)
    if setting == "skew":
        case = skewed_case(1.8)
    elif setting == "latemat":
        case = edge_case("wide-dtypes")
    else:
        case = edge_case("zipf-skew")
    config = dataclasses.replace(
        default_config(scale=1.0 / 50_000.0),
        cluster=ClusterConfig(hdfs_nodes=workers, db_workers=workers,
                              db_servers=db_servers, hdfs_replication=2),
        jen_memory_budget_rows=(
            SPILL_BUDGET_ROWS if setting == "spill" else 0.0),
    )
    warehouse = load_paper_tables(HybridWarehouse(config), case.t_table,
                                  case.l_table)
    return warehouse, case.query


@functools.lru_cache(maxsize=None)
def run_cell(variant: str, setting: str):
    """One cell's :class:`JoinResult` (shared by the tests: read only)."""
    name, kwargs = VARIANTS[variant]
    warehouse, query = _warehouse(setting)
    context = ExecutionContext(skew_handling=setting == "skew")
    previous_latemat = set_late_materialization_enabled(setting == "latemat")
    if setting == "crash":
        warehouse.arm_faults(FaultPlan.from_spec("crash:w2@scan"))
    try:
        return algorithm_by_name(name, **kwargs).run(warehouse, query,
                                                      context)
    finally:
        if setting == "crash":
            warehouse.disarm_faults()
        set_late_materialization_enabled(previous_latemat)


def _plain(value):
    """``value`` as JSON-ready builtins, deterministically."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {field.name: _plain(getattr(value, field.name))
                for field in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {key if isinstance(key, str) else repr(_plain(key)):
                _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, np.ndarray):
        return _plain(value.tolist())
    if isinstance(value, np.generic):
        return value.item()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def dump(result) -> dict:
    """Everything one run produced, in a diffable canonical form."""
    return {
        "algorithm": result.algorithm,
        "rows": _plain(result.result.to_rows()),
        "stats": _plain(result.stats),
        "metadata": _plain(result.trace.metadata),
        "phases": [
            [phase.name, phase.kind, repr(phase.seconds),
             list(phase.after), list(phase.streams_from),
             phase.volume_bytes, phase.tuples, phase.description]
            for phase in result.trace
        ],
    }


def digest(result) -> str:
    return _sha256(dump(result))


def _sha256(tree) -> str:
    text = json.dumps(tree, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


#: Seed of the pinned benchmark ops.
BENCHMARK_SEED = 42


@functools.lru_cache(maxsize=None)
def benchmark_op(workload: str) -> dict:
    """The first op of one benchmark workload after its set-up, dumped:
    one entry per query (a result-cache hit has no join run to dump),
    plus the service's cache hit rates."""
    from benchmarks.e2e.workloads import Session, workload_by_name

    session = Session(workload_by_name(workload), BENCHMARK_SEED)
    try:
        op = session.run_op()
    finally:
        session.close()
    return {
        "queries": [
            {"template": query.template, "status": query.status,
             "sim_seconds": repr(query.sim_seconds),
             "queue_wait": repr(query.queue_wait),
             "run": (_plain(query.result.to_rows())
                     if query.join_result is None
                     else dump(query.join_result))}
            for query in op.queries
        ],
        "hit_rates": _plain(op.hit_rates),
    }


PINS: Dict[str, str] = {
    "adaptive/classic": "fbdea7b75a242e1d09e90138dd8eba1fd426d9ce87136a996af6e5b783c77b0d",
    "approx/classic": "f85b3dad40a54c12fb5c3ca0d557d6a693f2e0f0b86b434b681b640f59038b76",
    "approx(BF)/classic": "846a5e4853331e29904e7673f6046b05a39a5c955d5db87f0c12ff63306b816e",
    "broadcast/classic": "4c0341139955ee8c448a49bdd385354467fa95bf3335fb7c4484ca7f7bad52f5",
    "db/classic": "a3283776c660f3c641f65ceae113fca11390cdfd6d4808a4e30e4dea2eb27f7d",
    "db(BF)/classic": "e0c8a9baf9b549f62ce5c4c50808a7716a34e5dd926717e0f625c22607e28dfe",
    "perf/classic": "1e4797a760c9cf7a3e895e883d3d40d7b21cca77e44c7ef67d319f742348929b",
    "repartition/classic": "43275ab5f77bbc65b523df2f2836756d9d5eb71e4fd8bb72cfd9322ec2ee50fd",
    "repartition(BF)/classic": "3d60b6de50eb9ea92ea1b8f903c027d1e2a184e3ff551636d23347ef20811779",
    "semijoin/classic": "cb1c15b8de14ebf988500fddf16fd46d42f2a0b50ccc19d698b1e37d8e020af9",
    "zigzag/classic": "4bb4fc1931629edec3f1167c6350b2d23069bd7a6f6eb310d4cda00f13c1b0d7",
    "zigzag-db/classic": "32d593ff226e37bbf4a7ac248a3da1e33b297f8a75d5c10be77c4bfe10c0d19e",
    "adaptive[switch]/classic": "9f3230aac156f452f4740d8772aacf70088739276e59daaecabb762a0e7ec275",
    "approx@0.25/classic": "686967076a4522d5236ffc2918a83ad907e973b0d4c29cbf4b5ed7737519484e",
    "adaptive/latemat": "ce0bd7a8c3420220d745f1acc17e1edf4acdb3abff9ec41bcd59880b3034bea9",
    "approx/latemat": "abbb5f57515558239f6a634577bd3a1deca123523dc052dae22b02efea3fd807",
    "approx(BF)/latemat": "806e8b23e27457ccb121ab61b124b04a54362c5a9f36818fdbccc36bd338c2b1",
    "broadcast/latemat": "6b35ddbaef50be1b856da5a01ad0d9045abf85ca19cabc7789005f4da52f464e",
    "db/latemat": "1c3d16a13eaa2127c314e06a3392599eba86d28f862bec655ea259c1249c320f",
    "db(BF)/latemat": "4a8f201c1d4af4b85119f740989b97073c6a7d0a660811eed2ac05d1e9f010fd",
    "perf/latemat": "2b14582a4fb46e2a71d294d29d9cd2f4dd7acf1c8bb8067481c766d69e4aa12b",
    "repartition/latemat": "1a69bf1fb06343e29c479e58290452eeec9713d66af7a3fe322ba7fc350e7d3c",
    "repartition(BF)/latemat": "95830e0936e5e89b32dee41d76c78864b9b441a1d0e48cd05b0f794501e72a1b",
    "semijoin/latemat": "24f9e7ceec1438e22d9a775959fbaaed24eac91c4c2e29ebaa8745f9f1d6bee3",
    "zigzag/latemat": "97743e8da4a9121482e3298caab4b9806e2ebb3a33982625ba817b0c1b919305",
    "zigzag-db/latemat": "70f158af3420624623756ec2fe8087ee10241bd9fc4f0c44b6c4e82706fa11cd",
    "adaptive[switch]/latemat": "22b0c4c6ff798df10cb761713f7f883f2bd0a051cf7683cb7650576c51389f56",
    "approx@0.25/latemat": "2de830fb26938566a894a588d744b02a1e9118bc6844c78f07d27b5d3bdc6266",
    "adaptive/skew": "cfc4ab6ec47d30e8b7256099f75062e531a1e72723b69aa4503ba85113c55c9b",
    "approx/skew": "2f72f4014f28bbe76211bc4a2fc00975fea6ebb822794be71534703250872cc7",
    "approx(BF)/skew": "a3bbeeb4ca2f9b5df9a7639b704bea79178153e37433ca199b7eaace5f031d14",
    "broadcast/skew": "7eeb1679576880f2284cf48a4dc1753bcd993c7b70b36f2686fed9a4495b6b13",
    "db/skew": "6d71874ab167c5317ca361a5113b2bd6c71a9ee7548f2342638cc7fa9a607595",
    "db(BF)/skew": "fb0bc882894020f1f30041dcebeb88e60b6dcf655b6eb3033cc5dc0b69131837",
    "perf/skew": "4745516e0cbd204695932e74235f09b10e6c26d479100a1c26de43269a522a2d",
    "repartition/skew": "ceb43b69397565591370033ef1f977ad370004637c45d403272f048fcad49909",
    "repartition(BF)/skew": "7e27c9120e070b43a3e6a07be46cfac9d95f70543fad36fe9e4ad437c7248eda",
    "semijoin/skew": "53985438132f2f27a82d7575535616f7f781c165cb5cc55f1f8112a52ae34a55",
    "zigzag/skew": "b83ef386b39976405234e9f2284fa624083eab3214c1703dffd849f898d768fa",
    "zigzag-db/skew": "6b33f7d47064d629a025dab40e59dc0bfa74da136047112090bf51c10910e957",
    "adaptive[switch]/skew": "9716d668d79a7b670d496f0f0817ec1ea6988afe342163d1fb2987e66abb1968",
    "approx@0.25/skew": "1c68bc243455f2204e0afe59fb7fb9ee7e38dad883620659c7b07dcf4417046d",
    "adaptive/spill": "befd4575dd6cd90897986ae4c6a6534fe00d6ace4596714aca1b1c2d222abac8",
    "approx/spill": "f85b3dad40a54c12fb5c3ca0d557d6a693f2e0f0b86b434b681b640f59038b76",
    "approx(BF)/spill": "846a5e4853331e29904e7673f6046b05a39a5c955d5db87f0c12ff63306b816e",
    "broadcast/spill": "d8d5e5d40d8173edbb55faee9de808ea2e6eae2099e6683910dbeb559a24ca1c",
    "db/spill": "a3283776c660f3c641f65ceae113fca11390cdfd6d4808a4e30e4dea2eb27f7d",
    "db(BF)/spill": "e0c8a9baf9b549f62ce5c4c50808a7716a34e5dd926717e0f625c22607e28dfe",
    "perf/spill": "0010501479fd72e7a548f7207826f049b107a670dea2237f8d1c245e8b7d31d8",
    "repartition/spill": "a49dd302623edf646a3eee9a40f013374bedc559b3578498fbb5ff814adcb523",
    "repartition(BF)/spill": "90832ce9521962e137aef29d1397109964f5642e59b03f8c97f67b50387ffc78",
    "semijoin/spill": "9920a5d6d3c7334d0b00b6c1b5a4936fc84ba1e10eac699ad7a2b2e7bd2d00b8",
    "zigzag/spill": "806e021868cf9f27c15198011da09b8231d1b30aacaa0e88034b805a53dce952",
    "zigzag-db/spill": "32d593ff226e37bbf4a7ac248a3da1e33b297f8a75d5c10be77c4bfe10c0d19e",
    "adaptive[switch]/spill": "1468be455a4709bd24ef07b64c7bf72523d367b19591972470e3d51dab99b534",
    "approx@0.25/spill": "686967076a4522d5236ffc2918a83ad907e973b0d4c29cbf4b5ed7737519484e",
    "adaptive/crash": "65d0b95a41495e3e246241bfc80a3e2818f2832e9ff7c7a55131d2684e0160b5",
    "broadcast/crash": "1a562baef1015a0834f51a0317b0efc272195f501ea78c79de150da8f01215b1",
    "db/crash": "fa543ba61049ea587be9081048e7a1d702febde713ecfbe79bcaf36a043bdc10",
    "db(BF)/crash": "71ab9244fddcfc42c79c5df050b050dee5adf8a0304e00cad7f2d9ac0d6d9948",
    "perf/crash": "a5cc184e31dc551ec8deef60cd0bc6845c27e6f34d59e53338743e06c6aa0cb5",
    "repartition/crash": "3dc6674826daf20c8ce60a46f9ff4cebdcc566ca309880932c94b15b0665bf06",
    "repartition(BF)/crash": "583eba2cd4dea99e58e5e0ba76c1471325b0a6c7d54c69cc1d0a50661c222709",
    "semijoin/crash": "e918caaf6b9e791e62ba03e82d3b301f96305b6b564ef667b515b33a5d0e0f55",
    "zigzag/crash": "e40fca2f135019ab2204ac49f63f0e925b655439dce157c028f2d8b6f51430fb",
    "zigzag-db/crash": "bc3836ba22546532fa75f873cba07eb72b83582e5306e62a12df243bdac7c49f",
    "adaptive[switch]/crash": "beb35ab990190edf314a136f31cfd582a6d3531a168b5826d8e79ae5754aa83c",
}


BENCHMARK_PINS: Dict[str, str] = {
    "scan_zigzag": "2472136027aa2b01e59de9eb8fa33a8f6fdaa10ef16a895aa748f4a73c7f2b5a",
    "shuffle_repartition": "2e378cf81ec22d3c3640011a2c5fa615bfe6bf7cb53a4fe8a9d24dc5f4392c1d",
    "db_thin_text": "8037b2c50eac218b52bb226638c9c2da5b82ccfc07c612f95e5a169a1ece65fc",
    "service_stream": "9060b59478719bb3e8a774a89725d4a21c483ff7bcee2a783b238434ad2d833f",
}


@pytest.mark.parametrize("variant,setting", cells(),
                         ids=[f"{v}/{s}" for v, s in cells()])
def test_trace_is_pinned(variant, setting):
    assert digest(run_cell(variant, setting)) == PINS[f"{variant}/{setting}"]


@pytest.mark.parametrize("workload", list(BENCHMARK_PINS))
def test_benchmark_op_is_pinned(workload):
    assert _sha256(benchmark_op(workload)) == BENCHMARK_PINS[workload]


@pytest.mark.parametrize("variant,setting", cells(),
                         ids=[f"{v}/{s}" for v, s in cells()])
def test_every_phase_says_what_it_did(variant, setting):
    """A description on every phase; the join phases count their
    tuples."""
    run = run_cell(variant, setting)
    assert [phase.name for phase in run.trace if not phase.description] \
        == []
    phases = {phase.name: phase for phase in run.trace}
    if "probe" in phases:
        assert phases["probe"].tuples > 0
    if "aggregate" in phases:
        assert phases["aggregate"].tuples == run.stats.join_output_tuples
    if "db_join" in phases:
        assert phases["db_join"].tuples > 0


@pytest.mark.parametrize("setting", SETTINGS)
def test_the_second_scan_is_priced_like_the_first(setting):
    """zigzag-db reads L twice, and both scans record what they read."""
    phases = {phase.name: phase
              for phase in run_cell("zigzag-db", setting).trace}
    first, second = phases["hdfs_scan"], phases["hdfs_scan_2"]
    assert first.volume_bytes > 0
    assert second.volume_bytes == pytest.approx(first.volume_bytes)
    assert second.tuples == first.tuples


def test_the_settings_engage():
    """Each setting changes what it is meant to change."""
    assert run_cell("adaptive[switch]", "classic") \
        .trace.metadata["adaptive"]["switched"]
    skewed = run_cell("repartition", "skew")
    assert skewed.stats.hot_keys_detected > 0
    assert {"jen_hot_relay", "work_steal"} <= set(skewed.trace.names())
    assert run_cell("repartition", "spill").stats.spilled_tuples > 0
    assert run_cell("repartition", "crash").stats.hdfs_rows_discarded > 0
    assert {"payload_fetch_l", "payload_fetch_t"} \
        <= set(run_cell("zigzag", "latemat").trace.names())


if __name__ == "__main__":
    from benchmarks.e2e.workloads import WORKLOADS

    trees = {f"{v}/{s}": dump(run_cell(v, s)) for v, s in cells()}
    trees.update({f"benchmark/{workload.name}": benchmark_op(workload.name)
                  for workload in WORKLOADS})
    if sys.argv[1:] == ["--pins"]:
        for label, tree in trees.items():
            print(f"    {label.removeprefix('benchmark/')!r}: "
                  f"{_sha256(tree)!r},")
    else:
        json.dump(trees, sys.stdout, indent=1, sort_keys=True)
        print()
