"""Pinned traces: every algorithm under every plane, hashed.

Each cell runs one algorithm under one setting and hashes a canonical
dump of its :class:`~repro.core.joins.base.JoinResult` record: the
result rows in engine order, the
:class:`~repro.core.joins.base.JoinStats`, the trace's
``bytes_shipped`` classification, the plane fields (``join_slot_loads``
and the ``adaptive`` and ``approx`` reports, down to every switch
decision, segment statistic and snapshot cell, as plain values) and
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
from repro.faults import FaultInjector, FaultPlan
from repro.latemat import set_late_materialization_enabled
from repro.relational.table import Table
from repro.testkit.generator import edge_case, skewed_case
from repro.workload import zipf_skew_factor

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
    sides travel thin; skew on thirty workers with the shuffle priced
    at the case's skew, where the split runs and work stealing fires;
    the others on a small Zipf-skewed case priced at skew 1, where the
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
        shuffle_skew=(zipf_skew_factor(case.spec.key_skew,
                                       case.spec.n_keys, workers)
                      if setting == "skew" else 1.0),
    )
    warehouse = load_paper_tables(HybridWarehouse(config), case.t_table,
                                  case.l_table)
    return warehouse, case.query


@functools.lru_cache(maxsize=None)
def run_cell(variant: str, setting: str):
    """One cell's :class:`JoinResult` (shared by the tests: read only)."""
    name, kwargs = VARIANTS[variant]
    warehouse, query = _warehouse(setting)
    context = ExecutionContext(
        faults=(FaultInjector(FaultPlan.from_spec("crash:w2@scan"))
                if setting == "crash" else None))
    previous_latemat = set_late_materialization_enabled(setting == "latemat")
    try:
        return algorithm_by_name(name, **kwargs).run(warehouse, query,
                                                      context)
    finally:
        set_late_materialization_enabled(previous_latemat)


def _plain(value):
    """``value`` as JSON-ready builtins, deterministically: a table is
    its rows, and an object with no plain form is an error, never its
    ``repr``."""
    if isinstance(value, Table):
        return _plain(value.to_rows())
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
    raise TypeError(f"no plain form for a {type(value).__name__}")


def dump(result) -> dict:
    """Everything one run produced, in a diffable canonical form."""
    return {
        "algorithm": result.algorithm,
        "rows": _plain(result.result.to_rows()),
        "stats": _plain(result.stats),
        "bytes_shipped": _plain(result.trace.metadata["bytes_shipped"]),
        "join_slot_loads": _plain(result.join_slot_loads),
        "adaptive": _plain(result.adaptive),
        "approx": _plain(result.approx),
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
    "adaptive/classic": "02e478ab1b67486dd4e1fe852a0b92ccd786a8e41031fe9f65852da3d8919bd0",
    "approx/classic": "854809b0f3b86a4fe0b85ab145f50d65878079bddc11402beadff5ac09c50e5b",
    "approx(BF)/classic": "d95a3194a7a1b4d3e9c667cc8ef0b6e3321b801fc0334d80103be3984c1d17a3",
    "broadcast/classic": "2573b6dbf2298a22c7e7edb78f3172aae319df693c879a092ae78883a714e5c5",
    "db/classic": "1701b54abcfff134203acce78d31247f2b45fbeef33e8042e983c8bbd4272cb3",
    "db(BF)/classic": "ece60d56f764ac013312d7093cd0939a08dd4121b4a2da6a09d8b4fd7465b4c1",
    "perf/classic": "82bc37db5fcdfe43216be41fdcd445c36e2fd1033102dbebf823b0ad95f24027",
    "repartition/classic": "5dfd210148911d9d3db5efd581771ef2550939470664602cab4ff9a91ed1fab4",
    "repartition(BF)/classic": "8762b59a408443d814d3938a11b9229193c806da296c053187bee0a6a263a00d",
    "semijoin/classic": "d401b8f8909fd414cd0c5dd8cd295e0a455e529598230be307329eb798101a55",
    "zigzag/classic": "95d357a6325243f4b6ae2812aaad34a6be667051e9ca194a697a71b495f22e48",
    "zigzag-db/classic": "39c71615863ee4e2547c75b3b07c70201e0f201d5acfa44b82e4b5c13b846890",
    "adaptive[switch]/classic": "532b20d2a1a6162e7a7158eec722cdfc84a0ffc442429cc778370cc9f4744878",
    "approx@0.25/classic": "a1833a3cead1f3784e40529ad4dd57ca13b5c039b8dcf7a478c83d2b8c325648",
    "adaptive/latemat": "6265177546816bdeb5438bbaf74af30d062a7e19146e507b0658e8fa8b911bda",
    "approx/latemat": "a4f607814fde46a980ef08b1b38ac01779cfcdfd01a4ceb653ed4e1cf8cfe260",
    "approx(BF)/latemat": "335d61ff28b25a5184af1b32b864bdd06045e9f5c5f70f0975409f59118e1e63",
    "broadcast/latemat": "bd9e3aec6301b5aee53831481b86f93d1556b611cb26c492c320f696eb6c708a",
    "db/latemat": "2b2dceedb52b9727f0ed82c8e283ff149acdacdc3ae57c447e2fd4f3510cfb3d",
    "db(BF)/latemat": "f06527b9dd446f395000bd0b1b223657018a9f1ee8897cc0bc19b297a84d3292",
    "perf/latemat": "2c5eafd412e8baf266486fbfea16f5216b7699f9970617598b0cf36a0f53a72b",
    "repartition/latemat": "a754560b42fa1356e20a52a0f22e3fdcbf47459a39f6f00764df91eedcaa9c17",
    "repartition(BF)/latemat": "083258a4736a443651051d5ea87a1fbbfe7428e23dd943305ed67438584a9b98",
    "semijoin/latemat": "c370d3e31bde5551bd7827183a030104a5b87772697659a4efcd8bb1a1ea93d3",
    "zigzag/latemat": "35472c420c2c00cf6b23eeb5e20b878ffd10289c1adc8ce0297dc2828fcc5b70",
    "zigzag-db/latemat": "b69e4f15e45e6fab5fcfd273f2ef3dfada1f7e714e9f53322cfb3c3838466856",
    "adaptive[switch]/latemat": "a4e88af06af1406ff64900b8ec3689f56cb7113be6603fbae108de4365a1f4ba",
    "approx@0.25/latemat": "c3785aa4f9dadfc3c3dfcc2bc9bead3a59938cf7a76a7cee851c7acfac8beb31",
    "adaptive/skew": "f3a2b2d8b9351e4fbbc981fe004f757dd3c923aecc9472f534248a12c67b97de",
    "approx/skew": "de97f187dc836e3b9eb3fdb48bf5b8091066dc08875aea6171ff9bb9f76992be",
    "approx(BF)/skew": "b7f0da22eafcfcc8772944636fdbb1232ec8a3a196d7af1dd62c23dcc6967284",
    "broadcast/skew": "8196c7b264863ea02907b73317c02a19bb920a65e59a7d719b8c3b2adec25011",
    "db/skew": "02b5bef7811da5376cc474a6de8254f4d854ed892c5f53508a283926e89b4ea2",
    "db(BF)/skew": "8780584700cb526bb35554df096f569d7c2d70242100e065fabc251d32d0a50e",
    "perf/skew": "86c2d35d44307275cfc375cd96632378c389022fb44e422fe21cdaa2016eccf0",
    "repartition/skew": "251ac31e268f3872e024100c8964a742235f733a4867c2dedcc5af0fe6ba02bb",
    "repartition(BF)/skew": "298d43f8d3f39251546200ca277fe8c35f2c433bec8f6cc7262fc25528cd8506",
    "semijoin/skew": "049ac3c0fdfb4ec0d82b8d8aa0c21bf30c35fc0d68a21971c1da6130067406e9",
    "zigzag/skew": "8910d9ea2ce4d35a81b0d0141cb0eb48db125095a7e4d78064475711d8ecc8fd",
    "zigzag-db/skew": "a8f105867ecb62ae8b79af16aea41000aa97a5fb1fb3bb33db3664d9b45e8af5",
    "adaptive[switch]/skew": "25c302ae1c46d47bdf6cc4733cb6415488ea765314cb03d062fbe2682f93367c",
    "approx@0.25/skew": "fef444daf021605970fa9df50b216ba28643d493692f5366d9aa751ab9a3e1a8",
    "adaptive/spill": "f7a24941ba370772c37231878fe913ff4b6b79b13e57268f31794b8dfa50cc5c",
    "approx/spill": "854809b0f3b86a4fe0b85ab145f50d65878079bddc11402beadff5ac09c50e5b",
    "approx(BF)/spill": "d95a3194a7a1b4d3e9c667cc8ef0b6e3321b801fc0334d80103be3984c1d17a3",
    "broadcast/spill": "9721eaba87a0caf75c0fab684c564fc19226e50a22c54a96a2ec9ef46d9d562b",
    "db/spill": "1701b54abcfff134203acce78d31247f2b45fbeef33e8042e983c8bbd4272cb3",
    "db(BF)/spill": "ece60d56f764ac013312d7093cd0939a08dd4121b4a2da6a09d8b4fd7465b4c1",
    "perf/spill": "b23d7cf7e94220dae3006cdb6a286927f171c3d774e4fe4c7ea6f7526ee122cf",
    "repartition/spill": "fef819c157f33313eb73c98a72330904cfb496ec1c2d7cbf7a5209062d3833d4",
    "repartition(BF)/spill": "6afe4e9048b6fe4c87feaacd84ae95f9f3d0fa2f213aafc1f1f61fad68d05dc5",
    "semijoin/spill": "315f2e1867a92b2987ea86d3447a9dbd20a42effe0963b8239f339e863c7d3d4",
    "zigzag/spill": "5ceac930cd28ed671820c0eb49386e289eb8208db02f3f44a1d53b83539ba253",
    "zigzag-db/spill": "39c71615863ee4e2547c75b3b07c70201e0f201d5acfa44b82e4b5c13b846890",
    "adaptive[switch]/spill": "7004c1e81c48d2a7edd418978f9ef43ff40b4cafaf3c99455950f5bd149ddda4",
    "approx@0.25/spill": "a1833a3cead1f3784e40529ad4dd57ca13b5c039b8dcf7a478c83d2b8c325648",
    "adaptive/crash": "c1493e84768efbb4f06af6f1f9b06b67438958b2a945f2ad70838c38a99249d3",
    "broadcast/crash": "b27c2086b59d4cb333a990c0aed0b7a0c0d082570f31404460e794d354d85f60",
    "db/crash": "65a215ddd58737eace6fda8aca7d567c1d2e3b00a77268e50999b120bf69719f",
    "db(BF)/crash": "3ccffd1e698ad14c28f115c4f99070dcd7c9f26f22b56ecb3d60967312edfb81",
    "perf/crash": "e073f3c9986280afaeddebce229ba76e92585247abee42217934f0168421780f",
    "repartition/crash": "606e73cd01547727ff0db0bfd065bcedef9de0f2fc75cc8363b67fdd4076bfa7",
    "repartition(BF)/crash": "9c5eeaeb152490443b9c8f5d406318ba0fa41434255f75671c53ec89f9003962",
    "semijoin/crash": "f04c5f5f75e31dd2cbf460cb900174e57641e10229ca574b7c00b1c1d4577228",
    "zigzag/crash": "21ba68c02824d58187541567233432408fd68744316ecb4ede5f91255fc6ff24",
    "zigzag-db/crash": "7278f8132c267ecd2f88049a6e2d5b6fbeece50c1ae6d48a6cbcbd3f6ed969c9",
    "adaptive[switch]/crash": "40875d5c9aea99d235e0a92639088f41083555b2ebf24fc1fc0ca8d3ceb5dd4e",
}


BENCHMARK_PINS: Dict[str, str] = {
    "scan_zigzag": "58056103d1bfc472ee4c5a88503e7656aee8ce54a8c46472a0b655decf355e71",
    "shuffle_repartition": "53be4f9b9a7da5c3f3119622746dad5a2cd0cf102f317aac196da082cd8ac11e",
    "db_thin_text": "6399aa71ff27a1ed8e80413d6ac8074346262a8307c30ef765e0206ed4764660",
    "service_stream": "bb253f482d1cbe24ace8bcfb2e518ae4336b5693badb735394724b36f61d4e16",
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
        .adaptive.switched
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
