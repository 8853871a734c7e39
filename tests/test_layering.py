"""Import-graph and option-surface rules over ``src/repro``, read with
``ast``.

Nothing is imported to check them: every ``import`` / ``from ...
import`` statement of every module — including the ones inside
functions — is collected from the source.  A rule fails on the first
module whose statements name a module it must not, or, for the oracle,
on any name outside its allow-list.  The option surface of the service,
admission, skew, adaptive and fault planes is pinned field by field and
parameter by parameter.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Set

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def imported_names(path: Path) -> Set[str]:
    """Every module a file's import statements can bind.

    ``from a.b import c`` counts as ``a.b`` and ``a.b.c`` (``c`` may be
    a submodule); relative imports are resolved against the file's
    package.
    """
    name = module_name(path)
    package = name if path.name == "__init__.py" \
        else name.rpartition(".")[0]
    names: Set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[:len(anchor) - (node.level - 1)]
                base = ".".join(anchor + ([base] if base else []))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


IMPORTS: Dict[str, Set[str]] = {
    module_name(path): imported_names(path)
    for path in sorted((SRC / "repro").rglob("*.py"))
}


def importers(target: str) -> Set[str]:
    return {
        module for module, names in IMPORTS.items()
        if any(name == target or name.startswith(target + ".")
               for name in names)
    }


def called_names(path: Path) -> List[str]:
    """The name of every function or method a file calls, once per
    call site (``f(...)`` is ``f``, ``x.f(...)`` is ``f``)."""
    names: List[str] = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                names.append(node.func.id)
            elif isinstance(node.func, ast.Attribute):
                names.append(node.func.attr)
    return names


CALLS: Dict[str, List[str]] = {
    module_name(path): called_names(path)
    for path in sorted((SRC / "repro").rglob("*.py"))
}


def callers(function: str) -> Dict[str, int]:
    """Module -> call sites of ``function`` in it."""
    return {module: names.count(function)
            for module, names in CALLS.items() if function in names}


def test_the_scan_sees_function_local_imports():
    # They are how most cross-layer edges are made.
    assert "repro.core.joins.base" in importers("repro.skew")
    assert "repro.kernels" in importers("repro.kernels.partition")


def test_nothing_imports_the_wire_codec():
    assert importers("repro.kernels.wirecodec") \
        <= {"repro.kernels.wirecodec"}


@pytest.mark.parametrize("module", [
    "repro.jen.exchange", "repro.jen.spill", "repro.net.transfer",
    "repro.edw.worker",
])
def test_data_movement_does_not_import_late_materialization(module):
    assert module in IMPORTS
    assert module not in importers("repro.latemat")


def test_only_latemat_reads_the_late_materialization_toggle():
    """``repro.latemat`` decides and prices every transfer edge's late
    materialization (``transfer_edge``); nothing else asks the toggle."""
    assert set(callers("late_materialization_enabled")) \
        == {"repro.latemat"}


def test_one_scan_pricer():
    """Every executed scan of L is priced by ``add_scan_phase``; the
    advisor's estimate is the only other caller."""
    assert callers("hdfs_scan_seconds") \
        == {"repro.core.advisor": 1, "repro.core.joins.base": 1}


#: The layers the adaptive plane observes.  Its context reaches them as
#: an ``observer`` argument, so none of them may import it; the one
#: exception is the algorithm registry, which imports ``AdaptiveJoin``
#: to register it.
OBSERVED_LAYERS = ("repro.sim", "repro.jen", "repro.edw", "repro.core",
                   "repro.approx")
ALGORITHM_REGISTRY = "repro.core.joins"


def test_the_observed_layers_do_not_import_the_adaptive_plane():
    observed = {
        module for module in importers("repro.adaptive")
        if any(module == layer or module.startswith(layer + ".")
               for layer in OBSERVED_LAYERS)
    }
    assert ALGORITHM_REGISTRY in IMPORTS
    assert observed <= {ALGORITHM_REGISTRY}, sorted(observed)


def test_jen_imports_neither_the_skew_plane_nor_the_service():
    """The run hands JEN its heavy-hitter detector, steal threshold and
    join index on its execution context; JEN needs neither plane."""
    jen = {module for module in IMPORTS
           if module == "repro.jen" or module.startswith("repro.jen.")}
    assert "repro.jen.engine" in jen
    offenders = jen & (importers("repro.skew") | importers("repro.service"))
    assert not offenders, sorted(offenders)


#: What the time plane exports: traces and their replay.  The service
#: schedules on ``chunk_ends`` too; an event-by-event kernel is only the
#: tests' reference (``tests/engine_reference.py``).
SIM_EXPORTS = ["Phase", "PhaseTiming", "TimingResult", "Trace",
               "chunk_ends", "replay_trace"]
PROCESS_API = {"AllOf", "Event", "Resource", "SimEngine", "Timeout"}


def test_no_generator_engine_under_src():
    tree = ast.parse((SRC / "repro" / "sim" / "__init__.py").read_text())
    exported = [ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and node.targets[0].id == "__all__"]
    assert exported == [SIM_EXPORTS]
    assert not importers("repro.sim.engine")
    imported = {name.rpartition(".")[2]
                for names in IMPORTS.values() for name in names}
    defined = {node.name for path in (SRC / "repro").rglob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef)}
    assert not (imported | defined) & PROCESS_API


#: All the oracle may take from ``repro``: the query's shape and the
#: schema and table types.  No kernel, join operator, plan step or
#: ``group_by_aggregate``, so a bug in one cannot cancel out between an
#: engine and the reference it is checked against.
ORACLE_MAY_IMPORT = {
    "repro.query.query.HybridQuery",
    "repro.relational.aggregates.AggregateSpec",
    "repro.relational.schema.Column",
    "repro.relational.schema.DataType",
    "repro.relational.schema.Schema",
    "repro.relational.table.Table",
    "repro.relational.table.table_from_rows",
}


def repro_imports(path: Path) -> Set[str]:
    """The fully qualified ``repro`` names a file's imports bind;
    relative imports keep their leading dots (so never match)."""
    names: Set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names
                         if alias.name.split(".")[0] == "repro")
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            if node.level or base.split(".")[0] == "repro":
                names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_the_oracle_imports_only_the_query_and_table_types():
    names = repro_imports(SRC / "repro" / "testkit" / "oracle.py")
    assert "repro.relational.table.Table" in names
    assert names <= ORACLE_MAY_IMPORT, sorted(names - ORACLE_MAY_IMPORT)


#: Phases the join stages price.  Each is priced at one ``trace.add``
#: call site under ``core/joins``, so a plane change edits one stage
#: instead of a copy per algorithm.
STAGE_PHASES = (
    "startup", "db_filter", "hdfs_scan", "jen_shuffle", "db_export",
    "jen_hot_relay", "work_steal", "hash_build", "spill_io", "probe",
    "aggregate", "result_return", "bf_h_merge", "bf_h_send", "hdfs_to_db",
    "payload_fetch_l", "db_internal_shuffle", "db_join",
)


def trace_add_sites(path: Path) -> Dict[str, int]:
    """Literal phase name -> ``trace.add`` (or scan pricer
    ``add_scan_phase(trace, costing, name, ...)``) call sites in one
    file."""
    sites: Dict[str, int] = {}
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.Call):
            continue
        func, name = node.func, None
        if (isinstance(func, ast.Attribute) and func.attr == "add"
                and node.args and isinstance(node.args[0], ast.Constant)):
            owner = func.value
            if (isinstance(owner, ast.Name) and owner.id == "trace") or (
                    isinstance(owner, ast.Attribute)
                    and owner.attr == "trace"):
                name = node.args[0].value
        elif (isinstance(func, ast.Name) and func.id == "add_scan_phase"
                and len(node.args) > 2
                and isinstance(node.args[2], ast.Constant)):
            name = node.args[2].value
        if name is not None:
            sites[name] = sites.get(name, 0) + 1
    return sites


def test_each_stage_phase_is_priced_at_one_call_site():
    sites: Dict[str, int] = {}
    for path in sorted((SRC / "repro" / "core" / "joins").glob("*.py")):
        for name, count in trace_add_sites(path).items():
            sites[name] = sites.get(name, 0) + count
    assert {name: sites.get(name, 0) for name in STAGE_PHASES} \
        == {name: 1 for name in STAGE_PHASES}


#: Every settable field of the plane configs, and every parameter of the
#: plane constructors that used to carry a tunable.  Each field has a
#: caller outside ``tests/`` (the CLI, the benchmarks or the testkit);
#: a tunable nobody sets is a named constant next to its reader.  A new
#: knob needs such a caller, an entry here and a line in docs/api.md.
CONFIG_FIELDS = {
    ("service/server.py", "ServiceConfig"): [
        "admission", "enable_result_cache", "enable_feedback",
        "enable_adaptive", "approx_policy",
    ],
    ("service/admission.py", "AdmissionConfig"): [
        "slots", "max_queue", "queue_timeout", "shed_fraction",
        "degrade_to_approx",
    ],
}
PARAMETERS = {
    ("service/scheduler.py", "SharedCluster.__init__"): [],
    ("service/admission.py", "AdmissionController.__init__"): [
        "timeline", "config", "metrics",
    ],
    ("skew/detector.py", "HeavyHitterDetector.__init__"): ["num_workers"],
    ("adaptive/reoptimizer.py", "ReOptimizer.__init__"): [
        "advisor", "incumbent", "base_estimate", "exclude", "bank",
    ],
    ("adaptive/algorithm.py", "AdaptiveJoin.__init__"): [
        "estimate", "estimate_errors",
    ],
    ("faults/injector.py", "FaultInjector.__init__"): ["plan"],
    ("jen/engine.py", "Jen.arm_faults"): ["plan", "seed"],
    ("warehouse.py", "HybridWarehouse.arm_faults"): ["plan", "seed"],
}


def class_node(path: str, name: str) -> ast.ClassDef:
    tree = ast.parse((SRC / "repro" / path).read_text(), path)
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    raise AssertionError(f"no class {name} in {path}")


def field_names(path: str, name: str) -> List[str]:
    return [node.target.id for node in class_node(path, name).body
            if isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)]


def parameter_names(path: str, qualname: str) -> List[str]:
    """A method's parameters, ``self`` dropped, ``*args`` and
    ``**kwargs`` kept with their stars."""
    class_name, method = qualname.split(".")
    for node in class_node(path, class_name).body:
        if isinstance(node, ast.FunctionDef) and node.name == method:
            args = node.args
            names = [arg.arg for arg in args.posonlyargs + args.args]
            if args.vararg:
                names.append("*" + args.vararg.arg)
            names += [arg.arg for arg in args.kwonlyargs]
            if args.kwarg:
                names.append("**" + args.kwarg.arg)
            return names[1:]
    raise AssertionError(f"no method {qualname} in {path}")


@pytest.mark.parametrize("path, name", sorted(CONFIG_FIELDS))
def test_config_fields_are_pinned(path, name):
    assert field_names(path, name) == CONFIG_FIELDS[path, name]


@pytest.mark.parametrize("path, qualname", sorted(PARAMETERS))
def test_plane_constructor_parameters_are_pinned(path, qualname):
    assert parameter_names(path, qualname) == PARAMETERS[path, qualname]
