"""Import-graph and option-surface rules over ``src/repro``, read with
``ast``.

Nothing is imported to check them: every ``import`` / ``from ...
import`` statement of every module — including the ones inside
functions — is collected from the source.  A rule fails on the first
module whose statements name a module it must not, or, for the oracle,
on any name outside its allow-list.  The option surface of the service,
admission, skew, adaptive and fault planes and of a run's execution
context is pinned field by field and parameter by parameter, ``Jen``
keeps no state across runs, a trace's metadata carries only
``bytes_shipped``, every definition must have a caller outside
``tests/`` and every field, constant and ``self`` store a reader there,
and ``scripts/entry_coverage.py``'s allowlist names real definitions.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Set

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


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
    assert "repro.adaptive.algorithm" in importers("repro.query.stats")
    assert "repro.kernels" in importers("repro.kernels.partition")


def test_the_runtime_does_not_import_the_testkit():
    """A run's invariant checker reaches it on its execution context;
    no runtime module imports the test kit (the CLI's ``chaos`` and
    ``fuzz`` commands import it inside their functions)."""
    offenders = {
        module for module in importers("repro.testkit")
        if not (module == "repro.__main__"
                or module.split(".")[:2] in (["repro", "testkit"],
                                             ["repro", "bench"]))
    }
    assert not offenders, sorted(offenders)


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
    """The run hands JEN its hot keys, steal threshold and join index;
    JEN needs neither plane."""
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
    ("core/joins/base.py", "ExecutionContext"): [
        "observers", "bloom_builder", "index_for", "faults",
    ],
}
PARAMETERS = {
    ("service/scheduler.py", "SharedCluster.__init__"): [],
    ("service/admission.py", "AdmissionController.__init__"): [
        "timeline", "config", "metrics",
    ],
    ("adaptive/reoptimizer.py", "ReOptimizer.__init__"): [
        "advisor", "incumbent", "base_estimate", "exclude", "bank",
    ],
    ("adaptive/algorithm.py", "AdaptiveJoin.__init__"): [
        "estimate", "estimate_errors",
    ],
    ("faults/injector.py", "FaultInjector.__init__"): ["plan"],
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


def self_assignments(path: str, name: str) -> Dict[str, List[str]]:
    """Method -> the attributes of ``self`` it assigns or aug-assigns,
    for every method of class ``name`` but ``__init__``."""
    found: Dict[str, List[str]] = {}
    for method in class_node(path, name).body:
        if not isinstance(method, ast.FunctionDef) \
                or method.name == "__init__":
            continue
        for node in ast.walk(method):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for part in ast.walk(target):
                    if (isinstance(part, ast.Attribute)
                            and isinstance(part.ctx, ast.Store)
                            and isinstance(part.value, ast.Name)
                            and part.value.id == "self"):
                        found.setdefault(method.name, []).append(part.attr)
    return found


def metadata_writes() -> List[tuple]:
    """``(module, line, key)`` of every ``<x>.metadata[key] = ...``
    store and every ``<x>.metadata.update`` / ``.setdefault`` call
    (its method name as the key) under ``src/repro``."""
    found = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = module_name(path)
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Subscript)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "metadata"):
                key = node.slice.value \
                    if isinstance(node.slice, ast.Constant) else None
                found.append((module, node.lineno, key))
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("update", "setdefault")
                    and isinstance(node.func.value, ast.Attribute)
                    and node.func.value.attr == "metadata"):
                found.append((module, node.lineno, node.func.attr))
    return sorted(found)


def test_trace_metadata_carries_only_bytes_shipped():
    """What a run's planes observed rides its ``JoinResult`` as typed
    fields; the trace's metadata holds only the ``bytes_shipped``
    classification, written where every run is finished."""
    assert [(module, key) for module, _, key in metadata_writes()] \
        == [("repro.core.joins.base", "bytes_shipped")]


def test_jen_keeps_no_state_across_runs():
    """A run's membership and fault plan ride its own ``RunCluster``;
    past its constructor, ``Jen`` never changes an attribute, so two
    runs on one warehouse cannot see each other's crashes."""
    assert self_assignments("jen/engine.py", "Jen") == {}


@pytest.mark.parametrize("path, name", sorted(CONFIG_FIELDS))
def test_config_fields_are_pinned(path, name):
    assert field_names(path, name) == CONFIG_FIELDS[path, name]


@pytest.mark.parametrize("path, qualname", sorted(PARAMETERS))
def test_plane_constructor_parameters_are_pinned(path, qualname):
    assert parameter_names(path, qualname) == PARAMETERS[path, qualname]


#: Definitions under ``src/repro`` that only ``tests/`` calls, and why
#: each stays.  Anything else a test alone needs lives in ``tests/``
#: (``kernel_reference``, ``engine_reference``) or in ``repro.testkit``.
REFERENCE_MODEL = "reference model a test compares the engine against"
ACCESSOR = "accessor a test observes kept behaviour through"
TEST_ONLY = {
    "repro.core.bloom.BloomFilter.expected_fpr": REFERENCE_MODEL,
    "repro.core.bloom.BloomFilter.num_added": ACCESSOR,
    "repro.core.bloom.BloomFilter.is_empty": ACCESSOR,
    "repro.edw.database.ParallelDatabase.gather_table": ACCESSOR,
    "repro.hdfs.datanode.DataNode.evict": ACCESSOR,
    "repro.service.admission.AdmissionController.in_flight": ACCESSOR,
    "repro.service.admission.AdmissionController.queue_depth": ACCESSOR,
}
#: Decorators that register what they wrap: the registry is its caller.
REGISTRARS = {"register_algorithm", "_register"}


def definitions(path: Path):
    """``(qualname, node)`` of every module-level function and class and
    every method or class nested in a class."""
    found = []
    pending = [("", ast.parse(path.read_text(), str(path)).body)]
    while pending:
        prefix, body = pending.pop()
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                found.append((prefix + node.name, node))
                if isinstance(node, ast.ClassDef):
                    pending.append((f"{prefix}{node.name}.", node.body))
    return found


def references(path: Path):
    """``(name, line)`` of every name a file reads (``f``, ``x.f``) or
    imports; a package ``__init__``'s re-exports do not count."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.append((node.id, node.lineno))
        elif (isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)):
            found.append((node.attr, node.lineno))
        elif (isinstance(node, ast.ImportFrom)
                and path.name != "__init__.py"):
            found.extend((alias.name, node.lineno) for alias in node.names)
    return found


def caller_files():
    """Where a caller counts: the package, the benchmarks (not their
    self-tests), the examples and the scripts."""
    yield from (SRC / "repro").rglob("*.py")
    harness_tests = ROOT / "benchmarks" / "e2e" / "tests"
    yield from (path for path in (ROOT / "benchmarks").rglob("*.py")
                if harness_tests not in path.parents)
    yield from (ROOT / "examples").rglob("*.py")
    yield from (ROOT / "scripts").rglob("*.py")


def registered(node) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        if isinstance(target, ast.Name) and target.id in REGISTRARS:
            return True
    return False


def uncalled_definitions() -> Set[str]:
    """Qualified names of the definitions outside ``repro.testkit`` that
    nothing in :func:`caller_files` names outside the definition."""
    sites: Dict[str, List[tuple]] = {}
    for path in caller_files():
        for name, line in references(path):
            sites.setdefault(name, []).append((path, line))
    uncalled = set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = module_name(path)
        if module.startswith("repro.testkit"):
            continue
        for qualname, node in definitions(path):
            name = node.name
            if (name.startswith("__") and name.endswith("__")) \
                    or registered(node):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(site != path or line not in own
                       for site, line in sites.get(name, ())):
                uncalled.add(f"{module}.{qualname}")
    return uncalled


def test_every_definition_has_a_caller_outside_tests():
    """A function, method or class nobody outside ``tests/`` names is
    deleted, its test with it; ``TEST_ONLY`` is the exact exception
    list, so a stale entry fails too."""
    uncalled = uncalled_definitions()
    assert sorted(uncalled - set(TEST_ONLY)) == []
    assert sorted(set(TEST_ONLY) - uncalled) == []
    assert set(TEST_ONLY.values()) <= {REFERENCE_MODEL, ACCESSOR}


#: Why ``scripts/entry_coverage.py`` may leave a function unentered.
ENTRY_COVERAGE_REASONS = {"error-path", "repr", "protocol-default",
                          "benchmark-hook"}


def entry_coverage_allowlist() -> Dict[str, str]:
    """``scripts/entry_coverage.py``'s ``ALLOWLIST``, its reasons
    resolved through the script's module constants."""
    tree = ast.parse((ROOT / "scripts" / "entry_coverage.py").read_text())
    constants, allowlist = {}, None
    for node in tree.body:
        target = node.target if isinstance(node, ast.AnnAssign) \
            else node.targets[0] if isinstance(node, ast.Assign) else None
        if not isinstance(target, ast.Name):
            continue
        if isinstance(node.value, ast.Constant):
            constants[target.id] = node.value.value
        elif target.id == "ALLOWLIST":
            allowlist = node.value
    return {key.value: constants.get(value.id, value.id)
            for key, value in zip(allowlist.keys, allowlist.values)}


def test_the_entry_coverage_allowlist_names_src_functions():
    """Each entry is a function or method of ``src/repro`` outside the
    testkit, kept for one reason of the closed set, and not one the
    tests already keep (``TEST_ONLY``): a rename fails here, not only
    in the profiled run."""
    functions = {
        f"{module_name(path)}.{qualname}"
        for path in (SRC / "repro").rglob("*.py")
        if not module_name(path).startswith("repro.testkit")
        for qualname, node in definitions(path)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    allowlist = entry_coverage_allowlist()
    assert sorted(set(allowlist) - functions) == []
    assert set(allowlist.values()) <= ENTRY_COVERAGE_REASONS
    assert sorted(set(allowlist) & set(TEST_ONLY)) == []
    assert len(allowlist) <= 60

#: Fields, class attributes, constants and ``self`` stores under
#: ``src/repro`` that only ``tests/`` reads, and why each stays.
TEST_ONLY_FIELDS = {
    "repro.core.joins.base.JoinResult.join_slot_loads": ACCESSOR,
    "repro.core.joins.base.JoinStats.hdfs_rows_after_bloom": ACCESSOR,
    "repro.core.joins.base.JoinStats.hdfs_rows_discarded": ACCESSOR,
    "repro.core.joins.base.JoinStats.hot_tuples_rerouted": ACCESSOR,
    "repro.edw.worker.DbWorker.server_id": ACCESSOR,
    "repro.jen.scheduler.StealPlan.post_balance": ACCESSOR,
}


def stored_names(node) -> List[str]:
    """The plain names an assignment statement binds."""
    targets = node.targets if isinstance(node, ast.Assign) \
        else [node.target]
    return [part.id for target in targets for part in ast.walk(target)
            if isinstance(part, ast.Name) and isinstance(part.ctx, ast.Store)]


def field_definitions(path: Path):
    """``(qualname, name, statement)`` of every module constant, every
    field or attribute a class body assigns (enum members included) and
    every ``self.<attr>`` a method stores."""
    found = []
    tree = ast.parse(path.read_text(), str(path))
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            found += [(name, name, node) for name in stored_names(node)]
    pending = [("", node) for node in tree.body
               if isinstance(node, ast.ClassDef)]
    while pending:
        prefix, cls = pending.pop()
        qualname = prefix + cls.name
        for node in cls.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                found += [(f"{qualname}.{name}", name, node)
                          for name in stored_names(node)]
            elif isinstance(node, ast.ClassDef):
                pending.append((qualname + ".", node))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for statement in ast.walk(node):
                    if not isinstance(statement, (ast.Assign, ast.AnnAssign,
                                                  ast.AugAssign)):
                        continue
                    targets = statement.targets \
                        if isinstance(statement, ast.Assign) \
                        else [statement.target]
                    found += [
                        (f"{qualname}.{part.attr}", part.attr, statement)
                        for target in targets for part in ast.walk(target)
                        if isinstance(part, ast.Attribute)
                        and isinstance(part.ctx, ast.Store)
                        and isinstance(part.value, ast.Name)
                        and part.value.id == "self"]
    return found


def unread_fields() -> Set[str]:
    """Qualified names of the fields, constants and ``self`` stores
    outside ``repro.testkit`` whose name nothing in
    :func:`caller_files` reads outside the statement that binds it."""
    sites: Dict[str, List[tuple]] = {}
    for path in caller_files():
        for name, line in references(path):
            sites.setdefault(name, []).append((path, line))
    unread = set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = module_name(path)
        if module.startswith("repro.testkit"):
            continue
        for qualname, name, node in field_definitions(path):
            if name.startswith("__") and name.endswith("__"):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(site != path or line not in own
                       for site, line in sites.get(name, ())):
                unread.add(f"{module}.{qualname}")
    return unread


def test_every_field_has_a_reader_outside_tests():
    """A field, class attribute, constant or ``self`` store nobody
    outside ``tests/`` reads is deleted with its writers;
    ``TEST_ONLY_FIELDS`` is the exact exception list, so a stale entry
    fails too."""
    unread = unread_fields()
    assert sorted(unread - set(TEST_ONLY_FIELDS)) == []
    assert sorted(set(TEST_ONLY_FIELDS) - unread) == []
    assert set(TEST_ONLY_FIELDS.values()) <= {REFERENCE_MODEL, ACCESSOR}
