#!/usr/bin/env python
"""Execution coverage: every ``src/repro`` function runs from an entry point.

Usage:  python scripts/entry_coverage.py

Runs each command of ENTRY_POINTS in a child process whose
``PYTHONPATH`` starts with a throwaway ``sitecustomize.py``; that module
hooks ``sys.setprofile`` and, at exit, writes every code object under
``src/repro`` it saw entered (children of children inherit the hook).
Every function and method outside ``repro.testkit`` (the scope of
``tests/test_layering.py``'s definition scan) that no entry point
entered must be on ALLOWLIST, with one reason from REASONS; the
definitions ``test_layering.TEST_ONLY`` keeps for the tests are that
scan's business, not this one's.

Exits 1 when an entry point fails, a function is unentered and not
allowlisted, or an allowlisted function was entered (a stale entry).
"""

from __future__ import annotations

import ast
import concurrent.futures
import os
import pathlib
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

#: The entry points: each is one command run from the repository root.
#: A plane that none of them reaches is reached by adding one here (a
#: CLI form, an example, an experiment row or a fuzz axis), not by an
#: allowlist entry.
ENTRY_POINTS: List[List[str]] = [
    # The chaos CLI under a mixed plan and under a crash at shuffle
    # time; the progressive approx run and the adaptive stream are the
    # CLI's readers of a run's approx and adaptive reports.
    ["-m", "repro", "chaos", "--faults",
     "crash:w7@scan,slow:w3x5,drop:shuffle:0.02",
     "--algorithms", "zigzag", "repartition(BF)"],
    ["-m", "repro", "chaos", "--faults", "crash:w3@shuffle"],
    ["-m", "repro", "approx", "--progressive", "--rate", "0.5"],
    ["-m", "repro", "serve", "--adaptive", "--slots", "1"],
    ["-m", "repro", "demo"],
    ["-m", "repro", "sql", "--algorithm", "zigzag",
     "SELECT L.groupByExtractCol, COUNT(*) FROM T, L "
     "WHERE T.joinKey = L.joinKey GROUP BY L.groupByExtractCol"],
    ["-m", "repro", "chaos", "--faults", "spill:x0.5,abort:scan:1",
     "--algorithms", "repartition"],
    ["-m", "repro", "serve", "--queries", "8", "--slots", "8",
     "--arrival-gap", "60", "--json"],
    ["-m", "repro", "serve", "--queries", "12", "--slots", "1",
     "--approx-degrade"],
    ["-m", "repro", "approx", "--bloom", "--max-error", "0.05"],
    ["-m", "repro", "advise", "--sigma-t", "0.1", "--sigma-l", "0.2"],
    ["-m", "repro", "sweep"],
    ["-m", "repro", "experiments", "--figures"],
    ["-m", "repro", "experiments", "table1"],
    ["-m", "repro", "fuzz", "--seeds", "2015", "--cells-per-seed", "10",
     "--rows-scale", "0.3", "--edge-cases"],
] + [[str(path.relative_to(ROOT))]
     for path in sorted((ROOT / "examples").glob("*.py"))]
#: One entry point taking longer than this fails (the slowest takes
#: about 12 s on two cores).
ENTRY_TIMEOUT_SECONDS = 600

#: Why an unentered function stays.  Nothing else qualifies: a plane no
#: entry point reaches gets an entry point or goes.
ERROR_PATH = "error-path"
REPR = "repr"
PROTOCOL_DEFAULT = "protocol-default"
BENCHMARK_HOOK = "benchmark-hook"
REASONS = {ERROR_PATH, REPR, PROTOCOL_DEFAULT, BENCHMARK_HOOK}

#: Functions no entry point enters, each with its reason (exact: a
#: stale entry fails the run).
ALLOWLIST: Dict[str, str] = {
    # Raised or built only when something has gone wrong: a bad CLI
    # algorithm name, an unrecoverable crash or message loss, a fault
    # the service retries, a trace whose dependencies cannot schedule.
    "repro.core.joins.base.valid_algorithm_names": ERROR_PATH,
    "repro.errors.TransferFaultError.__init__": ERROR_PATH,
    "repro.errors.WorkerCrashError.__init__": ERROR_PATH,
    "repro.faults.injector.FaultInjector.bump_epoch": ERROR_PATH,
    "repro.sim.replay._unscheduled": ERROR_PATH,
    # Debug renderings; popcount is BloomFilter.__repr__'s fill reading.
    "repro.core.bloom.BloomFilter.__repr__": REPR,
    "repro.hdfs.formats.base.StorageFormat.__repr__": REPR,
    "repro.jen.pipeline.PipelineReport.describe": REPR,
    "repro.kernels.bloomops.popcount": REPR,
    "repro.kernels.joinindex.JoinBuildIndex.__repr__": REPR,
    "repro.relational.schema.Schema.__repr__": REPR,
    "repro.relational.table.Table.__repr__": REPR,
    "repro.service.metrics.Counter.__repr__": REPR,
    "repro.service.metrics.Gauge.__repr__": REPR,
    "repro.service.metrics.Histogram.__repr__": REPR,
    "repro.sim.trace.Trace.describe": REPR,
    # Abstract methods every concrete class overrides.
    "repro.core.joins.base.JoinAlgorithm.run": PROTOCOL_DEFAULT,
    "repro.hdfs.formats.base.StorageFormat.column_stored_bytes":
        PROTOCOL_DEFAULT,
    "repro.relational.expressions.Predicate.columns": PROTOCOL_DEFAULT,
    "repro.relational.expressions.Predicate.evaluate": PROTOCOL_DEFAULT,
    # The benchmark's tracer (benchmarks/e2e/layers.py) wraps these by
    # attribute; no engine calls them.  They leave with the tracer's
    # hooks.
    "repro.kernels.joinindex.probe_join": BENCHMARK_HOOK,
    "repro.kernels.wirecodec._classify_column": BENCHMARK_HOOK,
    "repro.kernels.wirecodec._column_bytes": BENCHMARK_HOOK,
    "repro.kernels.wirecodec._encode_column": BENCHMARK_HOOK,
    "repro.kernels.wirecodec._encode_varint": BENCHMARK_HOOK,
    "repro.kernels.wirecodec._varint_length": BENCHMARK_HOOK,
    "repro.kernels.wirecodec._varint_lengths": BENCHMARK_HOOK,
    "repro.kernels.wirecodec._wire_dtype": BENCHMARK_HOOK,
    "repro.kernels.wirecodec._zigzag": BENCHMARK_HOOK,
    "repro.kernels.wirecodec.encode_table": BENCHMARK_HOOK,
    "repro.kernels.wirecodec.encode_varints": BENCHMARK_HOOK,
    "repro.kernels.wirecodec.encoded_table_bytes": BENCHMARK_HOOK,
}

HOOK = '''\
import atexit, os, sys, threading

_PREFIX = os.environ["ENTRY_COVERAGE_PACKAGE"]
_OUT = os.environ["ENTRY_COVERAGE_OUT"]
_entered = set()


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code.co_filename.startswith(_PREFIX):
            _entered.add((code.co_filename, code.co_firstlineno))


def _write():
    path = os.path.join(_OUT, f"{os.getpid()}.txt")
    with open(path, "w") as out:
        out.writelines(f"{name}:{line}\\n" for name, line in _entered)


sys.setprofile(_profile)
threading.setprofile(_profile)
atexit.register(_write)
'''


def module_name(path: pathlib.Path) -> str:
    parts = list(path.relative_to(PACKAGE.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def functions(path: pathlib.Path) -> List[Tuple[str, Set[int]]]:
    """``(qualname, first lines)`` of every module-level function and
    every method of a (nested) class; a decorated function's code
    object starts at its first decorator."""
    found = []
    pending = [("", ast.parse(path.read_text(), str(path)).body)]
    while pending:
        prefix, body = pending.pop()
        for node in body:
            if isinstance(node, ast.ClassDef):
                pending.append((f"{prefix}{node.name}.", node.body))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                lines = {node.lineno}
                lines.update(decorator.lineno
                             for decorator in node.decorator_list)
                found.append((prefix + node.name, lines))
    return found


def scope() -> Dict[Tuple[str, int], str]:
    """``(file, first line) -> qualified name`` of every function in
    ``src/repro`` outside ``repro.testkit``."""
    index = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = module_name(path)
        if module.startswith("repro.testkit"):
            continue
        for qualname, lines in functions(path):
            for line in lines:
                index[str(path), line] = f"{module}.{qualname}"
    return index


def kept_for_tests() -> Set[str]:
    """The keys of ``tests/test_layering.py``'s ``TEST_ONLY``."""
    tree = ast.parse((ROOT / "tests" / "test_layering.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [target.id for target in node.targets
                     if isinstance(target, ast.Name)] == ["TEST_ONLY"]):
            return {key.value for key in node.value.keys}
    raise SystemExit("tests/test_layering.py has no TEST_ONLY")


def run(command: List[str], env: Dict[str, str]):
    """``(command, exit status, output, seconds)`` of one entry point."""
    started = time.time()
    try:
        completed = subprocess.run(
            [sys.executable, *command], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            timeout=ENTRY_TIMEOUT_SECONDS)
        status, output = completed.returncode, completed.stdout
    except subprocess.TimeoutExpired as expired:
        status = None
        output = (expired.output or b"").decode(errors="replace") \
            + f"\ntimed out after {ENTRY_TIMEOUT_SECONDS} s"
    return command, status, output, time.time() - started


def main() -> int:
    index = scope()
    failed = 0
    entered: Set[str] = set()
    with tempfile.TemporaryDirectory() as scratch:
        hook_dir = pathlib.Path(scratch, "hook")
        out_dir = pathlib.Path(scratch, "out")
        hook_dir.mkdir()
        out_dir.mkdir()
        (hook_dir / "sitecustomize.py").write_text(HOOK)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(hook_dir), str(ROOT / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env["ENTRY_COVERAGE_PACKAGE"] = str(PACKAGE) + os.sep
        env["ENTRY_COVERAGE_OUT"] = str(out_dir)
        with concurrent.futures.ThreadPoolExecutor(2) as pool:
            runs = [pool.submit(run, command, env)
                    for command in ENTRY_POINTS]
            for future in runs:
                command, status, output, seconds = future.result()
                print(f"{'ok' if status == 0 else 'FAILED':>6s} "
                      f"{seconds:6.1f}s  python " + " ".join(command))
                if status != 0:
                    failed += 1
                    print(output[-3000:])
        for record in out_dir.iterdir():
            for line in record.read_text().splitlines():
                name, _, first = line.rpartition(":")
                qualname = index.get((name, int(first)))
                if qualname is not None:
                    entered.add(qualname)
    everything = set(index.values())
    test_only = kept_for_tests() - entered
    unentered = everything - entered - test_only
    new = sorted(unentered - set(ALLOWLIST))
    stale = sorted(set(ALLOWLIST) - unentered)
    bad_reasons = sorted(name for name, reason in ALLOWLIST.items()
                         if reason not in REASONS)
    print(f"\n{len(entered)} of {len(everything)} functions entered; "
          f"{len(test_only)} test-only (test_layering.TEST_ONLY), "
          f"{len(unentered)} unentered, {len(ALLOWLIST)} allowlisted")
    for title, names in (("unentered and not allowlisted", new),
                         ("allowlisted but entered (stale)", stale),
                         ("allowlisted with an unknown reason",
                          bad_reasons)):
        if names:
            print(f"\n{title} ({len(names)}):")
            for name in names:
                print(f"  {name}")
    if failed:
        print(f"\n{failed} entry point(s) failed")
    return 1 if failed or new or stale or bad_reasons else 0


if __name__ == "__main__":
    sys.exit(main())
