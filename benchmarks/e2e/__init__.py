"""The repo's one benchmark: end-to-end and per-layer, both clocks.

Run ``python -m benchmarks.e2e`` from the repository root (see
README.md in this directory).  ``BENCHMARK.json`` at the root names the
command, the workloads and every metric; :mod:`benchmarks.e2e.metrics`
is the same catalogue with the prose the JSON schema has no room for.

The engine under test is the ``repro`` package in ``src/``.  The
benchmark command may name no path outside this directory, so the
package makes ``src/`` importable itself instead of asking the caller
for ``PYTHONPATH=src``.
"""

import pathlib
import sys

#: Root of the checkout the benchmark runs in.
REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

_SRC = str(REPO_ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
