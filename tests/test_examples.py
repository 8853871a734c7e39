"""Smoke tests: every example script runs to completion.

Run as subprocesses so the examples stay honest standalone programs;
marked for the end of the suite since each takes a few seconds.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"
EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))

EXPECTED_MARKERS = {
    "quickstart.py": ["zigzag", "result_return"],
    "ad_campaign.py": ["advisor picks", "url_prefix"],
    "advisor_tour.py": ["winner=", "zigzag"],
    "format_study.py": ["parquet", "Bloom filter gain"],
    "scaling_study.py": ["crossover", "zigzag"],
    "sql_interface.py": ["auto mode picked", "identical"],
    "star_schema.py": ["in-database dimension join", "identical"],
    "failure_drill.py": ["result correct: True", "critical path"],
}


def test_example_inventory():
    """The repo ships the eight documented examples."""
    assert set(EXAMPLES) == set(EXPECTED_MARKERS)


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs(script):
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    for marker in EXPECTED_MARKERS[script]:
        assert marker in completed.stdout, (script, marker)
