"""Run the crawl examples end to end.

``trace_crawl.py`` and ``profile_crawl.py`` drive a sequential and a
sharded campaign through the merge and print their own cross-checks:
the two runs' counters agree, and the profiler's straggler finishes when
the merged report does.  Both write into ``tempfile.gettempdir()``, so
each run gets a private ``TMPDIR``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    ("script", "expected"),
    [
        ("trace_crawl.py", "agree on every counter"),
        ("profile_crawl.py", "they match"),
    ],
)
def test_crawl_example_cross_checks(tmp_path, script, expected):
    pythonpath = os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, str(REPO / "examples" / script), "300"],
        capture_output=True,
        text=True,
        env={**os.environ, "TMPDIR": str(tmp_path), "PYTHONPATH": pythonpath},
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert expected in completed.stdout
