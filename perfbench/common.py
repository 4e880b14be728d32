"""Helpers shared by the benchmark's parent and child processes."""

from __future__ import annotations

import hashlib
import os
import resource
import sys
import time
from pathlib import Path

#: The checkout root: the benchmark lives in ``<root>/perfbench``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Working files of one checkout's runs (listed in ``.gitignore``).
RUNS = Path(__file__).resolve().parent / "_runs"


class MissingSourceError(RuntimeError):
    """The checkout holds no ``src/repro`` package to benchmark."""


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else.

    The crawl backend stays at each layer's own default, so the
    environment's ``REPRO_CRAWL_BACKEND`` is dropped.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingSourceError(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ.pop("REPRO_CRAWL_BACKEND", None)


def archive_digest(directory: str | Path) -> str:
    """sha256 over an archive directory's file names and bytes."""
    digest = hashlib.sha256()
    for path in sorted(Path(directory).iterdir()):
        if path.is_file():
            digest.update(path.name.encode() + b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
    return digest.hexdigest()


def peak_rss_mb() -> float:
    """This process's peak resident set size (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds() -> float:
    """CPU time (user + system) of this process's threads and its reaped
    children.  Unlike the wall clock it does not count time the process
    waited for a CPU, so it holds steady when the host is busy."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def process_cpu_seconds(pid: int) -> float:
    """CPU time (user + system, all threads) of a live process, from
    ``/proc/<pid>/stat``; resolution is one clock tick."""
    fields = Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()
    # After the command name: state is field 3, utime 14 and stime 15.
    utime, stime = int(fields[11]), int(fields[12])
    return (utime + stime) / os.sysconf("SC_CLK_TCK")
