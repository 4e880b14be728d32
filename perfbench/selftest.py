"""Self-test of the benchmark at tiny scale.

    python3 perfbench/selftest.py

Checks, for every workload, that:

* an untraced run emits every ``end_to_end`` metric of ``BENCHMARK.json``
  with its unit and a traced run every ``per_layer`` metric, both with
  ``correct`` true and no failed operation;
* two runs on one seed produce the same output digest and a different
  seed produces a different one (the seed changes the generated inputs);

and that the benchmark exits non-zero without a result line in a
directory that holds only ``BENCHMARK.json`` and ``perfbench``.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
DIGESTS = {
    "batch_cold": "archive_digest",
    "service_jobs": "mix_digest",
    "reid_population": "ranks_digest",
}


def bench(directory: Path, workload: str, seed: int, trace: int) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "1",
            "--trace", str(trace),
            "--tiny",
        ],
        cwd=directory,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def last_record(workload: str, seed: int) -> dict:
    """The newest results.jsonl record for a workload and seed."""
    lines = (HERE / "_runs" / "results.jsonl").read_text(encoding="utf-8").splitlines()
    for line in reversed(lines):
        record = json.loads(line)
        if record["workload"] == workload and record["environment"]["seed"] == seed:
            return record
    raise AssertionError(f"no results record for {workload} seed {seed}")


def check_workload(spec: dict, workload: str, errors: list[str]) -> None:
    digests = {}
    for seed, trace in ((1, 0), (1, 1), (2, 0)):
        code, lines = bench(ROOT, workload, seed, trace)
        where = f"{workload} seed={seed} trace={trace}"
        if code != 0 or not lines:
            errors.append(f"{where}: exit {code}")
            continue
        result = json.loads(lines[-1])
        if set(result) != RESULT_KEYS:
            errors.append(f"{where}: result keys {sorted(result)}")
            continue
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            errors.append(f"{where}: correct={result['correct']} failed={result['failed']}")
        wanted = spec["per_layer"] if trace else spec["end_to_end"]
        for metric in wanted:
            got = result["metrics"].get(metric["name"])
            if got is None or got.get("unit") != metric["unit"]:
                errors.append(f"{where}: {metric['name']} missing or wrong unit: {got}")
            elif not isinstance(got["value"], (int, float)):
                errors.append(f"{where}: metric {metric['name']} is not a number")
            elif not trace and got["value"] <= 0:
                errors.append(f"{where}: {metric['name']} is {got['value']}")
        extra = set(result["metrics"]) - {metric["name"] for metric in wanted}
        if extra:
            errors.append(f"{where}: unexpected metrics {sorted(extra)}")
        named = last_record(workload, seed)["named"]
        digests[(seed, trace)] = named[DIGESTS[workload]]["value"]
    if len(digests) == 3:
        if digests[(1, 0)] != digests[(1, 1)]:
            errors.append(f"{workload}: one seed gave two digests {digests}")
        if digests[(1, 0)] == digests[(2, 0)]:
            errors.append(f"{workload}: seeds 1 and 2 gave the same inputs {digests}")


def check_bare(errors: list[str]) -> None:
    """Without the program's source the benchmark must fail cleanly."""
    bare = HERE / "_runs" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(
        HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_runs", "__pycache__")
    )
    try:
        code, lines = bench(bare, "batch_cold", 1, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or (lines and lines[-1].startswith("{")):
        errors.append(f"bare checkout: exit {code}, last line {lines[-1:]}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        check_workload(spec, workload, errors)
        print(f"{workload}: {'ok' if not errors else 'FAILED'}", flush=True)
    check_bare(errors)
    for error in errors:
        print(f"FAILED: {error}")
    print("selftest", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
