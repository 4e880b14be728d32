"""Spread of the end-to-end metrics over recorded runs.

    python3 perfbench/spread.py [--since N]

Reads ``perfbench/_runs/results.jsonl`` (untraced runs only; with
``--since N`` only the records from line N on) and prints, per workload
and metric, the number of runs, the median, and the distance between the
first and third quartile as a share of the median — next to the
metric's bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--since", type=int, default=0)
    args = parser.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    lines = (HERE / "_runs" / "results.jsonl").read_text(encoding="utf-8").splitlines()
    values: dict[tuple[str, str], list[float]] = {}
    for line in lines[args.since :]:
        record = json.loads(line)
        if record["environment"]["trace"]:
            continue
        for name, metric in record["metrics"].items():
            values.setdefault((record["workload"], name), []).append(metric["value"])
    bounds = {metric["name"]: metric["bound"] for metric in bench["end_to_end"]}
    print(
        f"{'workload':<16} {'metric':<12} {'runs':>4} {'median':>10} "
        f"{'iqr/med':>8} {'bound':>6}"
    )
    for (workload, name), series in sorted(values.items()):
        if len(series) < 2:
            continue
        q1, _, q3 = statistics.quantiles(series, n=4)
        mid = statistics.median(series)
        print(
            f"{workload:<16} {name:<12} {len(series):>4} {mid:>10.4g} "
            f"{(q3 - q1) / mid:>8.3f} {bounds.get(name, float('nan')):>6}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
