"""Run ``repro serve`` for the benchmark, optionally traced.

``python3 perfbench/serve.py '<json params>'`` calls the CLI's ``serve``
command on ``params["data_dir"]`` / ``params["socket"]``.  With
``"trace": true`` it first wraps the inner-layer functions a service job
enters (``util.fsio`` writes, ``CheckpointStore.write``/``load`` and the
archive write inside ``run_job``), and on shutdown writes the spans to
``params["spans_out"]``.  On exit it writes its peak RSS to
``params["exit_out"]``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import peak_rss_mb, use_checkout_source  # noqa: E402
from spans import SpanRecorder, install_wrappers  # noqa: E402


def main(argv: list[str]) -> int:
    params = json.loads(argv[0])
    use_checkout_source()
    from repro import cli
    import repro.service.runner  # noqa: F401 — binds the names wrapped below

    recorder = SpanRecorder(prefix="svc.")
    if params.get("trace", False):
        install_wrappers(recorder, service=True)
    code = cli.main(
        ["serve", "--data-dir", params["data_dir"], "--socket", params["socket"]]
    )
    if params.get("trace", False):
        recorder.write_jsonl(params["spans_out"])
    Path(params["exit_out"]).write_text(
        json.dumps({"code": code, "peak_rss_mb": peak_rss_mb()}), encoding="utf-8"
    )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
