"""Tier-1 smoke test of the end-to-end benchmark harness.

Runs ``run.py --smoke`` (every workload at toy sizes: one short block, the
traced pass and the probes included) and checks that every workload and every
metric ``BENCHMARK.json`` names comes out with a finite value and that no
request failed.  No wall-clock assertion: a slow host must not turn this red.
"""

import json
import math
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def test_smoke_run_reports_every_metric_of_every_workload(tmp_path):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] > 0

    results = json.loads((tmp_path / "results.json").read_text())["results"]
    by_workload = {result["workload"]: result for result in results}
    assert set(by_workload) == {w["name"] for w in benchmark["workloads"]}
    for name, result in by_workload.items():
        assert result["failed"] == 0 and result["correct"], name
        for kind in ("end_to_end", "per_layer"):
            for metric in benchmark[kind]:
                value = result[kind].get(metric["name"])
                assert value is not None, f"{name}: {metric['name']} missing"
                assert math.isfinite(value), f"{name}: {metric['name']} = {value}"
                assert metric["name"] in done.stdout
        assert (tmp_path / f"spans_{name}_seed0.json").exists()
