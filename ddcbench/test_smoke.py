"""Smoke test of the benchmark at tiny size.

    python3 -m pytest ddcbench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that the oracle checks ran and passed, and that the benchmark refuses to run
without the ddckit sources beside it.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "ddcbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_and_checks_run(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1

    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(math.isfinite(v["value"]) for v in last["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in last["metrics"].values())

    suffix = ".trace.json" if trace else ".json"
    result = json.loads((BENCH_DIR / "out" / f"{workload}{suffix}").read_text())
    checks = result["checks"]
    if workload == "noise_study":
        assert len(checks["z_vs_analytic"]) == 10
        assert all(abs(c["z"]) <= c["bound"] for c in checks["z_vs_analytic"].values())
    elif workload == "control":
        assert 0 < checks["worst"]["stream_rel"] <= 1e-12
    else:
        # The two-pole impulse sums miss their stated tail bound.
        assert any(k.startswith("h2.two-pole") for k in checks["precision_misses_by_kind"])
    if workload != "design":
        assert len(checks["digest_sha256"]) == 64
    if trace:
        layers = {k: v["value"] for k, v in result["per_layer"].items()}
        assert result["per_layer"]["trace.overhead"]["unit"] == "ratio"
        if workload == "control":
            assert result["sanity_ess"]["shares"]
        if workload == "design":
            # 42 of the 96 queries per cycle call h2_norm_sq directly; the
            # rest of its calls come from inside tune_lp_bandwidth.
            direct = layers["analysis.h2_norm_sq.calls"] - (
                layers["analysis.tune_lp_bandwidth.evaluations"]
                * layers["analysis.tune_lp_bandwidth.calls"]
            )
            assert abs(direct - 42 / 96) < 1e-9


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out"))
    done = _run(tmp_path, "control", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
