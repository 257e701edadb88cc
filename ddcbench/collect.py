"""Run the benchmark over several seeds, one run at a time, and summarize.

    python3 ddcbench/collect.py --seeds 1-10 [--out ddcbench/out/collect.json]

For each workload of BENCHMARK.json and each end-to-end metric it reports
the median and the quartile spread, (Q3 - Q1) / median with quartiles from
``statistics.quantiles(values, n=4)``, next to the metric's bound.  One
traced run per workload (first seed) adds the per-layer metrics.  Each run's full report (with the metrics that are printed
but not gated, and its digest) is kept under ``reports``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """The run's last stdout line and its full result file."""
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall_s = time.perf_counter() - t0
    if done.returncode != 0:
        sys.exit(f"error: {' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    suffix = ".trace.json" if trace else ".json"
    full = json.loads((BENCH_DIR / "out" / f"{workload}{suffix}").read_text())
    full["wall_s"] = wall_s
    return json.loads(done.stdout.strip().splitlines()[-1]), full


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default=str(BENCH_DIR / "out" / "collect.json"))
    args = parser.parse_args()

    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict = {"seeds": seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs, reports = [], []
        for seed in seeds:
            result, full = run_once(spec, workload, seed, 0)
            runs.append(result)
            reports.append({k: v for k, v in full["untraced"].items() if k != "by_kind"})
            reports[-1]["digest_sha256"] = full["checks"].get("digest_sha256")
            reports[-1]["wall_s"] = full["wall_s"]
            values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)
        metrics = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            metrics[name] = {
                "unit": runs[0]["metrics"][name]["unit"],
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": spread,
                "bound": bound,
                "values": values,
            }
            print(f"  {workload} {name}: median {median:.5g} spread {spread:.2%} "
                  f"(bound {bound:.0%}, a third {bound / 3:.2%})", flush=True)
        entry = {
            "environment": full["environment"],
            "metrics": metrics,
            "reports": reports,
            "all_correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
        }
        _, full = run_once(spec, workload, seeds[0], 1)
        entry["traced"] = {
            key: full[key] for key in ("per_layer", "overhead", "sanity_ess", "wall_s")
        }
        summary["workloads"][workload] = entry
    Path(args.out).parent.mkdir(exist_ok=True)
    Path(args.out).write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
