"""Benchmark for ddckit: one workload per run, end to end or traced.

    python3 ddcbench/run.py --workload {noise_study,control,design} \
        --seed N --seconds S --trace {0,1} [--tiny]

Run from the root of a checkout: ddckit is imported from ``src/`` of that
checkout and never from an installed copy.  The run prints a readable report
and, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The full result
(environment, sample counts, checks, digests) goes to
``ddcbench/out/<workload>[.trace].json``; a traced run also writes its spans
to ``ddcbench/out/<workload>.spans.npz``.

``--tiny`` shrinks streams and set-up probes for the smoke test; its numbers
are not comparable with full runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_PROBES = 3
MIN_CYCLES = 2
# p99 is reported only when at least 10 samples lie beyond it.
TAIL_SAMPLES = 10
PROBE_TIMEOUT_S = 150

# name, unit: the per-layer metrics of BENCHMARK.json, all per benchmark op
# (a noise study, a control block or a design query) unless the unit says otherwise.
PER_LAYER = [
    ("core.filter_stream.self_s", "s/op"),
    ("core.filter_stream.calls", "count/op"),
    ("core.filter_stream.samples", "count/op"),
    ("core.filter_stream.tap_samples", "count/op"),
    ("core.decimate.self_s", "s/op"),
    ("core.decimate.samples", "count/op"),
    ("core.seq_validate.self_s", "s/op"),
    ("core.seq_validate.calls", "count/op"),
    ("simulate.synthesize.self_s", "s/op"),
    ("simulate.synthesize.samples", "count/op"),
    ("simulate.noise_gain_study.self_s", "s/op"),
    ("simulate.analytic_noise_gain.self_s", "s/op"),
    ("pipeline.mix_down.self_s", "s/op"),
    ("pipeline.mix_down.samples", "count/op"),
    ("pipeline.run.self_s", "s/op"),
    ("pipeline.run.calls", "count/op"),
    ("pipeline.transient_length.self_s", "s/op"),
    ("pipeline.group_delay_seconds.self_s", "s/op"),
    ("analysis.phase_metrics.self_s", "s/op"),
    ("analysis.phase_metrics.calls", "count/op"),
    ("analysis.freq_response.self_s", "s/op"),
    ("analysis.freq_response.calls", "count/op"),
    ("analysis.h2_norm_sq.self_s", "s/op"),
    ("analysis.h2_norm_sq.calls", "count/op"),
    ("analysis.h2_norm_sq.impulse_sum_calls", "count/op"),
    ("analysis.multirate_norm_sq.self_s", "s/op"),
    ("analysis.multirate_norm_sq.calls", "count/op"),
    ("analysis.tune_lp_bandwidth.self_s", "s/op"),
    ("analysis.tune_lp_bandwidth.calls", "count/op"),
    ("analysis.tune_lp_bandwidth.evaluations", "calls/tune"),
    ("filters.make.self_s", "s/op"),
    ("presets.parse_filter_spec.self_s", "s/op"),
    ("setup.import_s", "s"),
    ("trace.overhead", "ratio"),
    ("checks.error_rate", "ratio"),
]
# The gated end-to-end metrics: defined and non-zero on every workload.
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]


def import_ddckit():
    """Import ddckit from this checkout's src/, or exit without a result."""
    if not (SRC / "ddckit" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'ddckit'} not found; run from a ddckit checkout")
    sys.path.insert(0, str(SRC))
    import ddckit

    if Path(ddckit.__file__).resolve().parent != (SRC / "ddckit").resolve():
        sys.exit(f"error: imported ddckit from {ddckit.__file__}, not from {SRC}")
    return ddckit


def measure_setup(workload: str, seed: int, probes: int, tiny: bool) -> dict:
    """Start fresh interpreters one at a time; each imports ddckit and
    ddckit.cli, builds the workload and finishes one warm-up op."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)]
    if tiny:
        cmd.append("--tiny")
    walls, imports = [], []
    for _ in range(probes):
        t0 = time.perf_counter()
        done = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S
        )
        walls.append(time.perf_counter() - t0)
        if done.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{done.stderr}")
        imports.append(json.loads(done.stdout.strip().splitlines()[-1])["import_s"])
    return {
        "setup_s": statistics.median(walls),
        "import_s": statistics.median(imports),
        "probes": probes,
        "setup_s_all": walls,
        "import_s_all": imports,
    }


class Pass:
    """One closed-loop pass over whole cycles of a workload."""

    def __init__(self) -> None:
        self.latency: list[float] = []
        self.kinds: list[str] = []
        self.samples: list[int] = []
        self.status: list[str] = []
        self.errors: list[str] = []
        self.cycles = 0
        self.wall = 0.0
        self.details: dict = {}


def run_pass(wl, seconds: float, cycles: int | None = None, tracer=None) -> Pass:
    """Run whole cycles until ``seconds`` have passed (and at least
    MIN_CYCLES), or exactly ``cycles`` cycles.  Only ``op.call()`` is timed;
    checks run between ops.  The tracer is removed before the workload's
    end-of-pass checks, so that only the ops are traced."""
    from workloads import WRONG

    wl.begin_pass()
    p = Pass()
    t_start = time.perf_counter()
    while True:
        for op in wl.cycle(p.cycles):
            index = len(p.latency)
            if tracer is not None:
                tracer.current_op = index
                span = tracer.open(tracer.name_id("op." + op.kind))
            t0 = time.perf_counter()
            try:
                result = op.call()
                failure = None
            except Exception:
                failure = traceback.format_exc(limit=4)
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.close(span)
                tracer.current_op = -1
            if failure is None:
                status = op.check(result, index)
            else:
                status = WRONG
                p.errors.append(failure)
            p.latency.append(dt)
            p.kinds.append(op.kind)
            p.samples.append(op.samples)
            p.status.append(status)
        p.cycles += 1
        if cycles is not None:
            if p.cycles >= cycles:
                break
        elif p.cycles >= MIN_CYCLES and time.perf_counter() - t_start >= seconds:
            break
    p.wall = time.perf_counter() - t_start
    if tracer is not None:
        tracer.uninstall()
    overrides, p.details = wl.end_pass()
    for index, status in overrides.items():
        p.status[index] = status
    if getattr(wl, "digest", None) is not None:
        p.details["digest_sha256"] = wl.digest.hexdigest()
    return p


def summarize(p: Pass, workload: str) -> dict:
    """End-to-end numbers of one pass, each with its sample count.

    ``ops_per_s`` is the geometric mean over the workload's op kinds of each
    kind's ops per second of op time, so that every kind weighs the same
    however long its ops take."""
    from workloads import PRECISION, WRONG

    lat = np.array(p.latency)
    n = len(lat)
    busy = float(lat.sum())
    failed = p.status.count(WRONG)
    misses = p.status.count(PRECISION)
    by_kind = {}
    for kind in dict.fromkeys(p.kinds):
        picked = [i for i, k in enumerate(p.kinds) if k == kind]
        by_kind[kind] = {
            "n": len(picked),
            "ops_per_s": len(picked) / float(lat[picked].sum()),
            "p50_ms": float(np.median(lat[picked])) * 1e3,
            "precision_misses": sum(p.status[i] == PRECISION for i in picked),
            "failed": sum(p.status[i] == WRONG for i in picked),
        }
    rates = [k["ops_per_s"] for k in by_kind.values()]
    out = {
        "latency_ms.p50": {"value": float(np.percentile(lat, 50)) * 1e3, "unit": "ms", "n": n},
        "ops_per_s": {
            "value": float(np.exp(np.mean(np.log(rates)))),
            "unit": "1/s",
            "n": n,
            "kinds": len(rates),
        },
        "error_rate": {
            "value": (failed + misses) / n,
            "unit": "ratio",
            "n": n,
            "failed": failed,
            "precision_misses": misses,
        },
    }
    if n >= 100 * TAIL_SAMPLES:
        out["latency_ms.p99"] = {
            "value": float(np.percentile(lat, 99)) * 1e3, "unit": "ms", "n": n
        }
    total = sum(p.samples)
    if total:
        out["throughput_msps"] = {
            "value": total / busy / 1e6,
            "unit": "MS/s",
            "n": n,
            "samples": total,
        }
    if workload == "design":
        out["queries_per_s"] = {"value": n / busy, "unit": "queries/s", "n": n, "busy_s": busy}
    out["by_kind"] = by_kind
    return out


def layer_metrics(tracer, ops: int) -> tuple[dict, dict]:
    """Per-layer numbers per op from the spans, and the ess sanity check.
    Only spans inside a timed op count."""
    a = tracer.arrays()
    self_s = tracer.self_times()
    dur = a["end"] - a["start"]
    ids = tracer._name_ids

    def mask(name):
        return (a["name"] == ids.get(name, -1)) & (a["op"] >= 0)

    out = {}
    for metric, unit in PER_LAYER:
        group, _, field = metric.rpartition(".")
        m = mask(group)
        if field == "self_s":
            value = float(self_s[m].sum())
        elif field == "calls":
            value = float(m.sum())
        elif field == "samples":
            value = float(a["work"][m].sum())
        elif field == "tap_samples":
            value = float((a["work"][m] * a["aux"][m]).sum())
        elif field == "impulse_sum_calls":
            value = float(a["aux"][m].sum())
        else:
            continue
        out[metric] = {"value": value / ops, "unit": unit}
    tune = mask("analysis.tune_lp_bandwidth")
    under_tune = mask("analysis.h2_norm_sq") & np.isin(a["parent"], np.flatnonzero(tune))
    out["analysis.tune_lp_bandwidth.evaluations"] = {
        "value": float(under_tune.sum()) / max(1, int(tune.sum())),
        "unit": "calls/tune",
    }

    # Sanity: on control's ess blocks, group_delay_seconds (with the
    # phase_metrics under it) should take the largest share of run's time.
    sanity = {}
    ess_ops = np.flatnonzero(mask("op.ess"))
    runs = np.flatnonzero(mask("pipeline.run") & np.isin(a["parent"], ess_ops))
    if len(runs):
        run_total = float(dur[runs].sum())
        children = np.isin(a["parent"], runs)
        shares = {"pipeline.run (self)": float(self_s[runs].sum()) / run_total}
        for name_id in np.unique(a["name"][children]):
            picked = children & (a["name"] == name_id)
            shares[tracer.names[name_id]] = float(dur[picked].sum()) / run_total
        largest = max(shares, key=shares.get)
        sanity = {
            "run_ms_per_block": run_total / len(runs) * 1e3,
            "shares": shares,
            "largest": largest,
            "group_delay_largest": largest == "pipeline.group_delay_seconds",
        }
    return out, sanity


def environment(args, seconds_measured: float, setup: dict) -> dict:
    import scipy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = (
                (index / "size").read_text().strip()
            )
        except OSError:
            continue
    thread_vars = (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "caches": caches,
        "seed": args.seed,
        "seconds_requested": args.seconds,
        "seconds_measured": seconds_measured,
        "tiny": args.tiny,
        "thread_env": {k: os.environ.get(k) for k in thread_vars},
        "setup_s": setup["setup_s"],
        "setup.import_s": setup["import_s"],
        "setup_probes": setup["probes"],
    }


def print_report(workload: str, summary: dict, setup: dict, label: str) -> None:
    print(f"{workload} [{label}]")
    print(f"  setup_s          {setup['setup_s']:.4f} s  "
          f"(median of {setup['probes']} fresh interpreters; import {setup['import_s']:.4f} s)")
    order = ["throughput_msps", "latency_ms.p50", "latency_ms.p99", "queries_per_s",
             "ops_per_s", "peak_rss_mb", "error_rate"]
    for key in order:
        if key in summary:
            m = summary[key]
            extra = ""
            if key == "error_rate":
                extra = f", {m['failed']} failed, {m['precision_misses']} precision misses"
            print(f"  {key:16} {m['value']:.6g} {m['unit']}  (n={m['n']}{extra})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["noise_study", "control", "design"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    dk = import_ddckit()
    import warnings

    from spans import Tracer
    from workloads import WORKLOADS, WRONG

    warnings.simplefilter("ignore", dk.NoiseAmplificationWarning)
    setup = measure_setup(args.workload, args.seed, 1 if args.tiny else SETUP_PROBES, args.tiny)
    wl = WORKLOADS[args.workload](dk, args.seed, args.tiny)
    wl.cycle(0)[0].call()  # warm-up, as in the set-up probe

    OUT.mkdir(exist_ok=True)
    if args.trace:
        # The same ops twice: untraced, then traced; the difference is the
        # tracing overhead.
        plain = run_pass(wl, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        traced = run_pass(wl, 0, cycles=plain.cycles, tracer=tracer)
        passes = [plain, traced]
    else:
        passes = [run_pass(wl, args.seconds)]
    seconds_measured = sum(p.wall for p in passes)

    summaries = [summarize(p, args.workload) for p in passes]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for s, p in zip(summaries, passes):
        s["peak_rss_mb"] = {"value": rss_mb, "unit": "MB", "n": 1}
        s["setup_s"] = {"value": setup["setup_s"], "unit": "s", "n": setup["probes"]}
    failed = sum(p.status.count(WRONG) for p in passes)
    attempted = sum(len(p.status) for p in passes)
    correct = failed == 0

    result = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args, seconds_measured, setup),
        "setup": setup,
        "untraced": summaries[0],
        "checks": passes[0].details,
        "cycles": passes[0].cycles,
        "errors": passes[0].errors[:3],
    }
    print_report(args.workload, summaries[0], setup, "untraced")
    if args.trace:
        layers, sanity = layer_metrics(tracer, len(traced.latency))
        layers["setup.import_s"] = {"value": setup["import_s"], "unit": "s"}
        overhead = sum(traced.latency) / sum(plain.latency) - 1.0
        layers["trace.overhead"] = {"value": overhead, "unit": "ratio"}
        layers["checks.error_rate"] = {
            "value": summaries[1]["error_rate"]["value"],
            "unit": "ratio",
        }
        result["traced"] = summaries[1]
        result["per_layer"] = layers
        result["overhead"] = {
            key: summaries[1][key]["value"] - summaries[0][key]["value"]
            for key in ("latency_ms.p50", "ops_per_s")
        }
        result["sanity_ess"] = sanity
        tracer.save(OUT / f"{args.workload}.spans.npz")
        print_report(args.workload, summaries[1], setup, "traced, same ops")
        print(f"  tracing overhead: busy time {overhead:+.1%}; "
              f"latency_ms.p50 {result['overhead']['latency_ms.p50']:+.4g} ms; "
              f"ops_per_s {result['overhead']['ops_per_s']:+.4g} 1/s")
        print("  per layer (per op):")
        for metric, _ in PER_LAYER:
            m = layers[metric]
            print(f"    {metric:42} {m['value']:.6g} {m['unit']}")
        if sanity:
            print(f"  sanity (control, ess): run {sanity['run_ms_per_block']:.4f} ms/block; "
                  f"largest share {sanity['largest']} "
                  f"{sanity['shares'][sanity['largest']]:.1%} -> "
                  f"{'as expected' if sanity['group_delay_largest'] else 'NOT group_delay_seconds'}")
    for key, value in passes[0].details.items():
        print(f"  {key}: {json.dumps(value)}")
    for error in passes[0].errors[:3]:
        print(error, file=sys.stderr)
    result.update(correct=correct, attempted=attempted, failed=failed)
    suffix = ".trace.json" if args.trace else ".json"
    (OUT / f"{args.workload}{suffix}").write_text(json.dumps(result, indent=1))

    if args.trace:
        metrics = {name: {"value": layers[name]["value"], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": summaries[0][name]["value"], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
