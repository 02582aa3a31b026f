"""semcomm benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload sweep|short-block|campaign \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory and nowhere else. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones, measured with no tracing installed;
with --trace 1 they are the per-layer ones from a separate traced pass.
Earlier lines carry the run's metadata and output digests. Spans and the
full record go to perfbench/out/.
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
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BASELINE = HERE / "baseline.json"
SETUP_PROBES = 5
# One BLAS thread: the workloads are single-threaded except for semcomm's
# own `threads` knob, and BLAS threads contending for 2 shared cores add
# noise. Set before anything imports numpy; setup probes inherit it.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the whole machine, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return fields[7], sum(fields)


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_info(workload: str, seed: int) -> dict:
    import workloads

    return {
        "workload": workload,
        "seed": seed,
        "campaign_seed": workloads.CAMPAIGN_SEED if workload == "campaign" else None,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": _git_commit(),
        "blas_threads": 1,
    }


def setup_seconds(workload: str) -> float:
    """Median over fresh processes of: import, channel construction and one
    warm-up call."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload],
                              env=env, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def harrell_davis(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a beta-weighted mean of all
    order statistics. The campaign's latency tail is sparse (neighbouring
    order statistics near p99 differ by 10-20%), where a single order
    statistic jumps between runs and this estimate does not."""
    import numpy as np
    from scipy.special import betainc

    x = np.sort(values)
    n = len(x)
    edges = betainc((n + 1) * q, (n + 1) * (1 - q), np.arange(n + 1) / n)
    return float(np.diff(edges) @ x)


def repeat(job, seed: int, seconds: float) -> list:
    """Run the fixed job until the next repetition would overrun `seconds`
    (at least once)."""
    jobs = []
    t0 = time.perf_counter()
    while True:
        jobs.append(job(seed))
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(jobs) > seconds:
            return jobs


def end_to_end(jobs: list, setup_s: float) -> dict:
    """End-to-end metrics: medians over repetitions of the job, latency
    quantiles over all ops, and the share of ops that did not fail."""
    walls = [j.wall_s for j in jobs]
    ms = [op.ms for j in jobs for op in j.ops]
    wall = statistics.median(walls)
    attempted = sum(j.attempted for j in jobs)
    failed = sum(j.failed for j in jobs)
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "ops_per_s": jobs[0].attempted / wall,
        "op_p50_ms": statistics.median(ms),
        "op_p99_ms": harrell_davis(ms, 0.99),
        "ok_ratio": 1.0 - failed / attempted,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced(workload: str, seed: int, job) -> tuple[dict, list, list]:
    """One untraced pass, then the same job with spans recorded; the sweep
    is traced again at 1 thread for the thread speed-up."""
    import spans

    plain = job(seed)
    tracer = spans.Tracer()
    with tracer.installed():
        with_spans = job(seed, tracer=tracer)
    layer = spans.layer_metrics(tracer.spans)
    jobs = [plain, with_spans]
    if workload == "sweep":
        one = spans.Tracer()
        with one.installed():
            jobs.append(job(seed, threads=1, tracer=one))
        two_threads = spans.busy(tracer.spans, "coding.simulate")
        layer["coding.simulate.thread_speedup"] = spans.busy(one.spans, "coding.simulate") / two_threads
    else:
        layer["coding.simulate.thread_speedup"] = 0.0
    layer["capacity.blahut_arimoto.busy_share"] = (
        layer["capacity.blahut_arimoto.busy_s"] / with_spans.wall_s)
    layer["trace.overhead_s"] = with_spans.wall_s - plain.wall_s
    return layer, jobs, tracer.spans


def _baseline_digest(workload: str, seed: int) -> str | None:
    if not BASELINE.is_file():
        return None
    digests = json.loads(BASELINE.read_text()).get("digests", {})
    return digests.get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.environ.update(BLAS_ENV)

    if not (SRC / "semcomm" / "__init__.py").is_file():
        print(f"error: no semcomm package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import semcomm
    import workloads

    if Path(semcomm.__file__).resolve().parent != SRC / "semcomm":
        print(f"error: imported semcomm from {semcomm.__file__}, not {SRC}", file=sys.stderr)
        return 2

    steal0, total0 = _cpu_ticks()
    job = workloads.JOBS[args.workload]
    workloads.warm_up(args.workload)
    if args.trace:
        metrics, jobs, span_list = traced(args.workload, args.seed, job)
    else:
        jobs = repeat(job, args.seed, args.seconds)
        metrics = end_to_end(jobs, setup_seconds(args.workload))
        span_list = []

    steal1, total1 = _cpu_ticks()
    digests = sorted({j.digest for j in jobs})
    problems = [p for j in jobs for p in j.problems]
    if len(digests) > 1:
        problems.append(f"outputs differ between passes of one run: {digests}")
    expected = _baseline_digest(args.workload, args.seed)
    info = run_info(args.workload, args.seed)
    info.update({
        "passes": len(jobs),
        "pass_wall_s": [j.wall_s for j in jobs],
        "op_samples": sum(len(j.ops) for j in jobs),
        "digest": digests[0] if len(digests) == 1 else digests,
        "baseline_digest": "none for this seed" if expected is None
        else ("same" if [expected] == digests else "differs: review"),
        "errors": sorted({op.error for j in jobs for op in j.ops if op.error}),
        "problems": problems,
        **jobs[0].notes,
        # Time the hypervisor gave to other guests: the main cause of
        # run-to-run drift on a shared virtual machine.
        "cpu_steal_share": (steal1 - steal0) / (total1 - total0) if total1 > total0 else None,
    })
    result = {
        "correct": not problems,
        "attempted": sum(j.attempted for j in jobs),
        "failed": sum(j.failed for j in jobs),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec["per_layer" if args.trace else "end_to_end"]},
    }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    op_ms = [[op.ms for op in j.ops] for j in jobs]
    (OUT / f"{stem}.json").write_text(
        json.dumps({"info": info, "result": result, "op_ms": op_ms}, indent=1))
    if span_list:
        with open(OUT / f"{stem}.spans.jsonl", "w") as fh:
            for s in span_list:
                fh.write(json.dumps(s.to_dict()) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
