"""The benchmark's three workloads, each a fixed job driven as a closed loop.

Every op (one program call, or one campaign instance) starts when the
previous one returns. A job returns its per-op records and a SHA-256 digest
of its outputs, so that a change that alters results is caught.

- sweep: the README `simulate` sweep through `cli.main`, all in the virtual
  regime, at 2 threads.
- short-block: the materialized engine three ways (q-ary fresh-codebook ML,
  typicality decoding, shared-codebook ML).
- campaign: the README's 1000-instance Fano/converse campaign (seed 2026),
  one instance at a time, so a failing instance is counted and the rest run.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

from semcomm import cli, coding
from semcomm.channels import PskConfig, bsc, mpsk_hard_dmc
from semcomm.info import ProbVector

SWEEP_GRID = "64,128,256,512,1024"
SWEEP_TRIALS = 10_000
SWEEP_THREADS = 2

MPSK_GRID = "2,3,4"
TYPICALITY_GRID = "8,12,16"
CLI_TRIALS = 10_000  # the CLI default, spelled out
SHARED_N = 16
SHARED_BITS = 11  # 2048 codewords
SHARED_TRIALS = 20_000

# The README campaign. Its instance set is pinned: per-seed campaign cost
# ranges over 2x (17.5 s to 37.2 s over seeds 1, 2, 3 and 2026 on one 2-vCPU
# Xeon), so a drawn set would time the draw rather than the code. The
# benchmark seed orders the instances instead.
CAMPAIGN_SEED = 2026
CAMPAIGN_INSTANCES = 1000


@dataclass
class Op:
    """One closed-loop call: how many ops it attempted, how many failed."""

    attempted: int
    failed: int
    ms: float
    error: str | None = None


@dataclass
class Job:
    ops: list[Op] = field(default_factory=list)
    outputs: list = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    notes: dict = field(default_factory=dict)  # reported, never fails a run
    wall_s: float = 0.0
    tracer: object = None  # a spans.Tracer while tracing: it numbers the ops

    @property
    def attempted(self) -> int:
        return sum(op.attempted for op in self.ops)

    @property
    def failed(self) -> int:
        return sum(op.failed for op in self.ops)

    @property
    def digest(self) -> str:
        text = json.dumps(self.outputs, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


def _timed(job: Job, attempted: int, call):
    """Run call(); an exception fails all `attempted` ops and is recorded."""
    if job.tracer is not None:
        job.tracer.next_op()
    t0 = time.perf_counter()
    try:
        result = call()
    except Exception as e:  # an op that raises is a failed op; the job goes on
        ms = (time.perf_counter() - t0) * 1e3
        job.ops.append(Op(attempted, attempted, ms, f"{type(e).__name__}: {e}"))
        return None
    ms = (time.perf_counter() - t0) * 1e3
    job.ops.append(Op(attempted, 0, ms))
    return result


def _csv_rows(text: str) -> list[dict[str, str]]:
    lines = [line.split(",") for line in text.splitlines() if line and not line.startswith("#")]
    return [dict(zip(lines[0], r)) for r in lines[1:]]


def _check_csv(job: Job, text: str, grid: str, trials: int) -> None:
    rows = _csv_rows(text)
    if [int(v["n"]) for v in rows] != [int(t) for t in grid.split(",")]:
        job.problems.append(f"simulate {grid}: rows do not match the grid")
        return
    for v in rows:
        lo, p, hi, pm = (float(v[k]) for k in ("p_sem_lo", "p_sem", "p_sem_hi", "p_msg"))
        errors = p * trials
        if not (0.0 <= lo <= p <= hi <= 1.0 and p <= pm <= 1.0 and abs(errors - round(errors)) < 1e-6):
            job.problems.append(f"simulate n={v['n']}: inconsistent estimates {v}")


def _cli_simulate(job: Job, args: list[str], grid: str, trials: int, seed: int, threads: int = 1):
    argv = ["simulate", *args, "--n-grid", grid, "--trials", str(trials),
            "--seed", str(seed), "--threads", str(threads)]
    attempted = trials * len(grid.split(","))

    def call():
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"semcomm {' '.join(argv)} exited {code}")
        return out.getvalue()

    text = _timed(job, attempted, call)
    job.outputs.append(text)
    if text is not None:
        _check_csv(job, text, grid, trials)


def _run(fill, tracer) -> Job:
    job = Job(tracer=tracer)
    t0 = time.perf_counter()
    fill(job)
    job.wall_s = time.perf_counter() - t0
    return job


def bsc_ensemble_p_sem(n: int, p: float, semantic_bits: int) -> float:
    """Exact semantic error of ML decoding with a fresh uniform random
    codebook of M = 2^semantic_bits codewords on BSC(p), ties erasing:
    1 - sum_d Bin(d; n, p) (1 - P[Bin(n, 1/2) <= d])^(M - 1).

    Written from the formula, independently of the virtual engine, with
    binomials in the log domain.
    """
    lf = np.array([math.lgamma(k + 1) for k in range(n + 1)])
    k = np.arange(n + 1)
    log_choose = lf[n] - lf - lf[::-1]
    noise = np.exp(log_choose + k * math.log(p) + (n - k) * math.log1p(-p))
    log_cdf_half = np.minimum(np.logaddexp.accumulate(log_choose) - n * math.log(2), 0.0)
    with np.errstate(divide="ignore"):
        all_farther = np.exp((2.0 ** semantic_bits - 1) * np.log1p(-np.exp(log_cdf_half)))
    return 1.0 - float(noise @ all_farther)


def _oracle_z(text: str, p: float, trials: int) -> dict[int, float]:
    """Per grid point, (Monte Carlo p_sem - exact p_sem) in standard errors."""
    out = {}
    for v in _csv_rows(text):
        cfg = coding.CodeConfig(n=int(v["n"]), rate=float(v["R"]), alpha=float(v["alpha"]))
        exact = bsc_ensemble_p_sem(cfg.n, p, cfg.semantic_bits)
        out[cfg.n] = (float(v["p_sem"]) - exact) / math.sqrt(exact * (1 - exact) / trials)
    return out


def sweep(seed: int, threads: int = SWEEP_THREADS, grid: str = SWEEP_GRID,
          trials: int = SWEEP_TRIALS, tracer=None) -> Job:
    """The sweep, with each point's distance from the exact BSC ensemble
    error in job.notes["oracle_z"]. It is reported, not gated: Monte Carlo
    at n = 64 and 128 runs about 2.4 standard errors low on average over
    seeds 1-10."""
    args = ["--channel", "bsc:0.05", "--alpha", "0.5", "--rate-fraction", "0.9"]
    job = _run(lambda job: _cli_simulate(job, args, grid, trials, seed, threads), tracer)
    if job.outputs[0] is not None:
        job.notes["oracle_z"] = _oracle_z(job.outputs[0], 0.05, trials)
    return job


def _shared_simulate(job: Job, seed: int, n: int, bits: int, trials: int) -> None:
    ch = bsc(0.05)
    cfg = coding.CodeConfig(n=n, rate=bits / n, alpha=1.0)
    px = ProbVector.uniform(ch.input_labels)
    report = _timed(job, trials, lambda: coding.simulate(
        cfg, "contiguous", ch, px, "ml", trials, seed, fresh_codebook=False))
    job.outputs.append(None if report is None else report.to_dict())
    if report is not None and report.trials != trials:
        job.problems.append("shared simulate: report trial count differs from the request")


def short_block(seed: int, mpsk_grid: str = MPSK_GRID, typicality_grid: str = TYPICALITY_GRID,
                cli_trials: int = CLI_TRIALS, shared_n: int = SHARED_N,
                shared_bits: int = SHARED_BITS, shared_trials: int = SHARED_TRIALS,
                tracer=None) -> Job:
    def fill(job: Job):
        _cli_simulate(job, ["--channel", "mpsk:4:9"], mpsk_grid, cli_trials, seed)
        _cli_simulate(job, ["--channel", "bsc:0.05", "--rate-fraction", "0.5",
                            "--decoder", "typicality"], typicality_grid, cli_trials, seed)
        _shared_simulate(job, seed, shared_n, shared_bits, shared_trials)

    return _run(fill, tracer)


def campaign(seed: int, instances: int = CAMPAIGN_INSTANCES, tracer=None) -> Job:
    """Instances of the pinned campaign in an order drawn from `seed`.

    An instance fails when it raises or when either verdict is false; the
    outputs hold, per instance, the Fano verdict, lhs, rhs and converse
    verdict, or the exception class. BA's capacity floats are left out on
    purpose: a better solver may change their trailing digits.
    """
    order = list(range(instances))
    random.Random(seed).shuffle(order)

    def fill(job: Job):
        records = {}
        for i in order:
            def call(i=i):
                inst = coding.random_fano_instance(CAMPAIGN_SEED, i)
                chk = coding.check_fano(inst)
                chain = coding.converse_chain(inst)
                return [chk.holds, repr(chk.lhs), repr(chk.rhs), chain.holds]

            rec = _timed(job, 1, call)
            if rec is None:
                records[i] = job.ops[-1].error.split(":", 1)[0]
            else:
                records[i] = rec
                if not (rec[0] and rec[3]):
                    job.ops[-1].failed = 1
                    job.problems.append(f"campaign instance {i}: a verdict is false {rec}")
        job.outputs = [records[i] for i in range(instances)]

    return _run(fill, tracer)


JOBS = {"sweep": sweep, "short-block": short_block, "campaign": campaign}


def warm_up(workload: str) -> None:
    """Build the workload's channels and make one small call of each kind it
    makes, with fixed inputs, so that no timed op pays for first use."""
    if workload == "sweep":
        bsc(0.05)
        sweep(0, grid="64", trials=100)
    elif workload == "short-block":
        mpsk_hard_dmc(PskConfig(order=4, snr=9.0))
        short_block(0, mpsk_grid="2", typicality_grid="8", cli_trials=100,
                    shared_n=8, shared_bits=4, shared_trials=100)
    elif workload == "campaign":
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            cli.main(["fano", "--single", "--channel", "bsc:0.1", "--n", "3",
                      "--message-bits", "4", "--semantic-bits", "2"])
    else:
        raise ValueError(f"unknown workload {workload!r}")
