"""The acceptance gate: one test per release criterion.

Each test carries a `criterion` tag; the terminal summary prints one
PASS/FAIL line per criterion after the run. Tolerances and budgets are
pinned here on purpose; loosening them is a release decision, not a test
fix.
"""

import math

import numpy as np
import pytest

import semcomm.cli as cli
from conftest import criterion
from semcomm import (
    ChannelRng,
    CodeConfig,
    Codebook,
    Dmc,
    ProbVector,
    PskConfig,
    SemanticPartition,
    SimulationReport,
    awgn_capacity,
    blahut_arimoto,
    bsc,
    compression_gain,
    converse_chain,
    entropy,
    exact_evaluate,
    make_partition,
    mpsk_hard_dmc,
    random_fano_instance,
    run_fano_campaign,
    semantic_capacity,
    semantic_entropy,
    simulate,
    simulate_full_codebook,
)

CAMPAIGN_SIZE = 1000
CAMPAIGN_SEED = 20260818
SWEEP_SEED = 2026
SWEEP_TRIALS = 10_000


@pytest.fixture(scope="module")
def campaign():
    return run_fano_campaign(CAMPAIGN_SIZE, CAMPAIGN_SEED, include_converse=True)


@criterion(1, "semantic/Shannon entropy paper values (1e-12)")
def test_criterion_01_entropy_values(student_px, kb_uniform, kb_willingness):
    assert entropy(student_px) == 1.5
    assert semantic_entropy(student_px, kb_uniform) == pytest.approx(
        math.log2(3), abs=1e-12
    )
    assert semantic_entropy(student_px, kb_willingness) == pytest.approx(
        2.0 - 0.75 * math.log2(3), abs=1e-12
    )


@criterion(2, "compression gain 6272/log2(10), rounds to 1888")
def test_criterion_02_compression_gain():
    gain = compression_gain(6272.0, math.log2(10.0))
    assert gain == pytest.approx(6272.0 / math.log2(10.0), abs=1e-9)
    assert round(gain) == 1888


@criterion(3, "capacity oracles: BSC closed form (1e-6) and AWGN helper")
def test_criterion_03_capacity_oracles():
    for p in (0.01, 0.05, 0.1, 0.25, 0.4):
        hb = -(p * math.log2(p) + (1 - p) * math.log2(1 - p))
        got = blahut_arimoto(bsc(p), tol=1e-9).capacity
        assert got == pytest.approx(1.0 - hb, abs=1e-6)
    assert awgn_capacity(63.0) == pytest.approx(6.0, abs=1e-12)
    assert awgn_capacity(9.0) == pytest.approx(math.log2(10.0), abs=1e-12)


@criterion(4, f"semantic Fano bound holds on {CAMPAIGN_SIZE} random instances")
def test_criterion_04_fano_campaign(campaign):
    assert campaign.instances == CAMPAIGN_SIZE
    assert campaign.failures == ()
    assert campaign.fano_holds == CAMPAIGN_SIZE
    assert campaign.worst_slack >= -1e-9


@criterion(5, "converse chain holds on the same campaign")
def test_criterion_05_converse_chain(campaign):
    assert campaign.converse_holds == CAMPAIGN_SIZE
    # spot-check the three inequalities directly, not just the verdict bit
    for i in range(25):
        chain = converse_chain(random_fano_instance(CAMPAIGN_SEED, i))
        assert abs(chain.h_w - (chain.h_w_given_y + chain.i_w_y)) <= 1e-9
        assert chain.i_w_y <= chain.i_x_y + 1e-9
        assert chain.i_x_y <= chain.n_capacity + 1e-6


def _sweep(rate_fraction: float, grid: tuple[int, ...]) -> list[float]:
    ch = bsc(0.05)
    alpha = 0.5
    rate = rate_fraction * semantic_capacity(ch, alpha)
    px = ProbVector.uniform(ch.input_labels)
    out = []
    for i, n in enumerate(grid):
        seed = (SWEEP_SEED + cli.SEED_STRIDE * i) % cli.SEED_MOD
        cfg = CodeConfig(n=n, rate=rate, alpha=alpha)
        rep = simulate(cfg, "contiguous", ch, px, "ml", SWEEP_TRIALS, seed)
        out.append(rep.p_sem)
    return out


@criterion(6, "achievability: p_sem strictly decreasing at R = 0.9 Cs")
def test_criterion_06_achievability_trend():
    p = _sweep(0.9, (64, 128, 256, 512))
    assert all(a > b for a, b in zip(p, p[1:])), p
    assert p[-1] < p[0] / 3.0, p


@criterion(7, "converse: p_sem(512) stays >= 0.05 at R = 1.2 Cs")
def test_criterion_07_converse_trend():
    p = _sweep(1.2, (512,))
    assert p[0] >= 0.05, p


@criterion(8, "hard invariant: sem <= msg errors, equality at alpha = 1")
def test_criterion_08_count_invariant():
    # the ordering is an assertion inside the report type itself
    with pytest.raises(AssertionError):
        SimulationReport.from_counts(
            trials=10, semantic_errors=3, message_errors=1, seed=0, config={}
        )

    ch = bsc(0.1)
    px = ProbVector.uniform(ch.input_labels)
    trials = 4096
    small = CodeConfig(n=6, rate=0.5, alpha=1.0)
    reports = [
        simulate(small, "contiguous", ch, px, "ml", trials, 11),
        simulate(small, "contiguous", ch, px, "ml", trials, 11, fresh_codebook=False),
        simulate(CodeConfig(n=64, rate=0.5, alpha=1.0), "contiguous", ch, px,
                 "ml", trials, 11),
        simulate_full_codebook(small, make_partition(small), ch,
                               px, trials, 11),
    ]
    regimes = {r.config["regime"] for r in reports[:3]}
    assert regimes == {"materialized-fresh", "materialized-shared", "virtual-fresh"}
    for rep in reports:
        assert rep.semantic_errors == rep.message_errors
    partial = simulate(
        CodeConfig(n=6, rate=0.5, alpha=0.5), "contiguous", ch, px, "ml",
        trials, 11,
    )
    assert partial.semantic_errors <= partial.message_errors


def _oracle_instance(index: int):
    """Deterministic small system number `index` for the MC-vs-exact check."""
    gen = ChannelRng(7_000_000 + index, 0).generator()
    n = int(gen.integers(1, 4))
    n_out = int(gen.integers(2, 4))
    ch = Dmc(
        ("0", "1"),
        tuple(str(j) for j in range(n_out)),
        gen.dirichlet(np.ones(n_out), size=2),
    )
    mb = int(gen.integers(2, 5))
    sb = int(gen.integers(1, mb + 1))
    part = SemanticPartition(np.arange(1 << mb) % (1 << sb))  # interleaved classes
    cb = Codebook(gen.integers(0, 2, size=(1 << sb, n)), 2)
    cfg = CodeConfig(n=n, rate=mb / n, alpha=sb / mb)
    assert cfg.message_bits == mb and cfg.semantic_bits == sb
    return cfg, part, cb, ch


@criterion(9, "Monte Carlo within 4 SE of exact_evaluate on >= 19/20 systems")
def test_criterion_09_simulation_vs_exact():
    trials = 10**6
    checked = 0
    agree = 0
    index = 0
    while checked < 20:
        cfg, part, cb, ch = _oracle_instance(index)
        index += 1
        exact = exact_evaluate(cb, part, ch).p_sem
        if not (0.005 <= exact <= 0.995):
            continue  # keep the binomial SE meaningful
        rep = simulate(
            cfg, "interleaved", ch, ProbVector.uniform(ch.input_labels), "ml",
            trials, seed=400 + index, fresh_codebook=False, codebook=cb,
            partition=part,
        )
        se = math.sqrt(exact * (1.0 - exact) / trials)
        agree += abs(rep.p_sem - exact) <= 4.0 * se
        checked += 1
    assert agree >= 19, f"{agree}/20 within 4 SE"


@criterion(10, "M-PSK analytic vs Monte Carlo (3 SE); capacity monotone in snr")
def test_criterion_10_mpsk_crosscheck():
    samples = 10**6
    for order, snr, seed in ((2, 4.0, 101), (4, 9.0, 102), (8, 63.0, 103)):
        exact = mpsk_hard_dmc(PskConfig(order=order, snr=snr))
        mc = mpsk_hard_dmc(
            PskConfig(order=order, snr=snr, estimation="monte-carlo",
                      samples=samples, seed=seed)
        )
        se = np.sqrt(exact.matrix * (1.0 - exact.matrix) / samples)
        gap = np.abs(mc.matrix - exact.matrix)
        assert np.all(gap <= 3.0 * se + 1e-12), (order, snr, float(gap.max()))

    caps = [
        blahut_arimoto(mpsk_hard_dmc(PskConfig(order=4, snr=float(s)))).capacity
        for s in np.geomspace(0.25, 64.0, 10)
    ]
    assert all(a < b for a, b in zip(caps, caps[1:])), caps


@criterion(11, "CLI reruns byte-identical: threads, CSV and JSON round-trips")
def test_criterion_11_cli_determinism(tmp_path, capsys):
    base = ["simulate", "--channel", "bsc:0.05", "--n-grid", "16,32",
            "--trials", "2000", "--seed", "909"]
    assert cli.main(base) == 0
    first = capsys.readouterr().out
    assert first.startswith(f"# {cli.CSV_SCHEMA}\n")

    assert cli.main(base + ["--threads", "4"]) == 0
    assert capsys.readouterr().out == first

    csv_path = tmp_path / "rows.csv"
    assert cli.main(base + ["--out", str(csv_path)]) == 0
    capsys.readouterr()
    assert csv_path.read_text() == first
    assert cli.main(["simulate", "--config", str(csv_path)]) == 0
    assert capsys.readouterr().out == first

    json_path = tmp_path / "rows.json"
    assert cli.main(base + ["--out", str(json_path)]) == 0
    capsys.readouterr()
    assert cli.main(["simulate", "--config", str(json_path)]) == 0
    assert capsys.readouterr().out == first
