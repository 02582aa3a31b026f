"""Both Monte Carlo engines against a closed form that shares no code with
them: the semantic error of ML decoding over a fresh uniform random
codebook on BSC(p), with ties erasing.

The transmitted codeword lies at Hamming distance d ~ Bin(n, p) from y, and
each of the M - 1 competitors at a distance ~ Bin(n, 1/2) of its own. The
decoder is right exactly when every competitor is strictly farther, so

    p_sem = 1 - sum_d Bin(d; n, p) (1 - P[Bin(n, 1/2) <= d])^(M - 1).

A competitor at distance d scores exactly as the codeword does, so a scorer
that lets such a tie come out an ulp either way reads p_sem low.
"""

import itertools
import math

import numpy as np
import pytest

import semcomm.coding as coding
from semcomm import CodeConfig, ProbVector, bsc, simulate

UNIFORM2 = ProbVector(("0", "1"), [0.5, 0.5])


def _bsc_ensemble_p_sem(n: int, p: float, semantic_bits: int) -> float:
    """The closed form above, with binomials in the log domain."""
    log_choose = np.array([
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1) for k in range(n + 1)
    ])
    d = np.arange(n + 1)
    own = np.exp(log_choose + d * math.log(p) + (n - d) * math.log1p(-p))
    # P[Bin(n, 1/2) <= d], summed in the log domain so tiny tails survive.
    within = np.exp(np.minimum(np.logaddexp.accumulate(log_choose) - n * math.log(2.0), 0.0))
    with np.errstate(divide="ignore"):
        farther = np.exp((2.0**semantic_bits - 1.0) * np.log1p(-within))
    return 1.0 - float(own @ farther)


def _z(report, cfg: CodeConfig, p: float) -> float:
    """The report's p_sem less the closed form, in standard errors."""
    exact = _bsc_ensemble_p_sem(cfg.n, p, cfg.semantic_bits)
    return (report.p_sem - exact) / math.sqrt(exact * (1.0 - exact) / report.trials)


def test_closed_form_matches_enumeration_at_small_n():
    # M = 4 codewords at n = 3. By symmetry the sent codeword is all-zero
    # and y is the noise; every noise pattern and every choice of the three
    # competitors is counted, a tie at the best distance erasing.
    n, p, bits = 3, 0.1, 2
    errors = 0.0
    for y in range(2**n):
        d = y.bit_count()
        mass = p**d * (1 - p) ** (n - d) / 8**3
        for rivals in itertools.product(range(2**n), repeat=3):
            if min((w ^ y).bit_count() for w in rivals) <= d:
                errors += mass
    assert _bsc_ensemble_p_sem(n, p, bits) == pytest.approx(errors, rel=1e-12)


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_virtual_engine_matches_the_closed_form(seed):
    # The README sweep: BSC(0.05), alpha 0.5, R = 0.9 of the semantic
    # capacity (1 - h(0.05)) / 0.5.
    p = 0.05
    capacity = 1.0 + p * math.log2(p) + (1 - p) * math.log2(1 - p)
    for n in (64, 128, 256, 512, 1024):
        cfg = CodeConfig(n=n, rate=0.9 * capacity / 0.5, alpha=0.5)
        report = simulate(cfg, "contiguous", bsc(p), UNIFORM2, "ml", 100_000, seed)
        assert report.config["regime"] == "virtual-fresh"
        assert abs(_z(report, cfg, p)) <= 4.0, (n, report.p_sem)


def test_materialized_fresh_ml_matches_the_closed_form(monkeypatch):
    # BSC(0.1), alpha 1, rate 0.5: 16, 64 and 256 fresh codewords per trial.
    # n = 16 holds 4096 symbols a codebook, so the materialize limit is
    # raised to keep it off the virtual engine.
    monkeypatch.setattr(coding, "MATERIALIZE_LIMIT", 4096)
    p = 0.1
    for n in (8, 12, 16):
        cfg = CodeConfig(n=n, rate=0.5, alpha=1.0)
        report = simulate(cfg, "contiguous", bsc(p), UNIFORM2, "ml", 100_000, 7)
        assert report.config["regime"] == "materialized-fresh"
        assert abs(_z(report, cfg, p)) <= 4.0, (n, report.p_sem)
