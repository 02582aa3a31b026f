import math

import numpy as np
import pytest
from scipy import integrate, special

import semcomm.channels as channels
from semcomm import (
    BudgetError,
    ChannelRng,
    Dmc,
    PskConfig,
    Sequence,
    ValidationError,
    bsc,
    mpsk_hard_dmc,
    transmit,
)


def test_channel_rng_replays():
    rng = ChannelRng(12345, 7)
    a = rng.generator().random(100)
    b = rng.generator().random(100)
    np.testing.assert_array_equal(a, b)


def test_channel_rng_streams_are_independent_keys():
    a = ChannelRng(12345, 0).generator().random(100)
    b = ChannelRng(12345, 1).generator().random(100)
    assert not np.array_equal(a, b)
    c = ChannelRng(12346, 0).generator().random(100)
    assert not np.array_equal(a, c)


def test_channel_rng_substream():
    base = ChannelRng(99, 10)
    sub = base.substream(5)
    assert sub.stream_id == 15
    assert sub.seed == 99
    np.testing.assert_array_equal(
        sub.generator().random(10), ChannelRng(99, 15).generator().random(10)
    )


def test_channel_rng_validation():
    with pytest.raises(ValidationError):
        ChannelRng(-1)
    with pytest.raises(ValidationError):
        ChannelRng(2**64)
    with pytest.raises(ValidationError):
        ChannelRng(1.5)  # type: ignore[arg-type]
    with pytest.raises(ValidationError):
        ChannelRng(True)  # type: ignore[arg-type]


def test_bsc_matrix():
    ch = bsc(0.1)
    np.testing.assert_allclose(ch.matrix, [[0.9, 0.1], [0.1, 0.9]])
    assert ch.input_labels == ("0", "1")
    with pytest.raises(ValidationError):
        bsc(1.5)
    with pytest.raises(ValidationError):
        bsc(-0.01)
    with pytest.raises(ValidationError):
        bsc(float("nan"))


def test_bpsk_matches_erfc_oracle():
    # Antipodal signaling with two half-plane sectors: the crossover is a
    # plain Gaussian tail, q = erfc(sqrt(snr))/2, independent of our
    # phase-density integral. Both routes must coincide.
    for snr in (0.5, 1.0, 4.0, 9.0):
        ch = mpsk_hard_dmc(PskConfig(order=2, snr=snr))
        q = 0.5 * special.erfc(math.sqrt(snr))
        assert ch.matrix[0, 1] == pytest.approx(q, abs=1e-12)
        assert ch.matrix[0, 0] == pytest.approx(1.0 - q, abs=1e-12)


def test_bpsk_deep_tail_is_not_cancelled():
    # At 20 dB, 1 + erf(b) cancels to 0.0 over much of the wrong half-plane.
    ch = mpsk_hard_dmc(PskConfig(order=2, snr=100.0))
    assert ch.matrix[0, 1] == pytest.approx(0.5 * math.erfc(10.0), rel=1e-8)


def _quad_row(m: int, snr: float) -> np.ndarray:
    """The sector probabilities by scipy's adaptive quadrature of a scalar
    phase density: an oracle independent of the package's rule."""
    def density(theta):
        b = math.sqrt(snr) * math.cos(theta)
        return math.exp(-snr) / (2.0 * math.pi) + b / (2.0 * math.sqrt(math.pi)) * math.exp(
            -snr * math.sin(theta) ** 2
        ) * math.erfc(-b)

    half = math.pi / m
    return np.array([
        integrate.quad(density, c - half, c + half, limit=200)[0]
        for c in 2.0 * math.pi * np.arange(m) / m
    ])


@pytest.mark.parametrize("snr_db", [0, 9, 20, 30])
@pytest.mark.parametrize("m", [2, 4, 8, 16, 64])
def test_mpsk_rows_match_quad(m, snr_db):
    snr = 10.0 ** (snr_db / 10.0)
    row = mpsk_hard_dmc(PskConfig(order=m, snr=snr)).matrix[0]
    np.testing.assert_allclose(row, _quad_row(m, snr), rtol=0.0, atol=1e-14)


def test_mpsk_row_is_exactly_symmetric():
    # Sector m - j mirrors sector j, so mathematically tied ML scores stay tied.
    for m in (3, 4, 8, 64):
        row = mpsk_hard_dmc(PskConfig(order=m, snr=9.0)).matrix[0]
        np.testing.assert_array_equal(row[1:], row[1:][::-1])


def test_mpsk_sectors_sum_to_one_at_high_snr():
    # The raw sector integrals, before _mpsk_row_analytic normalizes them.
    sectors = [
        channels._integrate(lambda t: channels._phase_density(t, 200.0), c - math.pi / 4,
                            c + math.pi / 4, channels.SECTOR_TOL, 200)
        for c in (0.0, math.pi / 2, math.pi, 1.5 * math.pi)
    ]
    assert all(bound <= channels.SECTOR_TOL for _, bound in sectors)
    assert abs(sum(v for v, _ in sectors) - 1.0) <= 1e-12


def test_mpsk_failed_integration_names_a_plain_float(monkeypatch):
    monkeypatch.setattr(channels, "_integrate", lambda *args, **kwargs: (0.3, 1.0))
    # Every sector reads 0.3 with a bound far above SECTOR_TOL.
    with pytest.raises(ValidationError, match=r"sum to 1\.2, sector error bound 1\.0e\+00"):
        mpsk_hard_dmc(PskConfig(order=4, snr=9.0))


def test_mpsk_rows_sum_to_one_and_are_circulant():
    for m in (2, 4, 8):
        ch = mpsk_hard_dmc(PskConfig(order=m, snr=3.0))
        np.testing.assert_allclose(ch.matrix.sum(axis=1), np.ones(m), atol=1e-12)
        for i in range(m):
            np.testing.assert_allclose(
                ch.matrix[i], np.roll(ch.matrix[0], i), atol=1e-12
            )


def test_mpsk_symmetry_within_row():
    # sector j and sector m-j are mirror images of each other
    ch = mpsk_hard_dmc(PskConfig(order=8, snr=2.0))
    row = ch.matrix[0]
    for j in range(1, 8):
        assert row[j] == pytest.approx(row[8 - j], abs=1e-10)


def test_qpsk_high_snr_is_nearly_noiseless():
    ch = mpsk_hard_dmc(PskConfig(order=4, snr=200.0))
    np.testing.assert_allclose(ch.matrix, np.eye(4), atol=1e-9)


def test_psk_config_validation():
    with pytest.raises(ValidationError):
        PskConfig(order=1, snr=1.0)
    with pytest.raises(ValidationError):
        PskConfig(order=4, snr=-1.0)
    with pytest.raises(ValidationError):
        PskConfig(order=4, snr=1.0, estimation="guess")
    with pytest.raises(ValidationError, match="seed"):
        PskConfig(order=4, snr=1.0, estimation="monte-carlo")
    with pytest.raises(ValidationError, match="samples"):
        PskConfig(order=4, snr=1.0, estimation="monte-carlo", samples=100, seed=1)


def test_psk_config_checks_the_element_budget(monkeypatch):
    # Lowered, so that a missing check would still allocate little.
    monkeypatch.setattr(channels, "CHANNEL_ELEMENT_BUDGET", 2 * channels.MC_MIN_SAMPLES)
    with pytest.raises(BudgetError, match="order 142 needs 20164 elements"):
        PskConfig(order=142, snr=1.0)
    with pytest.raises(BudgetError, match="10001 samples"):
        PskConfig(order=4, snr=1.0, estimation="monte-carlo", samples=10_001, seed=1)
    cfg = PskConfig(order=4, snr=1.0, estimation="monte-carlo", samples=10_000, seed=1)
    assert mpsk_hard_dmc(cfg).matrix.shape == (4, 4)


def test_monte_carlo_agrees_with_analytic():
    samples = 200_000
    cfg = PskConfig(order=4, snr=4.0, estimation="monte-carlo", samples=samples, seed=5)
    mc = mpsk_hard_dmc(cfg)
    exact = mpsk_hard_dmc(PskConfig(order=4, snr=4.0))
    se = np.sqrt(exact.matrix * (1.0 - exact.matrix) / samples)
    assert np.all(np.abs(mc.matrix - exact.matrix) <= 4.0 * se + 1e-12)


def test_monte_carlo_is_deterministic():
    cfg = PskConfig(order=2, snr=1.0, estimation="monte-carlo", samples=50_000, seed=42)
    np.testing.assert_array_equal(mpsk_hard_dmc(cfg).matrix, mpsk_hard_dmc(cfg).matrix)


def test_entry_tol_warning():
    cfg = PskConfig(
        order=2,
        snr=1.0,
        estimation="monte-carlo",
        samples=10_000,
        seed=3,
        entry_tol=1e-6,
    )
    with pytest.warns(RuntimeWarning, match="entry error"):
        mpsk_hard_dmc(cfg)


def test_transmit_is_deterministic():
    ch = bsc(0.3)
    x = Sequence(np.zeros(1000, dtype=np.int64), 2)
    rng = ChannelRng(777, 0)
    y1 = transmit(ch, x, rng)
    y2 = transmit(ch, x, rng)
    np.testing.assert_array_equal(y1.symbols, y2.symbols)


def test_transmit_identity_passthrough():
    ch = Dmc.identity(["a", "b", "c"])
    x = Sequence(np.array([0, 1, 2, 2, 1, 0]), 3)
    y = transmit(ch, x, ChannelRng(1, 0))
    np.testing.assert_array_equal(y.symbols, x.symbols)


def test_transmit_empirical_frequencies():
    ch = bsc(0.2)
    n = 200_000
    x = Sequence(np.zeros(n, dtype=np.int64), 2)
    y = transmit(ch, x, ChannelRng(2026, 3))
    flips = int(y.symbols.sum())
    se = math.sqrt(0.2 * 0.8 / n)
    assert abs(flips / n - 0.2) <= 4 * se


def test_transmit_rejects_alphabet_mismatch():
    ch = bsc(0.2)
    x = Sequence(np.array([0, 1, 2]), 3)
    with pytest.raises(ValidationError, match="alphabet"):
        transmit(ch, x, ChannelRng(0, 0))
