"""Channel constructors and per-symbol stochastic transmission.

The M-PSK constructor reduces hard-decision PSK over a complex AWGN channel
to an explicit DMC. Conventions: snr is the linear ratio of symbol energy to
total complex noise power (noise variance 1/2 per real dimension), never dB.
Randomness comes from a counter-based generator (Philox) keyed by
(seed, stream_id), so equal keys give bit-identical samples on any platform
and parallel callers just use distinct stream ids.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .capacity import Dmc
from .errors import BudgetError, ValidationError
from .info import Sequence, _integrate

MC_MIN_SAMPLES = 10_000
# Largest array, in eight-byte elements, one allocation may hold: an order x
# order matrix (identity, M-PSK), a Monte Carlo M-PSK row's samples x 2
# normals, or a codebook's count x n int64 symbols. 2^25 elements are 256 MiB.
CHANNEL_ELEMENT_BUDGET = 2**25
# Absolute error bound each analytic M-PSK sector probability must meet.
SECTOR_TOL = 1e-14


def _exceeds(count: int, exp: int, cap: int, base: int = 2) -> bool:
    """count * base^exp > cap for count >= 1, without forming a huge power:
    with base >= 2, base^exp passes cap from exp = cap's bit length on."""
    return (base > 1 and exp >= cap.bit_length()) or count * base**exp > cap


def check_channel_elements(elements: int, what: str, bits: int = 0) -> None:
    """BudgetError unless an allocation of elements * 2^bits fits CHANNEL_ELEMENT_BUDGET.

    Called before anything of that size exists, so an absurd but valid size
    is refused instead of exhausting memory.
    """
    if _exceeds(elements, bits, CHANNEL_ELEMENT_BUDGET):
        size = f"{elements} * 2^{bits}" if bits else f"{elements}"
        raise BudgetError(
            f"{what} needs {size} elements, over the channel budget of "
            f"{CHANNEL_ELEMENT_BUDGET}"
        )


@dataclass(frozen=True)
class ChannelRng:
    """Value-semantics randomness source: a (seed, stream_id) Philox key.

    generator() builds a fresh numpy Generator each call, so a ChannelRng
    value always replays the same sample sequence; derive new independent
    streams by picking new stream ids, never by sharing generator state.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
                raise ValidationError(f"ChannelRng: {name} must be an integer, got {v!r}")
            if not (0 <= int(v) < 2**64):
                raise ValidationError(f"ChannelRng: {name} must be in [0, 2^64), got {v}")
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "stream_id", int(self.stream_id))

    def generator(self) -> np.random.Generator:
        key = self.seed | (self.stream_id << 64)
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, offset: int) -> "ChannelRng":
        return ChannelRng(self.seed, self.stream_id + int(offset))


@dataclass(frozen=True)
class PskConfig:
    """M-ary PSK over complex AWGN, reduced to a DMC by sector decisions.

    estimation selects how sector probabilities are computed: "analytic"
    integrates the received-phase density, "monte-carlo" counts hits from
    `samples` noisy transmissions per input (seed required). entry_tol, if
    set, is the per-entry accuracy the caller wants; Monte Carlo runs whose
    3-sigma entry error exceeds it emit a RuntimeWarning.
    """

    order: int
    snr: float
    estimation: str = "analytic"
    samples: int = 1_000_000
    seed: int | None = None
    entry_tol: float | None = None

    def __post_init__(self):
        if not isinstance(self.order, (int, np.integer)) or self.order < 2:
            raise ValidationError(f"PskConfig: order must be an integer >= 2, got {self.order}")
        if not math.isfinite(self.snr) or self.snr < 0:
            raise ValidationError(f"PskConfig: snr must be finite and >= 0, got {self.snr}")
        if self.estimation not in ("analytic", "monte-carlo"):
            raise ValidationError(
                f"PskConfig: estimation must be 'analytic' or 'monte-carlo', got {self.estimation!r}"
            )
        check_channel_elements(self.order * self.order, f"PskConfig: order {self.order}")
        if self.estimation == "monte-carlo":
            check_channel_elements(2 * self.samples, f"PskConfig: {self.samples} samples")
            if self.samples < MC_MIN_SAMPLES:
                raise ValidationError(
                    f"PskConfig: monte-carlo needs >= {MC_MIN_SAMPLES} samples, got {self.samples}"
                )
            if self.seed is None:
                raise ValidationError("PskConfig: monte-carlo estimation needs a seed")


def bsc(p: float) -> Dmc:
    """Binary symmetric channel with crossover probability p."""
    if not (0.0 <= p <= 1.0) or not math.isfinite(p):
        raise ValidationError(f"bsc: crossover probability must be in [0, 1], got {p}")
    return Dmc(("0", "1"), ("0", "1"), [[1.0 - p, p], [p, 1.0 - p]])


def _phase_density(theta: np.ndarray, snr: float) -> np.ndarray:
    """Density of the received phase, at each angle of theta, when phase 0
    is sent at the given snr.

    Standard closed form for a unit-total-power complex Gaussian around a
    point of energy snr: integrating the radial coordinate out of the
    bivariate normal leaves
        f(theta) = e^{-g}/(2 pi) + b/(2 sqrt(pi)) e^{-g sin^2 theta} erfc(-b),
    with g = snr and b = sqrt(g) cos(theta). erfc(-b) is 1 + erf(b) without
    its cancellation for b << 0; numpy has no erfc, so math's runs per node.
    """
    b = math.sqrt(snr) * np.cos(theta)
    tail = np.array([math.erfc(-v) for v in b.tolist()])
    return math.exp(-snr) / (2.0 * math.pi) + (
        b / (2.0 * math.sqrt(math.pi))
    ) * np.exp(-snr * np.sin(theta) ** 2) * tail


def _psk_labels(m: int) -> tuple[str, ...]:
    return tuple(str(k) for k in range(m))


def _mpsk_row_analytic(m: int, snr: float) -> np.ndarray:
    """Sector probabilities for phase 0 sent. The density is even, so sector
    m - j mirrors sector j: only j <= m / 2 is integrated, and the row is
    exactly symmetric, as the channel is. From about 60 dB the panels' nodes
    can miss the peak at the centre of sector 0, so a row that fails its sum
    guard takes sector 0 as 1 minus the others (each held to SECTOR_TOL)."""
    half = math.pi / m
    row = np.empty(m)
    bounds = np.empty(m // 2 + 1)
    for j in range(m // 2 + 1):
        center = 2.0 * math.pi * j / m
        row[j], bounds[j] = _integrate(
            lambda theta: _phase_density(theta, snr), center - half, center + half,
            SECTOR_TOL, limit=200,
        )
        row[-j] = row[j]
    total = row.sum()
    if abs(total - 1.0) > 1e-9:
        row[0], bounds[0] = 1.0 - row[1:].sum(), 0.0
    worst = bounds.max()
    if worst > SECTOR_TOL:
        raise ValidationError(
            f"mpsk_hard_dmc: sector probabilities sum to {float(total)!r}, sector error "
            f"bound {worst:.1e}; phase-density integration failed"
        )
    return row / row.sum()


def mpsk_hard_dmc(cfg: PskConfig) -> Dmc:
    """M x M hard-decision PSK transition matrix.

    Entry (i, j) is the probability that constellation point i, disturbed by
    circular complex Gaussian noise, lands in the angular decision sector of
    point j. Analytic mode integrates the received-phase density over each
    sector by 20-point Gauss-Legendre panels, bisected until the sector is
    within SECTOR_TOL (info._integrate), and rotates the row (the matrix is
    exactly circulant); Monte Carlo mode simulates each row independently as
    a cross-check, so its matrix is circulant only within sampling error.
    """
    m = cfg.order
    if cfg.estimation == "analytic":
        row = _mpsk_row_analytic(m, cfg.snr)
        matrix = np.stack([np.roll(row, i) for i in range(m)])
        return Dmc(_psk_labels(m), _psk_labels(m), matrix)

    gen = ChannelRng(cfg.seed, 0).generator()
    amp = math.sqrt(cfg.snr)
    sector = 2.0 * math.pi / m
    matrix = np.empty((m, m))
    for i in range(m):
        phase = sector * i
        # Total complex noise power 1 means variance 1/2 per real dimension.
        noise = gen.standard_normal((cfg.samples, 2)) / math.sqrt(2.0)
        rx = noise
        rx[:, 0] += amp * math.cos(phase)
        rx[:, 1] += amp * math.sin(phase)
        angles = np.arctan2(rx[:, 1], rx[:, 0])
        decisions = np.round(angles / sector).astype(np.int64) % m
        matrix[i] = np.bincount(decisions, minlength=m) / cfg.samples
    if cfg.entry_tol is not None:
        worst = float(np.max(3.0 * np.sqrt(matrix * (1.0 - matrix) / cfg.samples)))
        if worst > cfg.entry_tol:
            warnings.warn(
                f"mpsk_hard_dmc: {cfg.samples} samples give 3-sigma entry error "
                f"{worst:.2e} > requested {cfg.entry_tol:.2e}",
                RuntimeWarning,
                stacklevel=2,
            )
    return Dmc(_psk_labels(m), _psk_labels(m), matrix)


def _row_cdfs(probs: np.ndarray) -> np.ndarray:
    """Running sums along the last axis, each ending in exactly 1.0."""
    cdf = np.cumsum(probs, axis=-1)
    cdf[..., -1] = 1.0
    return cdf


def _draw_outputs(cdf: np.ndarray, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Channel outputs by inverse CDF: y counts the row-cdf entries u reaches.

    cdf is _row_cdfs of the channel matrix; x and u have one shape and y
    gets it. The last cdf column is 1.0 > u, so it is never counted and y
    stays below the output count. One pass per output column keeps the
    temporaries at x's size.
    """
    y = np.zeros(x.shape, dtype=np.int64)
    for b in range(cdf.shape[1] - 1):
        y += u >= cdf[:, b][x]
    return y


def transmit(ch: Dmc, x: Sequence, rng: ChannelRng) -> Sequence:
    """Send x through ch memorylessly; returns the received Sequence.

    Sampling is inverse-CDF per symbol against one uniform draw each, so the
    output is a pure function of (ch, x, rng).
    """
    if x.alphabet_size != ch.num_inputs:
        raise ValidationError(
            f"transmit: sequence alphabet size {x.alphabet_size} does not match "
            f"channel input count {ch.num_inputs}"
        )
    u = rng.generator().random(len(x))
    y = _draw_outputs(_row_cdfs(ch.matrix), x.symbols, u)
    return Sequence(y, ch.num_outputs)
