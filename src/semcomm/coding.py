"""Many-to-one semantic channel coding: partitions, codebooks, decoders,
Monte Carlo simulation, exact small-instance evaluation, and the semantic
Fano machinery.

A semantic partition is the many-to-one map itself, stored as one array of
class indices (SemanticPartition.class_of); sizes, representatives and
member lists derive from it, and partition_from_counts builds the
contiguous one that a message and a class count determine.
A code with one codeword per class reads only the class sizes: its errors
depend on the class sent and the class decoded, not on which messages
share a class, so simulation builds no partition of its own.

Message counts are powers of two derived from (n, R, alpha) by ceilings, so
they can exceed what fits in memory by hundreds of orders of magnitude. Two
simulation regimes cover this:

- materialized: codewords live in arrays; the literal protocol runs, in
  one engine whether the codebook holds a codeword per class or per
  message. The ML and typicality decoders take a batch's trials a block
  at a time, sized so that a block's largest array holds at most
  BLOCK_ELEMENTS elements, and a shared codebook too wide for one block is
  also split by codewords; the working set stays bounded whatever the
  trial or codeword count. There is no per-trial Python loop.
- virtual: for fresh per-trial codebooks too large to hold, each trial
  draws only the true codeword and the channel output, then realizes the
  correct/incorrect outcome with the exact conditional probability that a
  maximum-likelihood decoder over the full random codebook would produce.
  The competitor codewords' score distribution given y is computed exactly
  (it depends on y only through its symbol counts), so the simulated error
  process is distributed identically to the literal one. It runs in two
  phases: each batch draws every trial's joint type of (x, y), the
  (input, output) cell counts, as one multinomial over px(a) W(b|a), then
  its rep_hit and u_win uniforms, and keeps only its own score, y-type
  counts and those two uniforms; then each y type is folded onto its
  competitor law (outputs with the same law pool their counts), and each
  distinct law gets one upper-tail table, built only from the grid points
  that can score at least the lowest own score of its trials, and answers
  all of them.

A run's choices are made in one place, _plan, before anything is drawn: it
checks every input, then settles the regime and the codebook into a
RunPlan that an engine carries out; _run_batches alone splits its
trials into batches and runs them.

Determinism: all randomness flows through Philox keys (seed, stream_id).
Trials are processed in fixed batches of BATCH_TRIALS, batch b drawing from
stream b; shared codebooks use stream CODEBOOK_STREAM, Fano campaign
instance i stream FANO_STREAM + i, and the shuffle of its partition
PARTITION_STREAM. Results are therefore bit-identical across runs and worker
counts, on the one batch pool every regime shares (see _run_batches).

Scores are canonical: a decoder scores a (codeword, output) pair's joint
type by its weight-class counts. A class is the cells (a, b) of one weight
(log2 p(b|a) for ML, the triple log2 p(a), p(b), p(a, b) for typicality),
numbered by first appearance in row-major order, and a score sums count *
weight in class order (info._combine): equal class counts give bit-equal
floats, so a tie of the model is exact, and with all weights distinct the
sum is the row-major cell-order one. Every path counts exactly (a
per-trial block skips the largest class, n less the others); where the
possible counts are few, either scorer scores each once and looks scores
up by an exact key. One rule (_decisions) decides for both: the unique
best score wins; a tie or an impossible best erases.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .capacity import Dmc, blahut_arimoto
from .channels import ChannelRng, _draw_outputs, _exceeds, _row_cdfs, check_channel_elements
from .errors import ValidationError, ConfigError, BudgetError
from .info import (
    NEG_THRESHOLD, JointDist, ProbVector, Sequence, _CellScore, _combine, _log_matrix,
    _typical_score, _weight_classes, entropy_bits,
)

BATCH_TRIALS = 4096
# Element budget of one trial block in the materialized kernels: a block's
# largest array holds at most this many elements (at least one trial), so
# the working set stays bounded whatever the codebook size or blocklength.
# A batch makes a round of numpy calls per block, so the budget sets how
# many calls a batch makes. At 2^16 they were so many that two pool threads
# ran fresh materialized batches no faster than one; at 2^18 a batch makes a
# quarter of them and the pool pays, and at 2^19 the shared-codebook scorer
# runs slower inline (measured on 2 vCPUs).
BLOCK_ELEMENTS = 2**18
# Cap on the messages of a partition or a per-message codebook (check_message_bits).
FULL_CODEBOOK_CAP = 2**20
# Cap on |Y|^n * codewords, the (output word, codeword) pairs that
# exact_evaluate enumerates.
ENUM_BUDGET = 10**7
# Per-trial fresh codebooks are materialized only while count * n stays at or
# below this; beyond it the virtual regime takes over.
MATERIALIZE_LIMIT = 2048
# Cap on the support size of the virtual regime's competitor score grid, the
# grid of a folded y type (_output_fold).
DIST_BUDGET = 2 * 10**6
# Largest semantic_bits the virtual regime accepts: a win is decided by tail
# probabilities near 2^-semantic_bits, and 2^-1022 is the smallest normal
# float64.
MAX_SEMANTIC_BITS = 1022

CODEBOOK_STREAM = 2**62
PARTITION_STREAM = 2**62 + 1
FANO_STREAM = 2**61

# Slack check_fano allows both of its inequalities for floating rounding.
FANO_TOL = 1e-9

Z95 = 1.959963984540054  # two-sided 95% normal quantile


def _ceil_bits(value: float, what: str) -> int:
    """Smallest integer >= value, snapping values within 1e-9 of an integer."""
    nearest = round(value)
    if abs(value - nearest) < 1e-9:
        return int(nearest)
    out = math.ceil(value)
    if out < 0:
        raise ValidationError(f"{what}: negative bit count {value}")
    return int(out)


@dataclass(frozen=True)
class CodeConfig:
    """Blocklength, requested rate, and semantic fraction of a code.

    Counts are derived by ceilings: 2^ceil(nR) messages, 2^ceil(alpha n R)
    semantic classes. Both are exact Python integers; they routinely exceed
    2^60, so nothing here assumes they fit a machine word. The realized
    rates (ceil(nR)/n and ceil(alpha n R)/n) are what the code actually
    uses and are reported alongside the requested ones.
    """

    n: int
    rate: float
    alpha: float

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool) or self.n < 1:
            raise ValidationError(f"CodeConfig: n must be an integer >= 1, got {self.n!r}")
        if not math.isfinite(self.rate) or self.rate <= 0:
            raise ValidationError(f"CodeConfig: rate must be > 0, got {self.rate}")
        if not (0.0 < self.alpha <= 1.0):
            raise ValidationError(f"CodeConfig: alpha must be in (0, 1], got {self.alpha}")
        object.__setattr__(self, "n", int(self.n))
        try:
            bits = self.n * self.rate
        except OverflowError:  # n past the float range
            bits = math.inf
        if not math.isfinite(bits):
            raise ValidationError(
                f"CodeConfig: n * rate = {bits} is not finite (rate {self.rate!r})"
            )

    @property
    def message_bits(self) -> int:
        return max(_ceil_bits(self.n * self.rate, "message_bits"), 1)

    @property
    def semantic_bits(self) -> int:
        return max(_ceil_bits(self.alpha * self.n * self.rate, "semantic_bits"), 1)

    @property
    def message_count(self) -> int:
        return 1 << self.message_bits

    @property
    def semantic_count(self) -> int:
        return 1 << self.semantic_bits

    @property
    def realized_rate(self) -> float:
        return self.message_bits / self.n

    @property
    def realized_semantic_rate(self) -> float:
        return self.semantic_bits / self.n

    def describe(self) -> dict:
        return {
            "n": self.n,
            "rate": self.rate,
            "alpha": self.alpha,
            "message_bits": self.message_bits,
            "semantic_bits": self.semantic_bits,
            "realized_rate": self.realized_rate,
            "realized_semantic_rate": self.realized_semantic_rate,
        }


def check_message_bits(bits: int, what: str) -> None:
    """BudgetError if 2^bits messages pass FULL_CODEBOOK_CAP, decided on the
    bit count, so a message count too large to build is never formed."""
    if _exceeds(1, bits, FULL_CODEBOOK_CAP):
        raise BudgetError(f"{what}: 2^{bits} messages exceed the {FULL_CODEBOOK_CAP} cap")


@dataclass(frozen=True, eq=False)
class SemanticPartition:
    """The many-to-one map from messages to semantic classes.

    class_of[w] is the class index of message w in [0, message_count), a
    read-only int64 array and the only stored form, so classes are disjoint
    and cover the messages by construction; no id in [0, class_count) may go
    unused. Everything else derives from it. Messages and classes are 0-based.
    """

    class_of: np.ndarray

    def __post_init__(self):
        class_of = np.asarray(self.class_of)
        if class_of.ndim != 1 or class_of.size == 0 or class_of.dtype.kind not in "iu":
            raise ValidationError(
                "SemanticPartition: class_of must be a non-empty 1-D integer array"
            )
        # The range is checked before the cast, which wraps uint64 ids past 2^63.
        if class_of.min() < 0:
            raise ValidationError("SemanticPartition: negative class id")
        # An id >= the message count leaves a class empty; bincount never sees it.
        if class_of.max() >= class_of.size:
            raise ValidationError("SemanticPartition: empty class")
        class_of = class_of.astype(np.int64)
        if not np.bincount(class_of).all():
            raise ValidationError("SemanticPartition: empty class")
        class_of.setflags(write=False)
        object.__setattr__(self, "class_of", class_of)

    @property
    def message_count(self) -> int:
        return self.class_of.size

    @property
    def class_count(self) -> int:
        return int(self.class_of.max()) + 1

    @property
    def sizes(self) -> np.ndarray:
        return np.bincount(self.class_of)

    @property
    def is_equal_sized(self) -> bool:
        return bool(np.ptp(self.sizes) == 0)

    @property
    def representatives(self) -> np.ndarray:
        """Smallest member of each class; the class's canonical message."""
        return np.unique(self.class_of, return_index=True)[1]

    @property
    def beta(self) -> float:
        """Largest class mass fraction max_m |class m| / message_count."""
        return float(self.sizes.max()) / self.message_count

    @cached_property
    def classes(self) -> tuple[np.ndarray, ...]:
        """Each class's sorted members, read-only (computed on first use)."""
        order = np.argsort(self.class_of, kind="stable")
        order.setflags(write=False)
        return tuple(np.split(order, np.cumsum(self.sizes)[:-1]))


def partition_from_counts(message_count: int, class_count: int) -> SemanticPartition:
    """Partition [0, message_count) into class_count contiguous classes.

    Message w goes to class min(w // base, class_count - 1), base =
    message_count // class_count, so when class_count does not divide
    message_count the last class absorbs the remainder; downstream reports
    flag that.
    """
    if message_count < 1:
        raise ConfigError(f"message_count must be >= 1, got {message_count}")
    if class_count < 1:
        raise ConfigError("class_count must be >= 1")
    # Counts print only below the cap: past it they can outgrow int-to-str.
    if message_count > FULL_CODEBOOK_CAP:
        raise BudgetError(
            f"cannot materialize a partition of over {FULL_CODEBOOK_CAP} messages; "
            "large-message simulations use the virtual regime, which never builds one"
        )
    if class_count > message_count:
        raise ConfigError(
            f"cannot split {message_count} messages into more than {message_count} classes"
        )
    w = np.arange(message_count)
    return SemanticPartition(np.minimum(w // (message_count // class_count), class_count - 1))


def make_partition(cfg: CodeConfig) -> SemanticPartition:
    """Partition cfg's message set into its contiguous semantic classes.

    Counts derived from CodeConfig are powers of two, so the classes always
    come out equal-sized here; check_message_bits checks the cap first.
    """
    check_message_bits(cfg.message_bits, "make_partition")
    return partition_from_counts(cfg.message_count, cfg.semantic_count)


def semantic_map(w: int, p: SemanticPartition) -> int:
    """The class index of message w."""
    if not (0 <= w < p.message_count):
        raise ValidationError(
            f"semantic_map: message {w} outside [0, {p.message_count})"
        )
    return int(p.class_of[w])


@dataclass(frozen=True, eq=False)
class Codebook:
    """A matrix of codewords (one row each) over a channel input alphabet."""

    codewords: np.ndarray
    alphabet_size: int

    def __post_init__(self):
        cw = np.asarray(self.codewords)
        if cw.ndim != 2 or cw.size == 0:
            raise ValidationError("Codebook: need a non-empty (count, n) array")
        if not np.issubdtype(cw.dtype, np.integer):
            raise ValidationError("Codebook: codeword symbols must be integers")
        cw = cw.astype(np.int64)
        if self.alphabet_size < 1 or cw.min() < 0 or cw.max() >= self.alphabet_size:
            raise ValidationError("Codebook: symbol out of alphabet range")
        cw.setflags(write=False)
        object.__setattr__(self, "codewords", cw)

    @property
    def count(self) -> int:
        return int(self.codewords.shape[0])

    @property
    def n(self) -> int:
        return int(self.codewords.shape[1])

    def sequence(self, index: int) -> Sequence:
        if not (0 <= index < self.count):
            raise ValidationError(f"Codebook: index {index} outside [0, {self.count})")
        return Sequence(self.codewords[index], self.alphabet_size)


def _sample_symbols(gen: np.random.Generator, shape, probs: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws from probs: each symbol counts the cdf entries its
    uniform reaches.

    The cdf (_row_cdfs of probs) ends in 1.0 > u, never reached; the count
    equals searchsorted(cdf, u, side="right"). The symbols come in the
    narrowest unsigned dtype that holds them (uint8 up to 256 symbols), so
    arithmetic on them must widen first. The uniforms are drawn BLOCK_ELEMENTS
    at a time into one reused buffer, so no two blocks of doubles are alive
    at once; the generator hands them out in sequence, so the symbols equal
    those of one gen.random(shape) call.
    """
    cdf = _row_cdfs(probs)
    out = np.zeros(shape, dtype=np.min_scalar_type(cdf.size - 1))
    flat = out.reshape(-1)
    buf = np.empty(min(flat.size, BLOCK_ELEMENTS))
    for block in _blocks(flat.size, 1):
        part = flat[block]
        u = gen.random(out=buf[: part.size])
        for c in cdf[:-1]:
            part += u >= c
    return out


def _codeword_symbols(gen: np.random.Generator, shape, probs: np.ndarray) -> np.ndarray:
    """Codeword symbols i.i.d. from probs, in _sample_symbols' dtype.

    A uniform law over 2^k symbols (1 <= k <= 8, every entry exactly 1/2^k)
    takes k random bits per symbol from raw Philox bytes, exact in law: byte
    j of raw word i, in little-endian order whatever the host's, gives flat
    symbol 8i + j as its top k bits, so a word serves eight symbols. The
    raw words are the output buffer, shifted in place. Every other law is
    _sample_symbols' inverse CDF, one uniform double per symbol.
    """
    size = len(probs)
    k = size.bit_length() - 1
    if not (size == 1 << k and 1 <= k <= 8 and np.all(np.asarray(probs) == 1.0 / size)):
        return _sample_symbols(gen, shape, probs)
    count = math.prod(shape)
    raw = gen.bit_generator.random_raw(-(-count // 8))
    out = raw.astype("<u8", copy=False).view(np.uint8)[:count]
    np.right_shift(out, 8 - k, out=out)
    return out.reshape(shape)


def _codebook_from_px(count: int, n: int, px: ProbVector, rng: ChannelRng) -> Codebook:
    return Codebook(_codeword_symbols(rng.generator(), (count, n), px.probs), len(px))


def generate_codebook(cfg: CodeConfig, px: ProbVector, rng: ChannelRng) -> Codebook:
    """One codeword per semantic class, symbols i.i.d. from px.

    A uniform px over 2^k inputs (k <= 8) draws its symbols from raw Philox
    bytes, k bits each; any other px by inverse CDF (_codeword_symbols).
    """
    bits = cfg.semantic_bits
    check_channel_elements(cfg.n, f"generate_codebook: 2^{bits} codewords of length {cfg.n}", bits)
    return _codebook_from_px(cfg.semantic_count, cfg.n, px, rng)


def generate_full_codebook(cfg: CodeConfig, px: ProbVector, rng: ChannelRng) -> Codebook:
    """One codeword per message, symbols i.i.d. from px (cap 2^20 messages).

    Symbols are drawn as generate_codebook draws them (_codeword_symbols).
    """
    bits = cfg.message_bits
    check_message_bits(bits, "generate_full_codebook")
    check_channel_elements(cfg.n, f"generate_full_codebook: 2^{bits} codewords", bits)
    return _codebook_from_px(cfg.message_count, cfg.n, px, rng)


def encode(w: int, p: SemanticPartition, cb: Codebook) -> Sequence:
    """The semantic encoder: message w transmits its class's codeword."""
    if cb.count != p.class_count:
        raise ValidationError(
            f"encode: codebook has {cb.count} codewords but partition has "
            f"{p.class_count} classes"
        )
    return cb.sequence(semantic_map(w, p))


@dataclass(frozen=True)
class DecodeOutcome:
    """Either a decoded index or the erasure mark (index None)."""

    index: int | None

    @property
    def is_erasure(self) -> bool:
        return self.index is None


ERASURE = DecodeOutcome(None)


def _blocks(rows: int, row_elements: int) -> list[slice]:
    """Slices of [0, rows), each holding at most BLOCK_ELEMENTS elements of
    row_elements each (always at least one row)."""
    step = max(1, BLOCK_ELEMENTS // row_elements)
    return [slice(i, min(i + step, rows)) for i in range(0, rows, step)]


def _key_table(score: _CellScore, n: int, pairs: int):
    """The count-key table of both scorers, or None unless its keys,
    (n + 1)^(r - 1) for r classes, number at most BLOCK_ELEMENTS and at most
    the pairs to score: (table, weight). A pair's key sums weight[x_i, y_i]
    over its positions: (n + 1)^j in the cells of the j-th class but the
    largest (score.largest), 0 in the largest's, so its digits in base n + 1
    are the other class counts; table[key] is score's float for those
    counts. Only keys whose digits sum to at most n are scored; the rest
    hold NaN.
    """
    classes = len(score.weights)
    keys = (n + 1) ** (classes - 1)
    if keys > min(BLOCK_ELEMENTS, pairs):
        return None
    largest = score.largest
    digits = np.zeros((0, 1), dtype=np.intp)
    for _ in range(classes - 1):
        grown = np.repeat(digits, n + 1, axis=1), np.tile(np.arange(n + 1), digits.shape[1])
        digits = np.vstack(grown)[:, grown[0].sum(axis=0) + grown[1] <= n]
    weight = (n + 1) ** np.arange(classes - 1)
    counts = [*digits[:largest], n - digits.sum(axis=0), *digits[largest:]]
    table = np.full(keys, np.nan)
    table[weight @ digits] = score.of(counts, np.empty(digits.shape[1]))
    place = np.zeros(classes, dtype=np.intp)
    place[np.arange(classes) != largest] = weight
    return table, place[score.cell_class].reshape(score.shape)


def _scores_per_trial(cws: np.ndarray, ys: np.ndarray, score: _CellScore):
    """Scores, one codebook per trial, a trial block at a time.

    cws is (trials, count, n), ys (trials, n), score the decoder's (see
    _decoder_score). Yields (rows, cols, scores): scores[i, k] scores
    codeword cols[k] of trial rows[i]; cols always spans the whole codebook.
    Each block builds the joint index x * |Y| + y with position as the
    leading axis, so a cell's count is a sum of n contiguous rows. It counts
    the cells of every class but the largest and hands the exact class
    counts to score (score.class_counts), or, keyed (_key_table), adds them
    into keys a class at a time by Horner's rule to look scores up by.
    """
    trials, count, n = cws.shape
    a_count, b_count = score.shape
    cell_type = np.min_scalar_type(a_count * b_count - 1)
    count_type = np.min_scalar_type(n)
    keyed = _key_table(score, n, trials * count)
    largest = score.largest
    digits = [cells for k, cells in enumerate(score.members) if k != largest][::-1]
    for rows in _blocks(trials, count * n):
        joint = cws[rows].transpose(2, 0, 1).astype(cell_type, order="C")
        joint *= b_count
        joint += ys[rows].T.astype(cell_type)[:, :, None]
        hit = np.empty(joint.shape, dtype=bool)

        def cell_count(cell: int) -> np.ndarray:
            return np.sum(np.equal(joint, cell, out=hit).view(np.uint8), axis=0, dtype=count_type)

        if keyed is None:
            counts = score.class_counts(cell_count, n)
            yield rows, slice(0, count), score.of(counts, np.empty(joint.shape[1:]))
            continue
        key = np.zeros(joint.shape[1:], dtype=np.min_scalar_type(keyed[0].size))
        for cells in digits:
            key *= n + 1
            for cell in cells:
                key += cell_count(cell)
        yield rows, slice(0, count), keyed[0].take(key)


def _scores_shared(cw: np.ndarray, ys: np.ndarray, score: _CellScore):
    """Scores, one shared (count, n) codebook against every row of ys, a
    tile of trials and codewords at a time.

    Yields (rows, cols, scores) like _scores_per_trial. A tile spans at most
    BLOCK_ELEMENTS // n codewords (all of them unless the codebook is wide),
    so their indicators fit the budget, and as many trials as fit it beside
    them. The tile buffers are reused (fresh tile-sized arrays would fault
    in new pages on every tile), so each tile must be consumed before the
    next one is drawn.

    Keyed (_key_table), a tile is one float32 matmul and a table lookup: a
    pair's key is the codeword's key against the all-last output plus
    [y_i = b] (weight[x_i, b] - weight[x_i, last]) per position i and output
    b below the last. Each partial sum is an integer below 2 BLOCK_ELEMENTS
    = 2^19 in magnitude (its terms of either sign add up to part of at most
    two keys), exact in float32 (up to 2^24), and so is the key. Keys are in
    range by construction (a test checks them against int64 ones), so the
    lookup clips, which unlike a checked take does not buffer. Otherwise
    each cell count is a 0/1 matmul, exact in float64, and the counts of a
    class are added up in one tile buffer that score consumes before the
    next class is counted.
    """
    a_count, b_count = score.shape
    count, n = cw.shape
    chunks = _blocks(count, n)
    width = chunks[0].stop
    slices = _blocks(ys.shape[0], width)
    height = slices[0].stop
    keyed = _key_table(score, n, ys.shape[0] * count)
    kinds = (float, float, float) if keyed is None else (float, np.intp, np.float32)
    buffers = [np.empty(height * width, dtype=kind) for kind in kinds]
    if keyed is not None:
        # Gathered from float32 tables: no (count, n, |Y|) int64 array is built.
        place = keyed[1].astype(np.float32)
        right = np.concatenate([(place[:, :-1] - place[:, -1:])[cw].reshape(count, -1),
                                place[:, -1][cw].sum(1, keepdims=True)], axis=1)
        for rows in slices:
            left = np.ones((rows.stop - rows.start, right.shape[1]), dtype=np.float32)
            left[:, :-1] = (ys[rows][:, :, None] == np.arange(b_count - 1)).reshape(len(left), -1)
            for cols in chunks:
                shape = (rows.stop - rows.start, cols.stop - cols.start)
                scores, at, key = (buf[: shape[0] * shape[1]].reshape(shape) for buf in buffers)
                at[...] = np.matmul(left, right[cols].T, out=key)
                yield rows, cols, keyed[0].take(at, out=scores, mode="clip")
        return
    xs = [(cw == a).astype(float) for a in range(a_count)]
    for rows in slices:
        yb = [(ys[rows] == b).astype(float) for b in range(b_count)]
        for cols in chunks:
            shape = (rows.stop - rows.start, cols.stop - cols.start)
            scores, cnt, cell = (buf[: shape[0] * shape[1]].reshape(shape) for buf in buffers)

            def counts():
                for first, *rest in score.members:
                    np.matmul(yb[first % b_count], xs[first // b_count][cols].T, out=cnt)
                    for c in rest:
                        term = np.matmul(yb[c % b_count], xs[c // b_count][cols].T, out=cell)
                        np.add(cnt, term, out=cnt)
                    yield cnt

            yield rows, cols, score.of(counts(), scores)


DECODERS = ("ml", "typicality")


def _decoder_score(
    decoder: str, ch: Dmc, px: ProbVector | None = None, eps: float = 0.0, n: int = 0
) -> _CellScore:
    """The score of a pair's weight-class counts at blocklength n, for each
    name in DECODERS: ML's log-likelihood under log2 W (it needs only ch),
    or typicality's 0.0/NEG against px(a) W(b|a) (info._typical_score,
    which checks eps). ValidationError for any other name or a missing px."""
    if decoder == "ml":
        cell_class, members, weights = _weight_classes(_log_matrix(ch.matrix).ravel())
        return _CellScore(ch.matrix.shape, cell_class, members, weights,
                          lambda counts, out: _combine(counts, weights, out))
    if decoder != "typicality":
        raise ValidationError(f"unknown decoder {decoder!r}; use one of {DECODERS}")
    if px is None:
        raise ValidationError("typicality decoding needs px")
    joint = JointDist.from_input_and_kernel(px, ch.matrix, ch.output_labels)
    return _typical_score(joint, eps, n)


def _decisions(cw: np.ndarray, ys: np.ndarray, score: _CellScore) -> np.ndarray:
    """The decision for every row of ys: the codeword index with the unique
    best score, or -1 on an exact tie for the best score or when the best is
    at or below NEG_THRESHOLD. For ML that is the likelihood rule with
    erasures; for typicality's 0.0/NEG score it is "exactly one typical
    codeword".

    cw is one shared (count, n) codebook, or one (trials, count, n) codebook
    per trial. Scores arrive a tile at a time. A tile's row is read by one
    argmax (the first best codeword), the score there, and one max over the
    rest of the row once that entry is knocked out: the row ties exactly
    when the runner-up equals the best. The tile is the scorer's scratch
    buffer, so knocking an entry out costs nothing. Per trial the best
    score, the first codeword reaching it and whether another one reaches
    it carry over from one codeword chunk to the next, so the decisions are
    those of whole rows.
    """
    trials = ys.shape[0]
    best = np.empty(trials)
    first = np.empty(trials, dtype=np.int64)
    tied = np.empty(trials, dtype=bool)
    scorer = _scores_per_trial if cw.ndim == 3 else _scores_shared
    for rows, cols, scores in scorer(cw, ys, score):
        at = scores.argmax(axis=1)
        row = np.arange(at.size)
        top = scores[row, at]
        scores[row, at] = -np.inf
        tie = scores.max(axis=1) == top
        at += cols.start
        if cols.start == 0:
            best[rows], first[rows], tied[rows] = top, at, tie
        else:
            held = best[rows]
            gain = top > held
            tied[rows] = np.where(gain, tie, tied[rows] | (top == held))
            first[rows] = np.where(gain, at, first[rows])
            best[rows] = np.where(gain, top, held)
    picks = first
    picks[tied | (best <= NEG_THRESHOLD)] = -1
    return picks


def _decode_word(y: Sequence, cb: Codebook, score: _CellScore, name: str) -> DecodeOutcome:
    """The one decision rule (_decisions) for one output word y."""
    if (cb.alphabet_size, y.alphabet_size) != score.shape:
        raise ValidationError(
            f"{name}: codebook and y alphabets {(cb.alphabet_size, y.alphabet_size)} "
            f"do not match the decoder's {score.shape}"
        )
    if cb.n != len(y):
        raise ValidationError(f"{name}: codeword length {cb.n} != len(y) {len(y)}")
    pick = _decisions(cb.codewords, y.symbols[None, :], score)[0]
    return ERASURE if pick < 0 else DecodeOutcome(int(pick))


def decode_ml(y: Sequence, cb: Codebook, ch: Dmc) -> DecodeOutcome:
    """Maximum-likelihood decoding; exact ties and impossible y erase."""
    return _decode_word(y, cb, _decoder_score("ml", ch), "decode_ml")


def decode_typicality(
    y: Sequence, cb: Codebook, joint: JointDist, eps: float
) -> DecodeOutcome:
    """Weak-joint-typicality decoding: a unique typical codeword, else erasure."""
    return _decode_word(y, cb, _typical_score(joint, eps, len(y)), "decode_typicality")


def wilson_interval(errors: int, trials: int, z: float = Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1 or not (0 <= errors <= trials):
        raise ValidationError(f"wilson_interval: bad counts {errors}/{trials}")
    phat = errors / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    # At the boundary counts center - half is 0 or 1 exactly; don't let
    # floating residue move a zero-error lower bound off zero.
    lo = 0.0 if errors == 0 else max(0.0, center - half)
    hi = 1.0 if errors == trials else min(1.0, center + half)
    return (lo, hi)


@dataclass(frozen=True)
class SimulationReport:
    """Monte Carlo error-rate estimates with Wilson 95% intervals.

    Message errors for per-class codebooks use the representative
    convention: a decoded class stands for one message of it, so a correct
    class is a correct message with probability 1/size of the class (the
    class's messages are equally likely and independent of the output), an
    event drawn after the channel. With singleton classes (alpha = 1) that
    probability is 1, so the two counts coincide bit-for-bit.
    """

    trials: int
    semantic_errors: int
    message_errors: int
    p_sem: float
    p_sem_lo: float
    p_sem_hi: float
    p_msg: float
    p_msg_lo: float
    p_msg_hi: float
    seed: int
    config: dict

    def __post_init__(self):
        # Correct message implies correct class, so this ordering can never
        # break; if it does, the engine itself is wrong.
        if not (0 <= self.semantic_errors <= self.message_errors <= self.trials):
            raise AssertionError(
                f"impossible error counts: semantic {self.semantic_errors}, "
                f"message {self.message_errors}, trials {self.trials}"
            )
        for v in (self.p_sem, self.p_msg):
            if not (0.0 <= v <= 1.0):
                raise AssertionError(f"estimate {v} outside [0, 1]")

    @classmethod
    def from_counts(
        cls, trials: int, semantic_errors: int, message_errors: int,
        seed: int, config: dict,
    ) -> "SimulationReport":
        slo, shi = wilson_interval(semantic_errors, trials)
        mlo, mhi = wilson_interval(message_errors, trials)
        return cls(
            trials=trials,
            semantic_errors=semantic_errors,
            message_errors=message_errors,
            p_sem=semantic_errors / trials,
            p_sem_lo=slo,
            p_sem_hi=shi,
            p_msg=message_errors / trials,
            p_msg_lo=mlo,
            p_msg_hi=mhi,
            seed=seed,
            config=config,
        )

    def to_dict(self) -> dict:
        return asdict(self)


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _reset_pool() -> None:
    """Make _run_batches's pool, one thread per CPU: at import, and again in
    a forked child, where the parent's pool threads do not run (their pool
    would hang). An executor starts no thread before work arrives."""
    global _pool
    _pool = ThreadPoolExecutor(max_workers=_cpu_count())


_reset_pool()
os.register_at_fork(after_in_child=_reset_pool)


def _run_batches(trials: int, worker: Callable[[int, int], tuple]) -> list:
    """worker(batch_index, batch_trials) over fixed-size batches, in batch
    order: here for one batch or one CPU, else on the process's pool (no
    thread start-up per run). The one place trials are split into batches.
    Never call it from a worker: it would wait on its own pool.

    worker must be a pure function of its arguments, so the list is the
    same however many threads run it; callers reduce it with integer sums or
    in-order concatenation, which keeps their results identical too.
    """
    full, rem = divmod(trials, BATCH_TRIALS)
    sizes = [BATCH_TRIALS] * full + ([rem] if rem else [])
    if len(sizes) == 1 or _cpu_count() == 1:
        return [worker(b, nb) for b, nb in enumerate(sizes)]
    return list(_pool.map(worker, range(len(sizes)), sizes))


def _log_choose(count: int) -> np.ndarray:
    """log C(count, k) for k = 0..count, from log-factorials summed in order."""
    log_fact = np.zeros(count + 1)
    np.cumsum(np.log(np.arange(1, count + 1)), out=log_fact[1:])
    return log_fact[-1] - log_fact - log_fact[::-1]


def _binomial_pmf(count: int, p: float) -> np.ndarray:
    k = np.arange(count + 1)
    if p == 0.0:
        out = np.zeros(count + 1)
        out[0] = 1.0
        return out
    if p == 1.0:
        out = np.zeros(count + 1)
        out[-1] = 1.0
        return out
    logs = _log_choose(count) + k * math.log(p) + (count - k) * math.log1p(-p)
    return np.exp(logs)


def _competitor_tail(p0: float, score: _CellScore, y_counts: np.ndarray,
                     s: np.ndarray) -> np.ndarray:
    """P(competitor score >= s) for one y type, elementwise over s.

    Given y, a random competitor's score depends only on k[b], the number of
    its input-0 symbols among the c_b positions where y = b (binary inputs
    only): its cells in (a, b) order are k[b] for a = 0 and c_b - k[b] for
    a = 1. The k[b] are independent Binomial(c_b, p0), so the score law
    lives on the grid prod(c_b + 1).

    Only grid points scoring at least min(s) can answer a query, and only
    candidates for them are built. The score is linear in the last k[b]:
    the leading points whose best score along it can reach min(s) are
    enumerated, and the last k[b] is limited to the interval where the best
    of those can, both tests with a margin above the float sums' rounding.
    The candidates, in row-major order, are scored by score (ML's) with the
    same per-element operations as a whole-grid build and filtered exactly,
    so they are the grid's flatnonzero(values >= min(s)), the top block of
    its stable sort in the same order: summing from the top gives the very
    partial sums a full table would. The normalizer is the product of the
    per-output pmf sums, the grid's mass up to rounding. Summing from the
    top resolves P(score >= s) far below 1e-16, which beating 2^hundreds of
    competitors needs and a cdf near 1.0 cannot represent.
    """
    shape = tuple(int(c) + 1 for c in y_counts)
    support = math.prod(shape)
    if support > DIST_BUDGET:
        raise BudgetError(
            f"virtual score distribution support {support} exceeds "
            f"{DIST_BUDGET}; reduce the blocklength or output alphabet"
        )
    lowest = s.min()
    logmat = score.weights[score.cell_class].reshape(score.shape)
    *lead, m = shape
    counts = np.array(shape) - 1
    # Row-major leading points, and each one's real-valued score at a last
    # k[b] of 0.
    lead_k = np.indices(lead).reshape(len(lead), math.prod(lead))
    base = np.full(lead_k.shape[1], counts[-1] * logmat[1, -1])
    for b, k in enumerate(lead_k):
        base += k * logmat[0, b] + (counts[b] - k) * logmat[1, b]
    slope = float(logmat[0, -1] - logmat[1, -1])
    # A float sum of at most 2|Y| products errs from the real one by at most
    # about |Y| * eps times the sum of their magnitudes, and so does base;
    # the margin is four times that, and the rounding of the interval's
    # bound is absorbed by widening it one step.
    margin = 4 * (len(shape) + 1) * np.finfo(float).eps * float(
        counts @ np.abs(logmat).max(axis=0)
    )
    target = lowest - margin
    rows = np.flatnonzero(base + max(slope, 0.0) * counts[-1] >= target)
    first, last = 0, m - 1
    if rows.size and slope:
        bound = float(target - base[rows].max()) / slope
        if slope > 0:
            first = max(math.ceil(bound) - 1, 0)
        else:
            last = min(math.floor(bound) + 1, m - 1)
    ks = [k[rows, None] for k in lead_k] + [np.arange(first, last + 1)]
    cells = [*ks, *(c - k for c, k in zip(counts, ks))]
    classes = score.class_counts(cells.__getitem__, int(counts.sum()))
    values = score.of(classes, np.empty((rows.size, ks[-1].size)))
    keep = values >= lowest
    kept = values[keep]
    pmfs = [_binomial_pmf(int(c), p0) for c in counts]
    # Multiplied in the whole-grid build's order, from 1.0 up.
    probs = np.ones((rows.size, 1))
    for pmf, k in zip(pmfs, ks):
        probs = probs * pmf[k]
    probs = probs[keep]
    order = np.argsort(kept, kind="stable")
    tail = np.cumsum(probs[order][::-1])[::-1]
    tail = np.minimum(tail / math.prod(float(pmf.sum()) for pmf in pmfs), 1.0)
    idx = np.searchsorted(kept[order], s, side="left")
    return np.append(tail, 0.0)[idx]


def _output_fold(score: _CellScore, p0: float) -> np.ndarray:
    """The 0/1 (|Y|, |Y|) matrix that folds a y type onto its competitor law.

    Where y = b a competitor's symbol lands in class(0, b) with probability
    p0 and class(1, b) with 1 - p0, so its class counts depend on y only
    through how many positions share each such law (the method of types).
    Row b has its one 1 in the column of the first output with b's law: the
    folded type (counts @ fold) moves every count there and gives the same
    score law. An output's law is its own alone unless another shares it
    (BSC or BEC with uniform input fold 0 and 1 together).
    """
    firsts: dict = {}
    fold = np.zeros((score.shape[1],) * 2, dtype=np.int64)
    for b, classes in enumerate(zip(*score.cell_class.reshape(score.shape).tolist())):
        law: dict = {}
        for k, p in zip(classes, (p0, 1.0 - p0)):
            law[k] = law.get(k, 0.0) + p
        fold[b, firsts.setdefault(frozenset(law.items()), b)] = 1
    return fold


@dataclass(frozen=True, eq=False)
class RunPlan:
    """A simulation run, its inputs checked and its choices made (_plan).

    score is the decoder's (_decoder_score), which both engines score with.
    regime is the engine's name in the report.
    codebook None is a fresh codebook in every trial. partition is the
    caller's, else None (the config's equal classes); a per-class run reads
    only its class sizes, as the error depends on the class sent and the
    class decoded, not on which messages share a class. The virtual engine
    reads not even those: a fresh i.i.d. codebook per trial makes the
    classes exchangeable, so a correct class is a correct message with
    probability class_count / message_count whatever the sizes. A given
    partition is kept all the same, so that the report notes an unequal
    one in every regime. report() adds the counts.
    """

    cfg: CodeConfig
    ch: Dmc
    px: ProbVector
    decoder: str
    trials: int
    seed: int
    eps: float
    score: _CellScore
    regime: str
    codebook: Codebook | None
    partition: SemanticPartition | None

    def report(self, sem: int, msg: int) -> SimulationReport:
        config = {
            **self.cfg.describe(), "decoder": self.decoder,
            "fresh_codebook": self.codebook is None, "regime": self.regime,
            "trials": self.trials, "seed": self.seed, "px": list(self.px.probs),
            "channel": self.ch.to_dict(), "rng": "philox4x64", "batch_trials": BATCH_TRIALS,
        }
        if self.decoder == "typicality":
            config["eps"] = self.eps
        if self.partition is not None and not self.partition.is_equal_sized:
            config["notes"] = ["unequal-partition"]
        return SimulationReport.from_counts(self.trials, sem, msg, self.seed, config)


def _plan(
    cfg: CodeConfig, ch: Dmc, px: ProbVector, decoder: str,
    trials: int, seed: int, eps: float, *, fresh: bool,
    codebook: Codebook | None, partition: SemanticPartition | None,
    per_message: bool = False,
) -> RunPlan:
    """Check a run's inputs and build its decoder score (_decoder_score
    checks the name and eps), all before anything is drawn, then choose.

    The regime is virtual for a fresh per-class codebook whose count * n
    passes MATERIALIZE_LIMIT. The codebook is the given one, else drawn once
    from CODEBOOK_STREAM unless fresh. The partition is only ever the given
    one: a per-class run reads its class sizes alone, and without one the
    classes are the config's equal ones.
    """
    name = "simulate_full_codebook" if per_message else "simulate"
    if px.labels != ch.input_labels:
        raise ValidationError(f"{name}: px alphabet does not match channel inputs")
    score = _decoder_score(decoder, ch, px, eps, cfg.n)
    if trials < 1:
        raise ValidationError(f"{name}: trials must be >= 1, got {trials}")
    if codebook is not None and fresh:
        raise ValidationError("simulate: an explicit codebook implies fresh_codebook=False")
    if per_message:
        check_message_bits(cfg.message_bits, name)
    # A built partition is small: 2^message_bits is formed only once the bit
    # counts show it is no larger.
    if partition is not None and (
        _exceeds(1, cfg.message_bits, partition.message_count)
        or partition.message_count != cfg.message_count
        or (not per_message and partition.class_count != cfg.semantic_count)
    ):
        raise ValidationError(
            f"partition of {partition.message_count} messages into {partition.class_count} "
            f"classes does not match the config's 2^{cfg.message_bits} and 2^{cfg.semantic_bits}"
        )
    virtual = fresh and _exceeds(cfg.n, cfg.semantic_bits, MATERIALIZE_LIMIT)
    if virtual and decoder != "ml":
        raise ConfigError(
            "virtual-regime simulation supports the ml decoder only; "
            "typicality decoding needs a materialized codebook"
        )
    if virtual and px.probs.size != 2:
        raise ConfigError(
            "virtual simulation requires a binary channel input alphabet; "
            "materialize the codebook for larger alphabets"
        )
    if virtual and cfg.semantic_bits > MAX_SEMANTIC_BITS:
        raise BudgetError(
            f"virtual simulation needs semantic_bits <= {MAX_SEMANTIC_BITS}, got "
            f"{cfg.semantic_bits}: the tail probabilities that decide a win, "
            f"about 2^-{cfg.semantic_bits}, fall below the smallest normal "
            "float64; reduce the blocklength, rate or alpha"
        )
    if codebook is not None:
        # 2^bits is formed only once the bit count shows it is no larger.
        bits = cfg.message_bits if per_message else cfg.semantic_bits
        if (_exceeds(1, bits, codebook.count) or codebook.count != 1 << bits
                or codebook.n != cfg.n):
            raise ValidationError(
                f"codebook shape ({codebook.count}, {codebook.n}) does not match "
                f"the config's (2^{bits}, {cfg.n})"
            )
        if codebook.alphabet_size != ch.num_inputs:
            raise ValidationError("codebook alphabet does not match channel inputs")
    elif not fresh:
        draw = generate_full_codebook if per_message else generate_codebook
        codebook = draw(cfg, px, ChannelRng(seed, CODEBOOK_STREAM))
    regime = ("virtual-fresh" if virtual else "full-codebook" if per_message
              else f"materialized-{'fresh' if fresh else 'shared'}")
    return RunPlan(cfg, ch, px, decoder, trials, seed, eps, score,
                   regime, codebook, partition)


def _distinct_rows(rows: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse) over the distinct rows of integers in [0, top]:
    rows[first] holds each once, in byte order, and rows[first][inverse] is
    rows. Void rows of the narrowest dtype beat np.unique(axis=0) ~3.5x."""
    kind = np.min_scalar_type(top)
    words = np.ascontiguousarray(rows, dtype=kind).view(
        np.dtype((np.void, rows.shape[1] * kind.itemsize))).ravel()
    _, first, inverse = np.unique(words, return_index=True, return_inverse=True)
    return first, inverse.reshape(-1)


def _simulate_materialized(plan: RunPlan) -> SimulationReport:
    """The literal protocol with materialized codewords, for both indexings.

    The codebook holds one codeword per class, or one per message in the
    full-codebook regime; codebook None draws a fresh per-class codebook in
    every trial. Codeword k stands for class owner_class[k] (per class the
    identity, per message class_of) and is sent with its messages' mass:
    uniformly, unless a given partition's classes are unequal (per class),
    where a uniform message index is looked up in the cumulative sizes; no
    other part of a partition is read. The sent message is any of its
    codeword's size messages alike, independently of the output, so a
    correct codeword is a correct message with probability 1/size (1 per
    message). Batch b draws from stream b: the fresh codebooks, the
    codewords sent, the channel uniforms, then one uniform per trial for
    that 1/size event. Fresh codebooks come from _codeword_symbols: under a
    uniform px over 2^k inputs (k <= 8) each symbol is the top k bits of one
    raw Philox byte, eight symbols to a raw word; under any other px one
    uniform double per symbol, by inverse CDF.
    """
    cfg, ch, px, part, codebook = plan.cfg, plan.ch, plan.px, plan.partition, plan.codebook
    score, fresh = plan.score, codebook is None
    count = cfg.semantic_count if fresh else codebook.count
    ch_cdf = _row_cdfs(ch.matrix)
    owner_class, bounds = np.arange(count), None
    rep_prob = 2.0 ** (cfg.semantic_bits - cfg.message_bits)
    if plan.regime == "full-codebook":
        owner_class, rep_prob = part.class_of, 1.0
    elif part is not None and not part.is_equal_sized:
        bounds, rep_prob = np.cumsum(part.sizes), 1.0 / part.sizes

    def worker(b: int, nb: int) -> tuple[int, int]:
        gen = ChannelRng(plan.seed, b).generator()
        cw = _codeword_symbols(gen, (nb, count, cfg.n), px.probs) if fresh else codebook.codewords
        if bounds is None:
            sent = gen.integers(0, count, size=nb)
        else:
            sent = np.searchsorted(bounds, gen.integers(0, bounds[-1], size=nb), side="right")
        u = gen.random((nb, cfg.n))
        y = _draw_outputs(ch_cdf, cw[np.arange(nb), sent] if fresh else cw[sent], u)
        if fresh:
            picks = _decisions(cw, y, score)
        else:
            # A fixed codebook's decision is a function of the output word
            # alone, so a batch decides each distinct word once.
            first, inverse = _distinct_rows(y, ch.num_outputs - 1)
            picks = _decisions(cw, y[first], score)[inverse]
        rep_hit = gen.random(nb) < (rep_prob if bounds is None else rep_prob[sent])
        # An erasure (-1) indexes the last owner below; `picks < 0` overrules it.
        sem_err = (picks < 0) | (owner_class[picks] != owner_class[sent])
        msg_err = (picks != sent) | ~rep_hit
        return int(sem_err.sum()), int(msg_err.sum())

    sem, msg = map(sum, zip(*_run_batches(plan.trials, worker)))
    return plan.report(sem, msg)


def simulate(
    cfg: CodeConfig,
    scheme: object,
    ch: Dmc,
    px: ProbVector,
    decoder: str,
    trials: int,
    seed: int,
    *,
    fresh_codebook: bool = True,
    codebook: Codebook | None = None,
    partition: SemanticPartition | None = None,
    eps: float = 0.1,
) -> SimulationReport:
    """Monte Carlo semantic-error estimation with a per-class codebook.

    Per trial: draw (or reuse) a codebook of one codeword per semantic
    class, draw the message uniformly, transmit the class codeword, decode,
    and count a semantic error unless the decoder returns exactly the
    transmitted class. Message errors additionally require the transmitted
    message to be its class representative (see SimulationReport).

    scheme is accepted and ignored: a per-class code reads only its class
    sizes, so no layout of the messages changes a result.

    _plan checks the arguments and makes the run's choices before anything
    is drawn. Fresh codebooks past MATERIALIZE_LIMIT run in the virtual
    engine (exact conditional ML outcomes over the un-drawn competitors),
    the rest in the materialized engine simulate_full_codebook shares.
    Reports are bit-identical across runs and worker counts for a fixed seed.
    """
    plan = _plan(cfg, ch, px, decoder, trials, seed, eps, fresh=fresh_codebook,
                 codebook=codebook, partition=partition)
    engine = _simulate_virtual if plan.regime == "virtual-fresh" else _simulate_materialized
    return engine(plan)


def _simulate_virtual(plan: RunPlan) -> SimulationReport:
    """Fresh-codebook ML simulation without materializing the codebook.

    Conditioned on the transmitted codeword's score s against the received
    y, a trial is decoded correctly exactly when all count-1 competitor
    codewords score strictly below s (a tie erases, which is an error).
    Those scores are i.i.d. with an exactly computable distribution, so the
    outcome is Bernoulli((1 - T(s))^{count-1}) with T(s) = P(score >= s);
    drawing that Bernoulli per trial reproduces the literal protocol's law
    without 2^hundreds of codewords.

    Two phases. Draw: the outcome depends on the codeword x and the output y
    only through their joint type, the (a, b) cell counts. The own score is
    ML's of their class counts and the competitor law reads only their
    column sums, the y type. With i.i.d. codewords that type is exactly
    Multinomial(n, px(a) W(b|a)) (the method of types), so batch b draws it,
    then rep_hit, then u_win, from stream b in that order: O(|X| |Y|) work
    per trial whatever n is, and only the own score, the y-type counts,
    rep_hit and u_win outlive a batch. Decide: each y type is folded onto
    its competitor law (_output_fold), and T is built once per distinct
    law over all trials, not once per y type, from only the grid points
    that can score at least the lowest own score among its trials (see
    _competitor_tail), and every one of those trials is answered from it.
    With uniform input BSC has one law per blocklength and BEC folds
    (c0, ce, c1) to (c0 + c1, ce, 0); a channel without interchangeable
    outputs folds to itself. The fold is exact in law (the tails differ
    from unfolded ones by rounding only), and DIST_BUDGET bounds the folded
    support. Batches are joined in batch order, so the report is the same
    for any worker count.
    """
    cfg, ch, px, score = plan.cfg, plan.ch, plan.px, plan.score
    # P(a, b) = px(a) W(b|a) in the canonical row-major (a, b) cell order.
    # Masses may exceed 1 by up to MASS_TOL, so the cell probabilities are
    # renormalized and the competitors' input-0 probability is clamped.
    cell_probs = (px.probs[:, None] * ch.matrix).ravel()
    cell_probs /= cell_probs.sum()
    p0 = min(float(px.probs[0]), 1.0)
    rep_prob = 2.0 ** (cfg.semantic_bits - cfg.message_bits)

    def draw(b: int, nb: int) -> tuple[np.ndarray, ...]:
        gen = ChannelRng(plan.seed, b).generator()
        cells = gen.multinomial(cfg.n, cell_probs, size=nb)
        rep_hit = gen.random(nb) < rep_prob
        u_win = gen.random(nb)
        own = score.of(score.class_counts(lambda cell: cells[:, cell], cfg.n), np.empty(nb))
        counts = cells.reshape(nb, *score.shape).sum(axis=1)
        return own, counts, rep_hit, u_win

    own, counts, rep_hit, u_win = (
        np.concatenate(parts) for parts in zip(*_run_batches(plan.trials, draw))
    )
    # Each trial's tail depends on its own folded type alone, not on the
    # order of the types.
    types = counts @ _output_fold(score, p0)
    first, inverse = _distinct_rows(types, cfg.n)
    at_or_above = np.empty(plan.trials)
    for g, row in enumerate(first):
        sel = inverse == g
        at_or_above[sel] = _competitor_tail(p0, score, types[row], own[sel])
    # P(all competitors strictly below) = (1 - T)^(count - 1); with T down at
    # 2^-hundreds and the exponent up at 2^+hundreds only the log1p form keeps
    # the product meaningful. T = 1 (every competitor ties or beats the own
    # codeword, e.g. an all-erased y) gives log1p(-1) = -inf and a win
    # probability of exactly 0.
    with np.errstate(divide="ignore"):
        win_prob = np.exp(float(cfg.semantic_count - 1) * np.log1p(-at_or_above))
    sem_err = ~(u_win < win_prob)
    msg_err = sem_err | ~rep_hit
    return plan.report(int(sem_err.sum()), int(msg_err.sum()))


def simulate_full_codebook(
    cfg: CodeConfig,
    partition: SemanticPartition,
    ch: Dmc,
    px: ProbVector,
    trials: int,
    seed: int,
    *,
    codebook: Codebook | None = None,
    decoder: str = "ml",
    eps: float = 0.1,
) -> SimulationReport:
    """Monte Carlo with one codeword per message (the converse setting).

    The decoder estimates the message index; a semantic error is an
    estimate outside the transmitted message's class (erasures count), a
    message error any estimate different from the message itself. It runs
    in the materialized engine simulate shares.
    """
    return _simulate_materialized(_plan(
        cfg, ch, px, decoder, trials, seed, eps, fresh=False,
        codebook=codebook, partition=partition, per_message=True,
    ))


@dataclass(frozen=True)
class ExactEvaluation:
    """Exact error rates and information quantities of a fixed code.

    Computed by enumerating the whole output space. `regime` records
    whether the codebook indexed classes ("per-class") or messages
    ("full"). Entropies are in bits; h_w_given_y_err is H(W | Y^n, error),
    None when the error probability is 0.
    """

    regime: str
    p_sem: float
    p_msg: float
    h_w: float
    h_w_given_y: float
    i_w_y: float
    i_x_y: float
    h_w_given_y_err: float | None
    h_w_given_y_ok: float | None

    def to_dict(self) -> dict:
        return asdict(self)


def exact_evaluate(
    cb: Codebook,
    partition: SemanticPartition,
    ch: Dmc,
    decoder: str = "ml",
    px: ProbVector | None = None,
    eps: float = 0.1,
) -> ExactEvaluation:
    """Exact P_e,s, P_e,msg and H(W|Y^n) for a fixed codebook and channel.

    Enumerates all |output|^n received words under a uniform message prior.
    The codebook may index semantic classes or whole messages; within-class
    message uncertainty is handled in closed form (messages of a class are
    uniform and conditionally independent of Y given the class), so the
    enumeration only ever scales with the codeword count.
    """
    if cb.alphabet_size != ch.num_inputs:
        raise ValidationError("exact_evaluate: codebook alphabet mismatch")
    mcount = partition.message_count
    kcount = partition.class_count
    n = cb.n
    if _exceeds(cb.count, n, ENUM_BUDGET, ch.num_outputs):
        raise BudgetError(
            f"exact_evaluate: |Y|^n * codewords = {ch.num_outputs}^{n} * {cb.count} "
            f"exceeds budget {ENUM_BUDGET}"
        )
    if cb.count == kcount:
        regime = "per-class"
        owner_prior = partition.sizes.astype(float) / mcount
        owner_class = np.arange(kcount, dtype=np.int64)
        within_bits_each = np.log2(partition.sizes.astype(float))
    elif cb.count == mcount:
        regime = "full"
        owner_prior = np.full(mcount, 1.0 / mcount)
        owner_class = partition.class_of
        within_bits_each = np.zeros(mcount)
    else:
        raise ValidationError(
            f"exact_evaluate: codebook count {cb.count} matches neither the "
            f"class count {kcount} nor the message count {mcount}"
        )

    score = _decoder_score(decoder, ch, px, eps, n)
    # Every output word, row i holding the base-|Y| digits of i, in the
    # narrowest dtype: 2 codewords at n = 22 fit the budget, 704 MiB as int64.
    digit = np.min_scalar_type(ch.num_outputs - 1)
    yall = np.indices((ch.num_outputs,) * n, digit).reshape(n, -1).T
    cw = cb.codewords
    decisions = _decisions(cw, yall, score)

    # p(y | owner) as an exact per-position product.
    pyo = np.ones((cb.count, yall.shape[0]))
    for i in range(n):
        pyo *= ch.matrix[cw[:, i]][:, yall[:, i]]

    joint_oy = owner_prior[:, None] * pyo
    py = joint_oy.sum(axis=0)
    h_oy = entropy_bits(joint_oy)
    h_y = entropy_bits(py)
    h_o = entropy_bits(owner_prior)
    within_bits = float(np.dot(owner_prior, within_bits_each))

    h_w = math.log2(mcount)
    h_w_given_y = h_oy - h_y + within_bits
    i_w_y = h_o + h_y - h_oy

    # Semantic error is a function of (owner, y): the decoded class differs
    # from the owner's class (erasure always errs).
    dec_class = np.where(decisions >= 0, owner_class[np.maximum(decisions, 0)], -1)
    err = dec_class[None, :] != owner_class[:, None]
    # Mass sums can land a few ulp outside [0, 1].
    p_sem = min(max(float((joint_oy * err).sum()), 0.0), 1.0)

    # Message success: the decoded owner must be the transmitted message, of
    # prior 1/|messages|. For per-class codebooks that means the class is
    # right and the message is its representative.
    good = decisions >= 0
    p_msg_correct = float((pyo[decisions[good], np.nonzero(good)[0]] / mcount).sum())
    p_msg = min(max(1.0 - p_msg_correct, 0.0), 1.0)

    def _conditional(mask: np.ndarray) -> float | None:
        mass = float((joint_oy * mask).sum())
        if mass <= 0.0:
            return None
        t = joint_oy * mask / mass
        h_cond = entropy_bits(t) - entropy_bits(t.sum(axis=0))
        owner_cond = t.sum(axis=1)
        return h_cond + float(np.dot(owner_cond, within_bits_each))

    h_err = _conditional(err)
    h_ok = _conditional(~err)

    # I(X^n; Y^n): owners sharing a codeword share an x, so group them in
    # sorted codeword order; the stable sort keeps each group's owners in order.
    order = np.lexsort(cw.T[::-1])
    first = np.append(True, np.any(cw[order[1:]] != cw[order[:-1]], axis=1))
    pxg = np.bincount(np.cumsum(first) - 1, weights=owner_prior[order])
    pyx = pyo[order[first]]
    joint_xy = pxg[:, None] * pyx
    i_x_y = entropy_bits(pxg) + h_y - entropy_bits(joint_xy)

    return ExactEvaluation(
        regime=regime,
        p_sem=p_sem,
        p_msg=p_msg,
        h_w=h_w,
        h_w_given_y=h_w_given_y,
        i_w_y=i_w_y,
        i_x_y=i_x_y,
        h_w_given_y_err=h_err,
        h_w_given_y_ok=h_ok,
    )


@dataclass(eq=False)
class FanoInstance:
    """A fixed (codebook, partition, channel) system with uniform messages.

    Carries the exact joint law of (W, Y^n) implicitly; evaluation() runs
    the exact evaluator (ML decoding) once and caches it. beta is the
    largest class mass fraction; unequal-sized partitions still give a
    valid (weaker) bound via the largest class.
    """

    partition: SemanticPartition
    codebook: Codebook
    channel: Dmc
    label: str = ""
    _cached: ExactEvaluation | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.codebook.count not in (
            self.partition.class_count,
            self.partition.message_count,
        ):
            raise ValidationError(
                "FanoInstance: codebook count matches neither classes nor messages"
            )

    @property
    def n(self) -> int:
        return self.codebook.n

    @property
    def message_count(self) -> int:
        return self.partition.message_count

    @property
    def total_bits(self) -> float:
        """nR = log2(message count), the total message bits."""
        return math.log2(self.partition.message_count)

    @property
    def alpha(self) -> float:
        return math.log2(self.partition.class_count) / self.total_bits

    @property
    def beta(self) -> float:
        return self.partition.beta

    @property
    def gamma(self) -> float:
        return math.log2(1.0 - self.beta) / self.total_bits + 1.0

    def evaluation(self) -> ExactEvaluation:
        if self._cached is None:
            self._cached = exact_evaluate(self.codebook, self.partition, self.channel)
        return self._cached


def fano_bound(inst: FanoInstance, p_sem: float | None = None) -> float:
    """The semantic Fano right-hand side for this instance, in bits.

    1 + (1 - alpha + (gamma + alpha - 1) P_e,s) nR, with
    gamma = log2(1 - beta) / (nR) + 1. p_sem defaults to the instance's
    exact semantic error probability.
    """
    if inst.beta >= 1.0:
        raise ValidationError(
            f"fano_bound: beta = {inst.beta} puts log2(1 - beta) out of domain"
        )
    if p_sem is None:
        p_sem = inst.evaluation().p_sem
    if not (-1e-9 <= p_sem <= 1.0 + 1e-9):
        raise ValidationError(f"fano_bound: p_sem must be in [0, 1], got {p_sem}")
    p_sem = min(max(p_sem, 0.0), 1.0)
    nr = inst.total_bits
    return 1.0 + (1.0 - inst.alpha + (inst.gamma + inst.alpha - 1.0) * p_sem) * nr


@dataclass(frozen=True)
class FanoCheck:
    """Outcome of checking H(W|Y^n) against the semantic Fano bound.

    intermediate_holds tracks the proof's inner step
    H(W|Y^n, error) <= log2((1 - beta) |message set|); instances can violate
    it while the final bound still holds, and that discrepancy is worth
    recording separately. None when the error probability is zero.
    """

    holds: bool
    lhs: float
    rhs: float
    slack: float
    p_sem: float
    intermediate_holds: bool | None


def check_fano(inst: FanoInstance) -> FanoCheck:
    """Exact H(W|Y^n) versus fano_bound at the instance's exact P_e,s."""
    ev = inst.evaluation()
    lhs = ev.h_w_given_y
    rhs = fano_bound(inst, p_sem=ev.p_sem)
    intermediate: bool | None = None
    if ev.h_w_given_y_err is not None:
        cap = math.log2((1.0 - inst.beta) * inst.message_count)
        intermediate = ev.h_w_given_y_err <= cap + FANO_TOL
    return FanoCheck(
        holds=lhs <= rhs + FANO_TOL,
        lhs=lhs,
        rhs=rhs,
        slack=rhs - lhs,
        p_sem=ev.p_sem,
        intermediate_holds=intermediate,
    )


@dataclass(frozen=True)
class ConverseChain:
    """Per-step values of the converse chain on an exact instance.

    nR = H(W) splits as H(W|Y^n) + I(W;Y^n); data processing bounds
    I(W;Y^n) by I(X^n;Y^n), which memorylessness bounds by n C.

    capacity (and n_capacity = n * capacity) is the certified lower end of
    the Blahut-Arimoto bracket that decided capacity_ok, not necessarily a
    fully converged value. On channels where uniform input is optimal (bsc,
    identity, analytic mpsk) the first iterate is exact, so it is the
    capacity itself.
    """

    h_w: float
    h_w_given_y: float
    i_w_y: float
    i_x_y: float
    capacity: float
    n_capacity: float
    identity_gap: float
    data_processing_ok: bool
    capacity_ok: bool

    @property
    def holds(self) -> bool:
        return (
            abs(self.identity_gap) <= 1e-9
            and self.data_processing_ok
            and self.capacity_ok
        )


def converse_chain(inst: FanoInstance) -> ConverseChain:
    """Verify the converse inequalities numerically on the exact joint law.

    capacity_ok asks whether I(X^n;Y^n) <= n C + 1e-6. Blahut-Arimoto runs
    only until its certified bracket on C decides that (or until the usual
    1e-9 gap), and capacity reports the bracket's lower end.
    """
    ev = inst.evaluation()
    threshold = (ev.i_x_y - 1e-6) / inst.n
    cap = blahut_arimoto(inst.channel, tol=1e-9, threshold=threshold).capacity
    return ConverseChain(
        h_w=ev.h_w,
        h_w_given_y=ev.h_w_given_y,
        i_w_y=ev.i_w_y,
        i_x_y=ev.i_x_y,
        capacity=cap,
        n_capacity=inst.n * cap,
        identity_gap=ev.h_w - (ev.h_w_given_y + ev.i_w_y),
        data_processing_ok=ev.i_w_y <= ev.i_x_y + 1e-9,
        capacity_ok=cap >= threshold,
    )


def random_fano_instance(seed: int, index: int) -> FanoInstance:
    """Deterministic small random instance number `index` for a campaign.

    Blocklengths 2..4, binary/ternary alphabets, 4..16 messages, classes a
    power-of-two divisor of the message count (so beta <= 1/2 and the bound
    is defined), random row-stochastic channels, ML decoding, and a mix of
    per-class and full codebooks. The classes are contiguous, interleaved
    (message w in class w % classes) or contiguous with the messages
    shuffled by a Philox permutation (stream PARTITION_STREAM), a third each.
    """
    gen = ChannelRng(seed, FANO_STREAM + index).generator()
    n = int(gen.integers(2, 5))
    a_count = int(gen.integers(2, 4))
    b_count = int(gen.integers(2, 4))
    matrix = gen.dirichlet(np.ones(b_count), size=a_count)
    ch = Dmc(
        tuple(str(i) for i in range(a_count)),
        tuple(str(j) for j in range(b_count)),
        matrix,
    )
    message_bits = int(gen.integers(2, 5))
    semantic_bits = int(gen.integers(1, message_bits + 1))
    mcount = 1 << message_bits
    kcount = 1 << semantic_bits
    layout = int(gen.integers(0, 3))
    part_seed = int(gen.integers(0, 2**63))  # drawn for every layout: later draws keep their place
    w = np.arange(mcount)
    class_of = w % kcount if layout == 1 else w // (mcount // kcount)
    if layout == 2:
        order = ChannelRng(part_seed, PARTITION_STREAM).generator().permutation(mcount)
        class_of[order] = class_of.copy()
    if gen.random() < 0.5:
        px = ProbVector.uniform(ch.input_labels)
    else:
        px = ProbVector(ch.input_labels, gen.dirichlet(np.ones(a_count)))
    full = bool(gen.random() < 0.5)
    cw_count = mcount if full else kcount
    symbols = _sample_symbols(gen, (cw_count, n), px.probs)
    return FanoInstance(
        partition=SemanticPartition(class_of),
        codebook=Codebook(symbols, a_count),
        channel=ch,
        label=f"campaign-{index}",
    )


@dataclass(frozen=True)
class CampaignReport:
    """Aggregate result of a seeded Fano/converse verification campaign."""

    instances: int
    seed: int
    fano_holds: int
    converse_holds: int
    worst_slack: float
    worst_index: int
    intermediate_violations: int
    failures: tuple[int, ...]

    def to_dict(self) -> dict:
        return {**asdict(self), "failures": list(self.failures)}


def run_fano_campaign(
    instances: int, seed: int, include_converse: bool = True
) -> CampaignReport:
    """check_fano (and optionally converse_chain) over seeded random instances."""
    if instances < 1:
        raise ValidationError("run_fano_campaign: instances must be >= 1")
    fano_ok = 0
    conv_ok = 0
    worst = math.inf
    worst_idx = -1
    inter_viol = 0
    failures: list[int] = []
    for i in range(instances):
        inst = random_fano_instance(seed, i)
        chk = check_fano(inst)
        if chk.holds:
            fano_ok += 1
        else:
            failures.append(i)
        if chk.intermediate_holds is False:
            inter_viol += 1
        if chk.slack < worst:
            worst = chk.slack
            worst_idx = i
        if include_converse:
            if converse_chain(inst).holds:
                conv_ok += 1
            elif i not in failures:
                failures.append(i)
    return CampaignReport(
        instances=instances,
        seed=seed,
        fano_holds=fano_ok,
        converse_holds=conv_ok if include_converse else 0,
        worst_slack=worst,
        worst_index=worst_idx,
        intermediate_violations=inter_viol,
        failures=tuple(failures),
    )
