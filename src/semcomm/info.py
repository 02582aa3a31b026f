"""Probability containers and entropy primitives. All information is in bits.

Conventions: 0 * log2(0) = 0 throughout, probability masses must sum to one
within MASS_TOL, and alphabets are tuples of string labels with positions
doubling as integer symbol indices. Every container of the package turns
outside values into arrays through the checks here (_as_floats,
_check_labels, _check_kernel, load_json_doc), so a malformed value raises
a SemcommError, never a bare TypeError or ValueError. Containers that hold
arrays compare and hash by identity. Joint typicality is a score of a
pair's joint type (_typical_score), which the decoders share.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence as _Seq, Union

import numpy as np

from .errors import ConfigError, ValidationError

MASS_TOL = 1e-12
NEG = -1.0e30  # stand-in for log2(0); sums of these stay far below any real score
NEG_THRESHOLD = -1.0e29  # a score at or below this holds a NEG: an impossible event


def load_json_doc(source: Union[str, Path, Mapping], what: str, keys: tuple = ()) -> Mapping:
    """A JSON object given as a mapping, a file path or literal JSON text,
    holding at least the given keys."""
    if isinstance(source, Mapping):
        doc = source
    else:
        if isinstance(source, str) and source.lstrip().startswith("{"):
            text = source
        elif isinstance(source, (str, Path)):
            path = Path(source)
            try:
                text = path.read_text()
            except FileNotFoundError:
                raise ConfigError(f"{what} file not found: {path}") from None
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"{what} file {path}: {exc}") from None
        else:
            raise ConfigError(f"{what} document must be a JSON object, got {reprlib.repr(source)}")
        try:
            doc = json.loads(text)
        except ValueError as exc:  # JSONDecodeError, or an integer past the int-to-str limit
            raise ConfigError(f"{what} document is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"{what} document must be a JSON object")
    missing = set(keys) - set(doc)
    if missing:
        raise ConfigError(f"{what} document missing keys {sorted(missing)}")
    return doc


def _as_floats(values, what: str) -> np.ndarray:
    """A fresh float64 array of values, or ValidationError when they are not
    numbers or their nesting is ragged."""
    try:
        return np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(
            f"{what}: need a regular array of numbers, got {reprlib.repr(values)}"
        ) from None


def _check_labels(labels: Iterable, what: str) -> tuple[str, ...]:
    try:
        out = tuple(str(l) for l in labels)
    except TypeError:
        raise ValidationError(
            f"{what}: labels must be a sequence, got {reprlib.repr(labels)}"
        ) from None
    if not out:
        raise ValidationError(f"{what}: alphabet is empty")
    if len(set(out)) != len(out):
        dupes = sorted({l for l in out if out.count(l) > 1})
        raise ValidationError(f"{what}: duplicate labels {dupes}")
    return out


def _check_kernel(
    kernel, rows: tuple[str, ...], cols: tuple[str, ...], what: str
) -> np.ndarray:
    """A read-only float copy of a row-stochastic kernel: one row per label in
    rows, one column per label in cols, entries finite and >= 0, each row
    summing to 1 within MASS_TOL. A ValidationError names the first bad row."""
    k = _as_floats(kernel, what)
    if k.shape != (len(rows), len(cols)):
        raise ValidationError(
            f"{what}: kernel shape {k.shape}, want {(len(rows), len(cols))}"
        )
    # NaN fails both comparisons and an infinite entry makes its row sum
    # miss 1, so a kernel passing this line is finite.
    if not (k.min() >= 0.0 and np.abs(k.sum(axis=1) - 1.0).max() <= MASS_TOL):
        for i, row in enumerate(k):
            _check_mass(row, f"{what}: row {i} ({rows[i]!r})")
    k.setflags(write=False)
    return k


def _check_mass(arr: np.ndarray, what: str) -> np.ndarray:
    if arr.size == 0:
        raise ValidationError(f"{what}: empty mass array")
    # The common valid case in two reductions; NaN fails the comparison.
    if arr.min() >= 0.0 and abs(float(arr.sum()) - 1.0) <= MASS_TOL:
        return arr
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{what}: non-finite mass entries")
    if np.any(arr < 0):
        idx = np.unravel_index(int(np.argmin(arr)), arr.shape)
        raise ValidationError(f"{what}: negative mass {arr[idx]!r} at {idx}")
    total = float(arr.sum())
    raise ValidationError(
        f"{what}: mass sums to {total!r}, off by more than {MASS_TOL}"
    )


def _log_matrix(matrix: np.ndarray) -> np.ndarray:
    """Elementwise log2, with NEG standing in for log2(0)."""
    out = np.full(matrix.shape, NEG)
    pos = matrix > 0.0
    out[pos] = np.log2(matrix[pos])
    return out


def entropy_bits(mass: np.ndarray) -> float:
    """Shannon entropy in bits of any non-negative mass array (flattened)."""
    p = np.asarray(mass, dtype=float).ravel()
    nz = p[p > 0.0]
    return float(-np.dot(nz, np.log2(nz)))


@cache
def _gauss_legendre_20() -> tuple[np.ndarray, np.ndarray]:
    """The 20-point rule's nodes and weights, built on first use: importing
    numpy.polynomial is left to the commands that integrate. Read-only, since
    every caller shares them."""
    nodes, weights = np.polynomial.legendre.leggauss(20)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _integrate(f, a: float, b: float, tol: float, limit: int) -> tuple[float, float]:
    """(integral of f over [a, b], error bound) by bisecting Gauss-Legendre panels.

    f maps an array of nodes to an array of values. G is the 20-point
    Gauss-Legendre rule (Golub & Welsch 1969); a panel's value is G over its
    two halves and its bound is |G(panel) - G(left half) - G(right half)|.
    The panel with the largest bound is bisected until the bounds sum to at
    most tol or there are limit panels. Never raises: the caller decides
    what a bound above tol means.
    """
    nodes, weights = _gauss_legendre_20()

    def rule(lo: list[float], hi: list[float]) -> np.ndarray:  # G per panel, one call of f
        lo, hi = np.array(lo), np.array(hi)
        half = 0.5 * (hi - lo)
        s = (0.5 * (hi + lo))[:, None] + half[:, None] * nodes
        return half * (f(s.ravel()).reshape(s.shape) @ weights)

    mid = 0.5 * (a + b)
    g, gl, gr = rule([a, a, mid], [b, mid, b])
    # (lo, hi, G(left half), G(right half), bound), left to right.
    panels = [(a, b, gl, gr, abs(g - gl - gr))]
    while len(panels) < limit and math.fsum(p[4] for p in panels) > tol:
        i = max(range(len(panels)), key=lambda k: panels[k][4])
        lo, hi, gl, gr, _ = panels[i]
        mid = 0.5 * (lo + hi)
        q1, q3 = 0.5 * (lo + mid), 0.5 * (mid + hi)
        ll, lr, rl, rr = rule([lo, q1, mid, q3], [q1, mid, q3, hi])
        panels[i:i + 1] = [(lo, mid, ll, lr, abs(gl - ll - lr)),
                           (mid, hi, rl, rr, abs(gr - rl - rr))]
    return math.fsum(p[2] + p[3] for p in panels), math.fsum(p[4] for p in panels)


@dataclass(frozen=True, eq=False)
class ProbVector:
    """A probability distribution over a finite labeled alphabet."""

    labels: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self):
        labels = _check_labels(self.labels, "ProbVector")
        probs = _as_floats(self.probs, "ProbVector")
        if probs.ndim != 1 or probs.size != len(labels):
            raise ValidationError(
                f"ProbVector: {len(labels)} labels but mass shape {probs.shape}"
            )
        _check_mass(probs, "ProbVector")
        probs.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "probs", probs)

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValidationError(
                f"ProbVector: unknown label {label!r}, have {self.labels}"
            ) from None

    def prob(self, label: str) -> float:
        return float(self.probs[self.index(label)])

    @classmethod
    def uniform(cls, labels: Iterable) -> "ProbVector":
        labels = _check_labels(labels, "ProbVector.uniform")
        return cls(labels, np.full(len(labels), 1.0 / len(labels)))

    @classmethod
    def from_weights(cls, labels: Iterable, weights) -> "ProbVector":
        """Normalize non-negative weights into a distribution."""
        w = _as_floats(weights, "from_weights")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValidationError("from_weights: weights must be finite and >= 0")
        total = w.sum()
        if total <= 0:
            raise ValidationError("from_weights: weights sum to zero")
        return cls(tuple(labels), w / total)


@dataclass(frozen=True, eq=False)
class JointDist:
    """A joint distribution over two or three labeled axes.

    `table[i, j]` (or `table[i, j, k]`) is the joint mass of the i-th label
    on axis 0, j-th on axis 1, and so on.
    """

    axes: tuple[tuple[str, ...], ...]
    table: np.ndarray

    def __post_init__(self):
        axes = tuple(_check_labels(a, f"JointDist axis {i}")
                     for i, a in enumerate(self.axes))
        if len(axes) not in (2, 3):
            raise ValidationError(
                f"JointDist: need 2 or 3 axes, got {len(axes)}"
            )
        table = _as_floats(self.table, "JointDist")
        want = tuple(len(a) for a in axes)
        if table.shape != want:
            raise ValidationError(
                f"JointDist: table shape {table.shape} does not match axes {want}"
            )
        _check_mass(table, "JointDist")
        table.setflags(write=False)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "table", table)

    @property
    def ndim(self) -> int:
        return len(self.axes)

    def marginal_table(self, keep: tuple[int, ...]) -> np.ndarray:
        """Sum out every axis not listed in `keep` (kept axes stay in order)."""
        keep = tuple(keep)
        if len(set(keep)) != len(keep) or any(
            a < 0 or a >= self.ndim for a in keep
        ):
            raise ValidationError(f"marginal_table: bad axis list {keep}")
        drop = tuple(a for a in range(self.ndim) if a not in keep)
        out = self.table.sum(axis=drop) if drop else self.table
        if keep != tuple(sorted(keep)):
            sorted_keep = tuple(sorted(keep))
            out = np.transpose(out, tuple(sorted_keep.index(a) for a in keep))
        return out

    @classmethod
    def from_input_and_kernel(
        cls,
        px: ProbVector,
        kernel: np.ndarray,
        out_labels: Iterable,
    ) -> "JointDist":
        """Build p(x, y) = p(x) * kernel[x, y] from a row-stochastic kernel."""
        out_labels = _check_labels(out_labels, "from_input_and_kernel")
        k = _check_kernel(kernel, px.labels, out_labels, "from_input_and_kernel")
        return cls((px.labels, out_labels), px.probs[:, None] * k)


@dataclass(frozen=True, eq=False)
class Sequence:
    """A length-n word of symbol indices over an alphabet of known size."""

    symbols: np.ndarray
    alphabet_size: int

    def __post_init__(self):
        sym = np.asarray(self.symbols)
        if sym.ndim != 1 or sym.size == 0:
            raise ValidationError("Sequence: need a non-empty 1-D index array")
        if not np.issubdtype(sym.dtype, np.integer) and not np.all(sym == np.floor(sym)):
            raise ValidationError("Sequence: symbols must be integers")
        sym = sym.astype(np.int64)
        if self.alphabet_size < 1:
            raise ValidationError("Sequence: alphabet_size must be >= 1")
        if sym.min() < 0 or sym.max() >= self.alphabet_size:
            raise ValidationError(
                f"Sequence: symbol out of range for alphabet size {self.alphabet_size}"
            )
        sym.setflags(write=False)
        object.__setattr__(self, "symbols", sym)

    def __len__(self) -> int:
        return int(self.symbols.size)


def entropy(p: ProbVector) -> float:
    """H(X) in bits."""
    return entropy_bits(p.probs)


def joint_entropy(joint: JointDist) -> float:
    """H over all axes of the joint table, in bits."""
    return entropy_bits(joint.table)


def conditional_entropy(joint: JointDist, target: int, given: int | _Seq[int]) -> float:
    """H(target | given) in bits, computed as H(target, given) - H(given)."""
    giv = (given,) if isinstance(given, (int, np.integer)) else tuple(given)
    axes = (target, *giv)
    if len(set(axes)) != len(axes):
        raise ValidationError(f"conditional_entropy: axes {axes} overlap")
    both = joint.marginal_table(tuple(sorted(axes)))
    cond = joint.marginal_table(tuple(sorted(giv)))
    return entropy_bits(both) - entropy_bits(cond)


def mutual_information(joint: JointDist, a: int = 0, b: int = 1) -> float:
    """I(A; B) in bits between two axes of a joint distribution.

    Clamps the tiny negative values that cancellation can produce; a result
    below -1e-9 is treated as a real inconsistency and raises.
    """
    if a == b:
        raise ValidationError("mutual_information: axes must differ")
    ha = entropy_bits(joint.marginal_table((a,)))
    hb = entropy_bits(joint.marginal_table((b,)))
    hab = entropy_bits(joint.marginal_table(tuple(sorted((a, b)))))
    mi = ha + hb - hab
    if mi < -1e-9:
        raise ValidationError(f"mutual_information: got {mi}, table is inconsistent")
    return max(mi, 0.0)


def conditional_mutual_information(joint: JointDist, a: int, b: int, c: int) -> float:
    """I(A; B | C) = H(A|C) + H(B|C) - H(A,B|C), in bits."""
    if len({a, b, c}) != 3:
        raise ValidationError("conditional_mutual_information: axes must be distinct")
    hc = entropy_bits(joint.marginal_table((c,)))
    hac = entropy_bits(joint.marginal_table(tuple(sorted((a, c)))))
    hbc = entropy_bits(joint.marginal_table(tuple(sorted((b, c)))))
    habc = entropy_bits(joint.marginal_table(tuple(sorted((a, b, c)))))
    mi = (hac - hc) + (hbc - hc) - (habc - hc)
    if mi < -1e-9:
        raise ValidationError(
            f"conditional_mutual_information: got {mi}, table is inconsistent"
        )
    return max(mi, 0.0)


def empirical_rate_bits(probs: np.ndarray) -> float:
    """-(1/n) * sum(log2 probs); +inf if any entry is zero."""
    p = np.asarray(probs, dtype=float)
    if np.any(p <= 0.0):
        return float("inf")
    return float(-np.mean(np.log2(p)))


def _combine(counts, weights, out: np.ndarray) -> np.ndarray:
    """The canonical score, sum over classes k of counts[k] * weights[k]
    accumulated in class order, into out (each count broadcasts to it). A
    generator may reuse one buffer for every count: each is consumed before
    the next is drawn. Every score in the package comes from here. A class
    holds the cells of one weight (_weight_classes), so equal class counts
    give bit-equal floats. Unequal but commensurate weights stay outside
    this rule: log2 weights -1, -2 and -3 give counts (1, 0, 1) and
    (0, 2, 0) one real sum, and the floats tie there only because such
    dyadic weights sum exactly.
    """
    out.fill(0.0)
    for cnt, weight in zip(counts, weights, strict=True):
        out += cnt * weight
    return out


def _weight_classes(weights: np.ndarray) -> tuple[np.ndarray, list[list[int]], np.ndarray]:
    """(cell_class, members, class weights) of per-cell weights, entries or
    rows in row-major cell order. Cells of equal weights (never NaN or
    -0.0, so bit-equal) form a class, and classes are numbered by first
    appearance; members[k] lists class k's cells."""
    ids: dict = {}
    keys = weights.tolist() if weights.ndim == 1 else map(tuple, weights.tolist())
    cell_class = [ids.setdefault(key, len(ids)) for key in keys]
    members: list[list[int]] = [[] for _ in ids]
    for cell, k in enumerate(cell_class):
        members[k].append(cell)
    return np.array(cell_class), members, np.array(list(ids))


class _CellScore(NamedTuple):
    """A decoder's score of a pair's joint type by its weight-class counts
    (_weight_classes): cell_class[a |Y| + b] is the class of cell (a, b),
    members[k] lists class k's cells as Python ints (a NumPy int64 would
    widen a uint8 comparison), weights[k] is its weight, and of(counts, out)
    writes into out the scores of one exact count array per class, in class
    order, each broadcasting to out."""

    shape: tuple
    cell_class: np.ndarray
    members: list
    weights: np.ndarray
    of: Callable

    @property
    def largest(self) -> int:
        """The last class with the most cells, whose count a kernel takes as
        n less the others' instead of counting it."""
        return max(range(len(self.members)), key=lambda k: (len(self.members[k]), k))

    def class_counts(self, cell_count: Callable, n: int) -> list:
        """Each class's count at blocklength n: the sum of cell_count(cell),
        a fresh exact count, over its cells (one cell's passes through), but
        for the largest class, which is not counted, n less the others."""
        largest = self.largest
        counts = [0 if k == largest else sum(map(cell_count, cells[1:]), cell_count(cells[0]))
                  for k, cells in enumerate(self.members)]
        counts[largest] = n - sum(counts)
        return counts


def _typical_score(joint: JointDist, eps: float, n: int) -> _CellScore:
    """Weak joint typicality at blocklength n as a score of a pair's joint
    type: the one typicality rule of the package.

    The score is 0.0 where the pair is typical, NEG elsewhere. Its rates
    -sum N(a, b) log2 p / n, for p = p(a), p(b), p(a, b), are summed over
    the classes of those weight triples in one _combine pass, and each must
    sit within eps of H(X), H(Y), H(X, Y) up to their rounding, (|X||Y| +
    2) machine epsilons of rate plus entropy: a pair exactly on the boundary
    is typical however its counts split (BSC(0.2), uniform input, 3 or 5
    flips in 20, eps 0.1). A pair meeting a zero-probability cell sums a NEG
    into its joint rate and is never typical. Raises ValidationError unless
    the joint has two axes and eps > 0 (not NaN).
    """
    if joint.ndim != 2:
        raise ValidationError("typicality: need a two-axis joint")
    if not eps > 0:
        raise ValidationError(f"typicality: eps must be > 0, got {eps}")
    # Marginals sum in sorted order: rows or columns holding one multiset (a
    # circulant channel, uniform input) get one float and share classes.
    px, py = (np.sort(joint.table, axis=axis).sum(axis=axis) for axis in (1, 0))
    logs = np.broadcast_arrays(_log_matrix(px)[:, None], _log_matrix(py), _log_matrix(joint.table))
    cell_class, members, weights = _weight_classes(np.stack(logs, axis=-1).reshape(-1, 3))
    centres = (entropy_bits(px), entropy_bits(py), entropy_bits(joint.table))
    slack = (joint.table.size + 2) * np.finfo(float).eps

    def score(counts, out: np.ndarray) -> np.ndarray:
        counts = (np.asarray(cnt)[..., None] for cnt in counts)
        sums = np.moveaxis(_combine(counts, weights, np.empty((*out.shape, 3))), -1, 0)
        typical = sums[2] > NEG_THRESHOLD
        for total, centre in zip(sums, centres):
            rate = -total / n
            typical &= np.abs(rate - centre) <= eps + slack * (rate + centre)
        out[...] = np.where(typical, 0.0, NEG)
        return out

    return _CellScore(joint.table.shape, cell_class, members, weights, score)


def is_jointly_typical(
    x: Sequence, y: Sequence, joint: JointDist, eps: float
) -> bool:
    """Weak joint typicality of (x, y) against a two-axis joint distribution.

    Checks all three empirical rates: the per-symbol surprisals of x, of y,
    and of the pair must each sit within eps of H(X), H(Y), H(X, Y), as
    _typical_score computes them from the pair's joint type. A pair that
    uses a zero-probability transition is never typical, whatever eps is.
    """
    score = _typical_score(joint, eps, len(x))
    if len(x) != len(y):
        raise ValidationError(
            f"is_jointly_typical: length mismatch {len(x)} vs {len(y)}"
        )
    nx, ny = joint.table.shape
    if x.alphabet_size != nx or y.alphabet_size != ny:
        raise ValidationError(
            "is_jointly_typical: sequence alphabets do not match the joint table"
        )
    counts = np.bincount(score.cell_class[x.symbols * ny + y.symbols], minlength=len(score.weights))
    return bool(score.of(counts[:, None], np.empty(1))[0] == 0.0)
