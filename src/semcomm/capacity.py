"""Discrete memoryless channels and capacity solvers.

Capacity is computed by Blahut-Arimoto with a certified stopping rule: the
iteration stops when the standard upper bound (max over inputs of the
divergence D(p(y|x) || q(y))) and the achieved mutual information differ by
at most tol, so the returned gap is a real bound, not a heuristic. A caller
that only needs to compare capacity with a threshold can also stop the loop
as soon as that certified bracket lies on one side of it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Union

import numpy as np

from .errors import ValidationError, ConvergenceError
from .info import (
    JointDist, ProbVector, _check_kernel, _check_labels, load_json_doc, mutual_information,
)

# Probability floor applied during Blahut-Arimoto updates; at tolerances of
# 1e-12 bits and above the floor is numerically invisible.
PROB_FLOOR = 1e-300


@dataclass(frozen=True, eq=False)
class Dmc:
    """A discrete memoryless channel: row-stochastic matrix p(y|x)."""

    input_labels: tuple[str, ...]
    output_labels: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self):
        ins = _check_labels(self.input_labels, "Dmc inputs")
        outs = _check_labels(self.output_labels, "Dmc outputs")
        m = _check_kernel(self.matrix, ins, outs, "Dmc")
        dead = np.where(m.sum(axis=0) == 0.0)[0]
        if dead.size:
            names = [outs[int(j)] for j in dead]
            warnings.warn(
                f"Dmc: outputs {names} are unreachable from every input",
                RuntimeWarning,
                stacklevel=2,
            )
        object.__setattr__(self, "input_labels", ins)
        object.__setattr__(self, "output_labels", outs)
        object.__setattr__(self, "matrix", m)

    @property
    def num_inputs(self) -> int:
        return len(self.input_labels)

    @property
    def num_outputs(self) -> int:
        return len(self.output_labels)

    @classmethod
    def identity(cls, labels) -> "Dmc":
        labels = tuple(labels)
        return cls(labels, labels, np.eye(len(labels)))

    @classmethod
    def from_json(cls, source: Union[str, Path, Mapping]) -> "Dmc":
        """Load from a mapping or JSON file/string with keys
        "inputs", "outputs", "matrix"."""
        doc = load_json_doc(source, "channel", ("inputs", "outputs", "matrix"))
        return cls(doc["inputs"], doc["outputs"], doc["matrix"])

    def to_dict(self) -> dict:
        return {
            "inputs": list(self.input_labels),
            "outputs": list(self.output_labels),
            "matrix": self.matrix.tolist(),
        }


@dataclass(frozen=True)
class CapacityResult:
    """Certified capacity bracket: capacity <= C <= capacity + gap.

    capacity is an achieved rate (a lower bound on C) and capacity + gap an
    upper bound. gap <= tol unless blahut_arimoto stopped early on its
    threshold rule, in which case gap may exceed tol.
    """

    capacity: float
    optimal_input: ProbVector
    iterations: int
    gap: float


def mutual_information_for_input(ch: Dmc, px: ProbVector) -> float:
    """I(X; Y) in bits for a fixed input distribution over ch's inputs."""
    if px.labels != ch.input_labels:
        raise ValidationError(
            f"mutual_information_for_input: input alphabets differ, "
            f"{px.labels} vs {ch.input_labels}"
        )
    joint = JointDist.from_input_and_kernel(px, ch.matrix, ch.output_labels)
    return mutual_information(joint)


def _divergence_terms(matrix: np.ndarray, p: np.ndarray) -> np.ndarray:
    """D(p(y|x) || q(y)) in bits per input symbol, with q = p @ matrix."""
    q = p @ matrix
    # Wherever matrix[x, y] > 0 and p has support, q[y] > 0, so the masked
    # ratio is always finite.
    ratio = np.zeros_like(matrix)
    pos = matrix > 0.0
    ratio[pos] = matrix[pos] * np.log2(matrix[pos] / q[np.nonzero(pos)[1]])
    return ratio.sum(axis=1)


def blahut_arimoto(
    ch: Dmc,
    tol: float = 1e-9,
    max_iter: int = 100_000,
    threshold: float | None = None,
) -> CapacityResult:
    """Capacity of a DMC in bits per use, with a certified gap <= tol.

    Each iteration computes per-input divergences D_x = D(p(y|x) || q). Their
    expectation under the current input law is an achievable rate (lower
    bound) and their maximum is an upper bound on capacity; the loop stops
    when the two differ by at most tol and reports the lower bound.

    With a threshold, the loop also stops as soon as the bracket decides
    C >= threshold (capacity >= threshold) or C < threshold
    (capacity + gap < threshold); the returned gap may then exceed tol. The
    lower bound never decreases across iterations, so a "C >= threshold"
    decision also holds for the fully converged value.

    Raises ConvergenceError carrying the best-so-far CapacityResult when
    max_iter is exhausted.
    """
    if not tol > 0:
        raise ValidationError(f"blahut_arimoto: tol must be > 0, got {tol}")
    if threshold is not None and math.isnan(threshold):
        raise ValidationError("blahut_arimoto: threshold must not be NaN")
    if max_iter < 1:
        raise ValidationError(f"blahut_arimoto: max_iter must be >= 1, got {max_iter}")
    m = ch.matrix
    p = np.full(ch.num_inputs, 1.0 / ch.num_inputs)

    lower = 0.0
    gap = math.inf
    for it in range(1, max_iter + 1):
        d = _divergence_terms(m, p)
        upper = float(d.max())
        lower = float(np.dot(p, d))
        gap = upper - lower
        decided = threshold is not None and (
            max(lower, 0.0) >= threshold or upper < threshold
        )
        if gap <= tol or decided:
            return CapacityResult(
                capacity=max(lower, 0.0),
                optimal_input=ProbVector(ch.input_labels, p),
                iterations=it,
                gap=gap,
            )
        # Multiplicative update p'(x) proportional to p(x) 2^{D_x}; subtract
        # the max exponent first so the powers stay in range.
        p = p * np.exp2(d - d.max())
        p = np.maximum(p, PROB_FLOOR)
        p = p / p.sum()

    best = CapacityResult(
        capacity=max(lower, 0.0),
        optimal_input=ProbVector(ch.input_labels, p),
        iterations=max_iter,
        gap=gap,
    )
    raise ConvergenceError(
        f"blahut_arimoto: gap {gap:.3e} > tol {tol:.3e} after {max_iter} iterations",
        best=best,
        gap=gap,
    )


def _check_alpha(alpha: float, where: str) -> None:
    """Reject an alpha outside (0, 1]; `where` prefixes the message.

    alpha = 0 would make every rate achievable for the (empty) semantic
    content, so it is rejected as a distinguished "infinite semantic
    capacity" condition rather than returning a number.
    """
    if not (0.0 < alpha <= 1.0):
        if alpha == 0.0:
            raise ValidationError(
                f"{where}: alpha = 0 means infinite semantic capacity "
                "(no semantic content to protect); choose alpha in (0, 1]"
            )
        raise ValidationError(f"{where}: alpha must be in (0, 1], got {alpha}")


def semantic_capacity(ch: Dmc, alpha: float, tol: float = 1e-9) -> float:
    """C_s = max_p I(X;Y) / alpha, in bits per channel use.

    alpha is the fraction of message bits that carry semantic content; it
    must lie in (0, 1].
    """
    _check_alpha(alpha, "semantic_capacity")
    return blahut_arimoto(ch, tol=tol).capacity / alpha


def awgn_capacity(snr: float) -> float:
    """Shannon capacity log2(1 + snr) of the scalar AWGN channel, in bits.

    snr is a linear power ratio, not dB.
    """
    if not math.isfinite(snr) or snr < 0:
        raise ValidationError(f"awgn_capacity: snr must be finite and >= 0, got {snr}")
    return math.log2(1.0 + snr)
