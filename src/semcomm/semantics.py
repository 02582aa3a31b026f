"""Semantic measures built on a knowledge-base kernel.

A knowledge base maps each source symbol x to a distribution over semantic
symbols s. Pushing the source distribution through that kernel gives the
semantic distribution, whose entropy can land above, below, or exactly at
the Shannon entropy of the source; none of the three orderings is special.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Union

import numpy as np

from .errors import ValidationError, ConvergenceError
from .info import (
    JointDist,
    ProbVector,
    _check_kernel,
    _check_labels,
    _integrate,
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    entropy_bits,
    load_json_doc,
    mutual_information,
)

# Three-axis joint over (source, semantic, knowledge-state), in that order.
SemanticTriple = JointDist


@dataclass(frozen=True, eq=False)
class KnowledgeBase:
    """Row-stochastic interpretation kernel p(s | x)."""

    source_labels: tuple[str, ...]
    semantic_labels: tuple[str, ...]
    kernel: np.ndarray

    def __post_init__(self):
        src = _check_labels(self.source_labels, "KnowledgeBase source")
        sem = _check_labels(self.semantic_labels, "KnowledgeBase semantic")
        k = _check_kernel(self.kernel, src, sem, "KnowledgeBase")
        object.__setattr__(self, "source_labels", src)
        object.__setattr__(self, "semantic_labels", sem)
        object.__setattr__(self, "kernel", k)

    @classmethod
    def identity(cls, labels) -> "KnowledgeBase":
        """Each source symbol means exactly itself."""
        labels = tuple(labels)
        return cls(labels, labels, np.eye(len(labels)))

    @classmethod
    def from_json(cls, source: Union[str, Path, Mapping]) -> "KnowledgeBase":
        """Load from a mapping or a JSON file/string with keys
        "source", "semantic", "kernel"."""
        doc = load_json_doc(source, "knowledge base", ("source", "semantic", "kernel"))
        return cls(doc["source"], doc["semantic"], doc["kernel"])


def semantic_distribution(px: ProbVector, kb: KnowledgeBase) -> ProbVector:
    """Push the source distribution through the kernel: p(s) = sum_x p(x) p(s|x)."""
    if px.labels != kb.source_labels:
        raise ValidationError(
            f"semantic_distribution: source alphabets differ, "
            f"{px.labels} vs {kb.source_labels}"
        )
    return ProbVector(kb.semantic_labels, px.probs @ kb.kernel)


def semantic_entropy(px: ProbVector, kb: KnowledgeBase) -> float:
    """H_s(X) in bits: the entropy of the induced semantic distribution."""
    return entropy(semantic_distribution(px, kb))


def knowledge_entropy(pk: ProbVector) -> float:
    """Entropy of the knowledge-state prior, in bits."""
    return entropy(pk)


@dataclass(frozen=True)
class GaussianDensity:
    """N(mean, stddev^2) interpretation density."""

    mean: float
    stddev: float

    def __post_init__(self):
        if not (math.isfinite(self.mean) and math.isfinite(self.stddev)):
            raise ValidationError("GaussianDensity: parameters must be finite")
        if self.stddev <= 0:
            raise ValidationError(f"GaussianDensity: stddev must be > 0, got {self.stddev}")

    def pdf(self, s: np.ndarray) -> np.ndarray:
        z = (np.asarray(s, dtype=float) - self.mean) / self.stddev
        return np.exp(-0.5 * z * z) / (self.stddev * math.sqrt(2.0 * math.pi))

    def mass_outside(self, lo: float, hi: float) -> float:
        # Both tails through erfc: 1 + erf(z) would cancel to 0 far out.
        scale = self.stddev * math.sqrt(2.0)
        return 0.5 * (math.erfc((self.mean - lo) / scale) + math.erfc((hi - self.mean) / scale))

    def breakpoints(self) -> tuple[float, ...]:
        return (self.mean,)


@dataclass(frozen=True)
class UniformDensity:
    """Uniform interpretation density on [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValidationError("UniformDensity: bounds must be finite")
        if self.hi <= self.lo:
            raise ValidationError(
                f"UniformDensity: need lo < hi, got [{self.lo}, {self.hi}]"
            )

    def pdf(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        inside = (s >= self.lo) & (s <= self.hi)
        return np.where(inside, 1.0 / (self.hi - self.lo), 0.0)

    def mass_outside(self, lo: float, hi: float) -> float:
        overlap = max(0.0, min(self.hi, hi) - max(self.lo, lo))
        return 1.0 - overlap / (self.hi - self.lo)

    def breakpoints(self) -> tuple[float, ...]:
        return (self.lo, self.hi)


Density = Union[GaussianDensity, UniformDensity]


@dataclass(frozen=True)
class ContinuousKernel:
    """One interpretation density per source symbol, over a real semantic axis.

    `domain` is the closed interval the quadrature integrates over; mixture
    mass outside it must be negligible (checked at integration time).
    """

    source_labels: tuple[str, ...]
    densities: tuple[Density, ...]
    domain: tuple[float, float]

    def __post_init__(self):
        src = _check_labels(self.source_labels, "ContinuousKernel")
        dens = tuple(self.densities)
        if len(dens) != len(src):
            raise ValidationError(
                f"ContinuousKernel: {len(src)} labels but {len(dens)} densities"
            )
        for i, d in enumerate(dens):
            if not isinstance(d, (GaussianDensity, UniformDensity)):
                raise ValidationError(
                    f"ContinuousKernel: row {i} ({src[i]!r}) is {type(d).__name__}, "
                    "supported families are Gaussian and Uniform"
                )
        try:
            lo, hi = (float(self.domain[0]), float(self.domain[1]))
        except (TypeError, IndexError):
            raise ValidationError(
                f"ContinuousKernel: domain must be a (lo, hi) pair, got {self.domain!r}"
            ) from None
        if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
            raise ValidationError(
                f"ContinuousKernel: domain must be a finite interval with lo < hi, got ({lo}, {hi})"
            )
        object.__setattr__(self, "source_labels", src)
        object.__setattr__(self, "densities", dens)
        object.__setattr__(self, "domain", (lo, hi))


@dataclass(frozen=True)
class DifferentialEntropy:
    """Differential entropy estimate in bits with a quadrature error bound."""

    bits: float
    error_bound: float


def differential_semantic_entropy(
    px: ProbVector,
    kernel: ContinuousKernel,
    quad_tol: float = 1e-8,
) -> DifferentialEntropy:
    """h_s(X) in bits: differential entropy of the semantic mixture density.

    The mixture is m(s) = sum_x p(x) f_x(s); the integrand -m log2 m is
    integrated over the kernel's domain, split at component breakpoints so
    uniform edges and Gaussian peaks land on panel boundaries. Each piece
    gets an equal share of quad_tol / 2 and is integrated by 20-point
    Gauss-Legendre panels, bisected until their error bounds meet that share
    or number 500 (info._integrate). Mixture mass outside the domain must
    stay below quad_tol / 10, otherwise the domain is too small and a
    ValidationError is raised.

    Raises ConvergenceError (carrying the partial estimate) if the summed
    quadrature error bound exceeds quad_tol.
    """
    if px.labels != kernel.source_labels:
        raise ValidationError(
            "differential_semantic_entropy: source alphabets differ, "
            f"{px.labels} vs {kernel.source_labels}"
        )
    if not quad_tol > 0:
        raise ValidationError(f"quad_tol must be > 0, got {quad_tol}")
    lo, hi = kernel.domain
    active = [(w, d) for w, d in zip(px.probs, kernel.densities) if w > 0.0]

    tail = sum(w * d.mass_outside(lo, hi) for w, d in active)
    if tail >= quad_tol / 10.0:
        raise ValidationError(
            f"differential_semantic_entropy: mixture mass {tail:.3e} outside "
            f"domain [{lo}, {hi}] exceeds quad_tol/10 = {quad_tol / 10.0:.3e}"
        )

    def neg_m_log2_m(s: np.ndarray) -> np.ndarray:
        m = sum(w * d.pdf(s) for w, d in active)
        return -m * np.log2(np.where(m > 0.0, m, 1.0))

    points = {p for _, d in active for p in d.breakpoints()}
    cuts = sorted(p for p in points if lo < p < hi)
    edges = [lo, *cuts, hi]

    panel_tol = quad_tol / (2.0 * (len(edges) - 1))
    total = 0.0
    err = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        val, bound = _integrate(neg_m_log2_m, a, b, panel_tol, limit=500)
        total += val
        err += bound
    if err > quad_tol:
        raise ConvergenceError(
            f"differential_semantic_entropy: quadrature error bound {err:.3e} "
            f"exceeds quad_tol {quad_tol:.3e}",
            best=DifferentialEntropy(bits=total, error_bound=err),
            gap=err,
        )
    return DifferentialEntropy(bits=total, error_bound=err)


@dataclass(frozen=True)
class DecompositionTerms:
    """Additive split of a source's Shannon entropy against (S, K).

    identity_residual is H(X) minus the sum of the four terms; it is always
    zero up to rounding and is exposed so callers can assert that directly.
    The conditional mutual information I(S;X|K) is reported through both of
    its expansions, which must agree.
    """

    source_entropy: float
    knowledge_mutual: float          # I(K; X)
    semantic_given_knowledge: float  # H(S | K)
    semantic_given_both: float       # H(S | X, K)
    residual_entropy: float          # H(X | K, S)
    identity_residual: float
    cmi_entropy_form: float          # H(S|K) - H(S|X,K)
    cmi_direct_form: float           # I(S; X | K)


def decomposition_terms(triple: SemanticTriple) -> DecompositionTerms:
    """Decompose H(X) over a three-axis joint with axes (X, S, K).

    H(X) = I(K;X) + H(S|K) - H(S|X,K) + H(X|K,S).
    """
    if triple.ndim != 3:
        raise ValidationError("decomposition_terms: need a three-axis joint (X, S, K)")
    X, S, K = 0, 1, 2
    hx = entropy_bits(triple.marginal_table((X,)))
    ikx = mutual_information(triple, K, X)
    hs_k = conditional_entropy(triple, S, K)
    hs_xk = conditional_entropy(triple, S, (X, K))
    hx_ks = conditional_entropy(triple, X, (K, S))
    cmi_direct = conditional_mutual_information(triple, S, X, K)
    total = ikx + hs_k - hs_xk + hx_ks
    return DecompositionTerms(
        source_entropy=hx,
        knowledge_mutual=ikx,
        semantic_given_knowledge=hs_k,
        semantic_given_both=hs_xk,
        residual_entropy=hx_ks,
        identity_residual=hx - total,
        cmi_entropy_form=hs_k - hs_xk,
        cmi_direct_form=cmi_direct,
    )


def compression_gain(source_entropy: float, semantic_entropy_bits: float) -> float:
    """Ratio H(X) / H_s(X); returns math.inf when the semantic entropy is zero.

    An infinite gain is meaningful: a source whose semantics are constant
    can be compressed without bound at the semantic level.
    """
    if source_entropy < 0 or semantic_entropy_bits < 0:
        raise ValidationError(
            "compression_gain: entropies must be non-negative, got "
            f"{source_entropy}, {semantic_entropy_bits}"
        )
    if semantic_entropy_bits == 0.0:
        return math.inf
    return source_entropy / semantic_entropy_bits


def load_triple(source: Union[str, Path, Mapping]) -> SemanticTriple:
    """Load a three-axis (X, S, K) joint from JSON with keys
    "source", "semantic", "knowledge", "table"."""
    doc = load_json_doc(source, "semantic triple", ("source", "semantic", "knowledge", "table"))
    return JointDist(
        (doc["source"], doc["semantic"], doc["knowledge"]),
        doc["table"],
    )
