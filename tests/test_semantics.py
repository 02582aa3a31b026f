import json
import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from semcomm import (
    ConfigError,
    ContinuousKernel,
    ConvergenceError,
    GaussianDensity,
    KnowledgeBase,
    ProbVector,
    UniformDensity,
    ValidationError,
    compression_gain,
    decomposition_terms,
    differential_semantic_entropy,
    entropy,
    knowledge_entropy,
    load_triple,
    semantic_distribution,
    semantic_entropy,
)
from semcomm.semantics import SemanticTriple, load_json_doc


def test_uniform_kernel_raises_entropy(student_px, kb_uniform):
    """A maximally ambiguous knowledge base can exceed the source entropy."""
    assert entropy(student_px) == 1.5
    hs = semantic_entropy(student_px, kb_uniform)
    assert hs == pytest.approx(math.log2(3), abs=1e-12)
    assert hs > entropy(student_px)


def test_willingness_kernel_lowers_entropy(student_px, kb_willingness):
    hs = semantic_entropy(student_px, kb_willingness)
    assert hs == pytest.approx(2 - 0.75 * math.log2(3), abs=1e-12)
    assert hs < entropy(student_px)
    ps = semantic_distribution(student_px, kb_willingness)
    np.testing.assert_allclose(ps.probs, [0.75, 0.25], atol=1e-15)


def test_identity_kb_preserves_entropy(student_px):
    kb = KnowledgeBase.identity(student_px.labels)
    assert semantic_entropy(student_px, kb) == entropy(student_px)
    np.testing.assert_allclose(
        semantic_distribution(student_px, kb).probs, student_px.probs
    )


def test_knowledge_entropy_is_plain_entropy():
    pk = ProbVector(("k1", "k2"), [0.5, 0.5])
    assert knowledge_entropy(pk) == 1.0


def test_kb_validation_names_offending_row():
    with pytest.raises(ValidationError, match="row 1"):
        KnowledgeBase(("a", "b"), ("s",), np.array([[1.0], [0.5]]))


def test_kb_from_json_roundtrip(tmp_path, kb_willingness):
    doc = {
        "source": list(kb_willingness.source_labels),
        "semantic": list(kb_willingness.semantic_labels),
        "kernel": [list(r) for r in kb_willingness.kernel],
    }
    path = tmp_path / "kb.json"
    path.write_text(json.dumps(doc))
    kb2 = KnowledgeBase.from_json(path)
    np.testing.assert_allclose(kb2.kernel, kb_willingness.kernel)
    kb3 = KnowledgeBase.from_json(json.dumps(doc))
    assert kb3.semantic_labels == kb_willingness.semantic_labels


def test_load_json_doc_diagnostics(tmp_path):
    with pytest.raises(ConfigError):
        load_json_doc(tmp_path / "nope.json", "knowledge base")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_json_doc(bad, "knowledge base")
    with pytest.raises(ConfigError):
        KnowledgeBase.from_json({"source": ["a"], "kernel": [[1.0]]})


def test_compression_gain_values():
    assert compression_gain(6272.0, math.log2(10)) == pytest.approx(
        6272.0 / math.log2(10), abs=1e-9
    )
    assert round(compression_gain(6272.0, math.log2(10))) == 1888
    assert compression_gain(1.5, 1.5) == 1.0
    assert compression_gain(2.0, 0.0) == math.inf
    with pytest.raises(ValidationError):
        compression_gain(-1.0, 1.0)
    with pytest.raises(ValidationError):
        compression_gain(1.0, -0.5)


def _random_triple(gen: np.random.Generator) -> SemanticTriple:
    nx, ns, nk = (int(gen.integers(2, 5)) for _ in range(3))
    t = gen.dirichlet(np.ones(nx * ns * nk)).reshape(nx, ns, nk)
    return SemanticTriple(
        (
            tuple(f"x{i}" for i in range(nx)),
            tuple(f"s{i}" for i in range(ns)),
            tuple(f"k{i}" for i in range(nk)),
        ),
        t,
    )


def test_decomposition_identity_on_random_triples():
    gen = np.random.default_rng(20260818)
    for _ in range(300):
        terms = decomposition_terms(_random_triple(gen))
        assert abs(terms.identity_residual) <= 1e-10
        assert abs(terms.cmi_entropy_form - terms.cmi_direct_form) <= 1e-10
        for v in (
            terms.knowledge_mutual,
            terms.semantic_given_knowledge,
            terms.semantic_given_both,
            terms.residual_entropy,
        ):
            assert v >= -1e-9


def test_decomposition_independent_knowledge():
    # S = X exactly, K independent: I(K;X) = 0, H(S|K) = H(X), H(X|K,S) = 0
    px = np.array([0.25, 0.75])
    pk = np.array([0.5, 0.5])
    t = np.zeros((2, 2, 2))
    for x in range(2):
        for k in range(2):
            t[x, x, k] = px[x] * pk[k]
    terms = decomposition_terms(
        SemanticTriple((("x0", "x1"), ("s0", "s1"), ("k0", "k1")), t)
    )
    assert terms.knowledge_mutual == pytest.approx(0.0, abs=1e-12)
    assert terms.semantic_given_knowledge == pytest.approx(
        -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75)), abs=1e-12
    )
    assert terms.residual_entropy == pytest.approx(0.0, abs=1e-12)
    assert abs(terms.identity_residual) <= 1e-12


def test_load_triple(tmp_path):
    doc = {
        "source": ["x0", "x1"],
        "semantic": ["s0"],
        "knowledge": ["k0", "k1"],
        "table": [[[0.2, 0.3]], [[0.1, 0.4]]],
    }
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(doc))
    triple = load_triple(path)
    assert triple.table.shape == (2, 1, 2)
    with pytest.raises(ConfigError):
        load_triple({"source": ["x"], "semantic": ["s"], "table": [[1.0]]})


# --- differential semantic entropy ------------------------------------------


def test_gaussian_differential_entropy_closed_form():
    px = ProbVector(("only",), [1.0])
    for sd in (0.5, 1.0, 3.0):
        k = ContinuousKernel(
            ("only",), (GaussianDensity(0.0, sd),), domain=(-40.0 * sd, 40.0 * sd)
        )
        want = 0.5 * math.log2(2 * math.pi * math.e * sd * sd)
        got = differential_semantic_entropy(px, k)
        assert got.bits == pytest.approx(want, abs=1e-10)
        assert got.error_bound <= 1e-8


def test_uniform_differential_entropy_closed_form():
    px = ProbVector(("only",), [1.0])
    k = ContinuousKernel(("only",), (UniformDensity(-1.0, 3.0),), domain=(-2.0, 4.0))
    assert differential_semantic_entropy(px, k).bits == pytest.approx(2.0, abs=1e-10)


def test_differential_entropy_can_be_negative():
    px = ProbVector(("only",), [1.0])
    k = ContinuousKernel(("only",), (UniformDensity(0.0, 0.25),), domain=(-1.0, 1.0))
    assert differential_semantic_entropy(px, k).bits == pytest.approx(-2.0, abs=1e-10)


def test_mixture_against_plain_quadrature():
    px = ProbVector(("a", "b"), [0.3, 0.7])
    dens = (GaussianDensity(-1.0, 0.7), UniformDensity(0.0, 2.0))
    k = ContinuousKernel(("a", "b"), dens, domain=(-12.0, 12.0))

    def integrand(s):
        m = 0.3 * dens[0].pdf(s) + 0.7 * dens[1].pdf(s)
        return -m * math.log2(m) if m > 0 else 0.0

    want = sum(
        integrate.quad(integrand, a, b, limit=300)[0]
        for a, b in ((-12.0, -1.0), (-1.0, 0.0), (0.0, 2.0), (2.0, 12.0))
    )
    got = differential_semantic_entropy(px, k)
    assert got.bits == pytest.approx(want, abs=1e-7)


def test_differential_entropy_within_its_bound_of_quad():
    px = ProbVector(("a", "b", "c"), [0.2, 0.5, 0.3])
    dens = (GaussianDensity(-2.0, 0.5), GaussianDensity(1.0, 1.5), UniformDensity(-1.0, 0.5))
    k = ContinuousKernel(("a", "b", "c"), dens, domain=(-30.0, 30.0))

    def integrand(s):
        m = sum(w * float(d.pdf(s)) for w, d in zip(px.probs, dens))
        return -m * math.log2(m) if m > 0 else 0.0

    pieces = [
        integrate.quad(integrand, a, b, epsabs=1e-12, epsrel=0.0, limit=300)
        for a, b in zip((-30.0, -2.0, -1.0, 0.5, 1.0), (-2.0, -1.0, 0.5, 1.0, 30.0))
    ]
    for tol in (1e-6, 1e-10, 1e-13):
        got = differential_semantic_entropy(px, k, quad_tol=tol)
        assert got.error_bound <= tol
        assert abs(got.bits - sum(v for v, _ in pieces)) <= (
            got.error_bound + sum(e for _, e in pieces) + 1e-15
        )


def test_quad_tol_rejects_nan_before_integrating(monkeypatch):
    # NaN compares false both ways: past a "quad_tol <= 0" guard it would
    # fail every check against it, and an uncertified estimate would return.
    def refuse(*args, **kwargs):
        pytest.fail("integrated with a NaN quad_tol")

    monkeypatch.setattr("semcomm.semantics._integrate", refuse)
    px = ProbVector(("a", "b"), [0.5, 0.5])
    k = ContinuousKernel(("a", "b"), (GaussianDensity(0.0, 1.0), GaussianDensity(3.0, 0.5)),
                         domain=(-40.0, 40.0))
    with pytest.raises(ValidationError, match="quad_tol must be > 0, got nan"):
        differential_semantic_entropy(px, k, quad_tol=math.nan)


def test_gaussian_tail_mass_does_not_cancel():
    # 1 + erf(-8.4 / sqrt 2) cancels to 0.0; the true mass above 8.4 is 2.2e-17.
    got = GaussianDensity(0.0, 1.0).mass_outside(-60.0, 8.4)
    assert got == pytest.approx(0.5 * math.erfc(8.4 / math.sqrt(2.0)), rel=1e-12)
    px = ProbVector(("only",), [1.0])
    k = ContinuousKernel(("only",), (GaussianDensity(0.0, 1.0),), domain=(-60.0, 8.4))
    with pytest.raises(ValidationError, match="outside"):
        differential_semantic_entropy(px, k, quad_tol=1e-16)


def test_narrow_domain_rejected():
    px = ProbVector(("only",), [1.0])
    k = ContinuousKernel(("only",), (GaussianDensity(0.0, 1.0),), domain=(-2.0, 2.0))
    with pytest.raises(ValidationError, match="outside"):
        differential_semantic_entropy(px, k)


def test_quadrature_failure_carries_partial_estimate():
    px = ProbVector(("a", "b"), [0.5, 0.5])
    k = ContinuousKernel(
        ("a", "b"),
        (GaussianDensity(0.0, 1.0), GaussianDensity(0.3, 2.0)),
        domain=(-60.0, 60.0),
    )
    # Far below the rounding floor of the panel bounds (about 2e-17 here),
    # so no panel count can certify it.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ConvergenceError) as exc:
            differential_semantic_entropy(px, k, quad_tol=1e-18)
    assert exc.value.best is not None
    assert exc.value.gap > 1e-18
    # the partial estimate is still the right number, just not certified
    ref = differential_semantic_entropy(px, k, quad_tol=1e-8).bits
    assert exc.value.best.bits == pytest.approx(ref, abs=1e-8)


def test_continuous_kernel_validation():
    with pytest.raises(ValidationError):
        ContinuousKernel(("a",), (GaussianDensity(0.0, 1.0),), domain=(2.0, -2.0))
    with pytest.raises(ValidationError):
        GaussianDensity(0.0, 0.0)
    with pytest.raises(ValidationError):
        UniformDensity(1.0, 1.0)


def test_alphabet_mismatch_rejected(student_px, kb_willingness):
    other = ProbVector(("p", "q"), [0.5, 0.5])
    with pytest.raises(ValidationError):
        semantic_entropy(other, kb_willingness)
