import json
import math

import numpy as np
import pytest

from semcomm import (
    ConfigError,
    ConvergenceError,
    Dmc,
    ValidationError,
    awgn_capacity,
    blahut_arimoto,
    ProbVector,
    mutual_information_for_input,
    semantic_capacity,
)
from conftest import random_dmc


def bsc_capacity(p: float) -> float:
    if p in (0.0, 1.0):
        return 1.0
    hb = -(p * math.log2(p) + (1 - p) * math.log2(1 - p))
    return 1.0 - hb


def z_capacity(z: float) -> float:
    # closed form for the Z-channel: C = log2(1 + (1-z) z^(z/(1-z)))
    return math.log2(1.0 + (1.0 - z) * z ** (z / (1.0 - z)))


def bsc(p: float) -> Dmc:
    return Dmc(("0", "1"), ("0", "1"), np.array([[1 - p, p], [p, 1 - p]]))


def zchan(z: float) -> Dmc:
    return Dmc(("0", "1"), ("0", "1"), np.array([[1.0, 0.0], [z, 1.0 - z]]))


@pytest.mark.parametrize("p", [0.01, 0.05, 0.1, 0.25, 0.4])
def test_bsc_matches_closed_form(p):
    res = blahut_arimoto(bsc(p), tol=1e-12)
    assert res.capacity == pytest.approx(bsc_capacity(p), abs=1e-9)
    np.testing.assert_allclose(res.optimal_input.probs, [0.5, 0.5], atol=1e-6)


@pytest.mark.parametrize("z", [0.1, 0.3, 0.5, 0.7])
def test_z_channel_matches_closed_form(z):
    res = blahut_arimoto(zchan(z), tol=1e-12)
    assert res.capacity == pytest.approx(z_capacity(z), abs=1e-9)


def test_z_channel_half_exact_value():
    assert blahut_arimoto(zchan(0.5), tol=1e-12).capacity == pytest.approx(
        math.log2(1.25), abs=1e-9
    )


def test_z_channel_against_scalar_optimizer():
    # independent oracle: optimize the single input parameter directly
    from scipy import optimize

    ch = zchan(0.3)
    res = optimize.minimize_scalar(
        lambda a: -mutual_information_for_input(
            ch, ProbVector(ch.input_labels, [1 - a, a])
        ),
        bounds=(1e-6, 1 - 1e-6),
        method="bounded",
        options={"xatol": 1e-12},
    )
    assert blahut_arimoto(ch, tol=1e-12).capacity == pytest.approx(-res.fun, abs=1e-9)


def test_identity_channel():
    for n in (2, 3, 5):
        ch = Dmc.identity([f"s{i}" for i in range(n)])
        res = blahut_arimoto(ch, tol=1e-12)
        assert res.capacity == pytest.approx(math.log2(n), abs=1e-9)
        np.testing.assert_allclose(res.optimal_input.probs, np.full(n, 1 / n), atol=1e-6)


def test_useless_channel_has_zero_capacity():
    ch = Dmc(("a", "b"), ("y",), np.array([[1.0], [1.0]]))
    assert blahut_arimoto(ch).capacity == pytest.approx(0.0, abs=1e-12)


def test_gap_is_certified():
    gen = np.random.default_rng(7)
    for _ in range(25):
        ch = random_dmc(gen, int(gen.integers(2, 5)), int(gen.integers(2, 5)))
        res = blahut_arimoto(ch, tol=1e-9)
        assert res.gap <= 1e-9
        assert res.iterations >= 1
        # no input distribution can beat the certified value
        for _ in range(4):
            px = ProbVector(ch.input_labels, gen.dirichlet(np.ones(ch.num_inputs)))
            assert mutual_information_for_input(ch, px) <= res.capacity + 1e-9


def test_achieved_rate_matches_reported_capacity():
    ch = bsc(0.11)
    res = blahut_arimoto(ch, tol=1e-11)
    achieved = mutual_information_for_input(ch, res.optimal_input)
    assert achieved == pytest.approx(res.capacity, abs=1e-9)


def test_convergence_error_carries_best_iterate():
    with pytest.raises(ConvergenceError) as exc:
        blahut_arimoto(zchan(0.5), tol=1e-12, max_iter=1)
    assert exc.value.best is not None
    assert exc.value.best.capacity <= math.log2(1.25) + 1e-9
    assert exc.value.gap > 1e-12


def test_threshold_below_capacity_stops_early_with_certified_lower_end():
    ch = zchan(0.3)
    c = z_capacity(0.3)
    full = blahut_arimoto(ch, tol=1e-9)
    res = blahut_arimoto(ch, tol=1e-9, threshold=c - 0.01)
    assert res.capacity >= c - 0.01
    assert res.capacity <= c + 1e-12
    assert res.iterations < full.iterations


def test_threshold_above_capacity_stops_with_certified_upper_end():
    ch = zchan(0.3)
    c = z_capacity(0.3)
    res = blahut_arimoto(ch, tol=1e-9, threshold=c + 0.01)
    assert res.capacity + res.gap < c + 0.01
    assert res.capacity + res.gap >= c - 1e-12


def test_threshold_none_leaves_the_tol_rule_unchanged():
    ch = zchan(0.3)
    res = blahut_arimoto(ch, tol=1e-9, threshold=None)
    ref = blahut_arimoto(ch, tol=1e-9)
    assert res.capacity == ref.capacity
    assert res.iterations == ref.iterations
    assert res.gap == ref.gap
    assert res.optimal_input.labels == ref.optimal_input.labels
    np.testing.assert_array_equal(res.optimal_input.probs, ref.optimal_input.probs)
    # values of the tol-only solve before the threshold rule existed
    assert res.iterations == 23
    assert res.capacity == pytest.approx(0.5036919334848174, rel=1e-12)
    assert res.gap == pytest.approx(8.117009286934262e-10, rel=1e-6)
    assert res.gap <= 1e-9


def test_threshold_rejects_nan():
    with pytest.raises(ValidationError, match="threshold"):
        blahut_arimoto(zchan(0.3), threshold=math.nan)


def test_tol_rejects_nan_before_iterating():
    # NaN compares false both ways: past a "tol <= 0" guard no gap could
    # ever meet it, and the solve would run all max_iter iterations.
    with pytest.raises(ValidationError, match="tol must be > 0, got nan"):
        blahut_arimoto(zchan(0.3), tol=math.nan)


def test_semantic_capacity_scales_by_alpha():
    ch = bsc(0.1)
    c = blahut_arimoto(ch).capacity
    assert semantic_capacity(ch, 1.0) == pytest.approx(c, abs=1e-9)
    assert semantic_capacity(ch, 0.5) == pytest.approx(2 * c, abs=1e-9)
    assert semantic_capacity(ch, 0.25) == pytest.approx(4 * c, abs=1e-9)


def test_semantic_capacity_rejects_bad_alpha():
    ch = bsc(0.1)
    with pytest.raises(ValidationError, match="alpha"):
        semantic_capacity(ch, 0.0)
    with pytest.raises(ValidationError, match="alpha"):
        semantic_capacity(ch, 1.5)
    with pytest.raises(ValidationError):
        semantic_capacity(ch, -0.2)


def test_awgn_closed_forms():
    assert awgn_capacity(63.0) == pytest.approx(6.0, abs=1e-12)
    assert awgn_capacity(9.0) == pytest.approx(math.log2(10.0), abs=1e-12)
    assert awgn_capacity(0.0) == 0.0
    assert awgn_capacity(1.0) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValidationError):
        awgn_capacity(-0.5)


def test_dmc_validation_diagnostics():
    with pytest.raises(ValidationError, match="row 0"):
        Dmc(("a", "b"), ("0", "1"), np.array([[0.6, 0.6], [0.5, 0.5]]))
    with pytest.raises(ValidationError):
        Dmc(("a", "b"), ("0", "1"), np.array([[1.1, -0.1], [0.5, 0.5]]))
    with pytest.raises(ValidationError):
        Dmc(("a", "a"), ("0", "1"), np.array([[0.5, 0.5], [0.5, 0.5]]))
    with pytest.raises(ValidationError):
        Dmc(("a", "b"), ("0", "0"), np.array([[0.5, 0.5], [0.5, 0.5]]))


def test_unreachable_output_warns():
    with pytest.warns(RuntimeWarning, match="unreachable"):
        ch = Dmc(
            ("a", "b"), ("0", "1", "2"), np.array([[0.5, 0.5, 0.0], [0.4, 0.6, 0.0]])
        )
    res = blahut_arimoto(ch, tol=1e-11)
    trimmed = Dmc(("a", "b"), ("0", "1"), np.array([[0.5, 0.5], [0.4, 0.6]]))
    assert res.capacity == pytest.approx(
        blahut_arimoto(trimmed, tol=1e-11).capacity, abs=1e-9
    )


def test_dmc_json_roundtrip(tmp_path):
    ch = zchan(0.3)
    doc = ch.to_dict()
    path = tmp_path / "ch.json"
    path.write_text(json.dumps(doc))
    ch2 = Dmc.from_json(path)
    np.testing.assert_allclose(ch2.matrix, ch.matrix)
    assert ch2.input_labels == ch.input_labels
    ch3 = Dmc.from_json(json.dumps(doc))
    assert ch3.output_labels == ch.output_labels
    with pytest.raises(ConfigError):
        Dmc.from_json({"inputs": ["a"], "matrix": [[1.0]]})


def test_mutual_information_channel_hand_value():
    # uniform input on BSC(0.1) achieves capacity
    ch = bsc(0.1)
    got = mutual_information_for_input(ch, ProbVector(ch.input_labels, [0.5, 0.5]))
    assert got == pytest.approx(bsc_capacity(0.1), abs=1e-12)
    # degenerate input gives zero
    assert mutual_information_for_input(
        ch, ProbVector(ch.input_labels, [1.0, 0.0])
    ) == pytest.approx(0.0, abs=1e-12)
