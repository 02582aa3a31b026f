import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semcomm import (
    JointDist,
    ProbVector,
    Sequence,
    ValidationError,
    conditional_entropy,
    conditional_mutual_information,
    empirical_rate_bits,
    entropy,
    entropy_bits,
    is_jointly_typical,
    joint_entropy,
    mutual_information,
)
from semcomm.info import _integrate


def test_entropy_hand_values():
    assert entropy(ProbVector(("a", "b", "c"), [0.25, 0.5, 0.25])) == 1.5
    assert entropy(ProbVector(("a", "b"), [1.0, 0.0])) == 0.0
    assert entropy(ProbVector(("a", "b", "c", "d"), [0.25] * 4)) == 2.0


def test_entropy_bits_ignores_zeros():
    assert entropy_bits(np.array([0.5, 0.0, 0.5])) == 1.0


def test_probvector_validation():
    with pytest.raises(ValidationError):
        ProbVector(("a", "b"), [0.6, 0.6])
    with pytest.raises(ValidationError):
        ProbVector(("a", "b"), [1.2, -0.2])
    with pytest.raises(ValidationError):
        ProbVector(("a", "a"), [0.5, 0.5])
    with pytest.raises(ValidationError):
        ProbVector((), [])


def test_probvector_lookup():
    p = ProbVector(("x", "y"), [0.3, 0.7])
    assert p.prob("y") == 0.7
    assert p.index("x") == 0
    with pytest.raises(ValidationError):
        p.index("z")


def test_from_weights_normalizes():
    p = ProbVector.from_weights(("a", "b", "c"), [2, 1, 1])
    np.testing.assert_allclose(p.probs, [0.5, 0.25, 0.25])


def test_joint_marginals_and_chain_rule():
    table = np.array([[0.4, 0.1], [0.2, 0.3]])
    j = JointDist((("x0", "x1"), ("y0", "y1")), table)
    np.testing.assert_allclose(j.marginal_table((0,)), [0.5, 0.5])
    np.testing.assert_allclose(j.marginal_table((1,)), [0.6, 0.4])
    # H(X, Y) = H(X) + H(Y|X)
    hx = entropy_bits(j.marginal_table((0,)))
    assert joint_entropy(j) == pytest.approx(hx + conditional_entropy(j, 1, 0), abs=1e-12)


def test_mutual_information_symmetry_and_identity():
    table = np.array([[0.4, 0.1], [0.2, 0.3]])
    j = JointDist((("x0", "x1"), ("y0", "y1")), table)
    mi = mutual_information(j)
    assert mi == pytest.approx(mutual_information(j, 1, 0), abs=1e-12)
    hx = entropy_bits(j.marginal_table((0,)))
    hy = entropy_bits(j.marginal_table((1,)))
    assert mi == pytest.approx(hx + hy - joint_entropy(j), abs=1e-12)


def test_independent_joint_has_zero_mi():
    px = np.array([0.3, 0.7])
    py = np.array([0.25, 0.75])
    j = JointDist((("a", "b"), ("c", "d")), np.outer(px, py))
    assert mutual_information(j) == pytest.approx(0.0, abs=1e-12)


def test_marginal_table_axis_order():
    gen = np.random.default_rng(5)
    t = gen.dirichlet(np.ones(24)).reshape(2, 3, 4)
    j = JointDist((("a", "b"), ("c", "d", "e"), ("f", "g", "h", "i")), t)
    # marginal over axes (2, 0) must transpose relative to the sorted (0, 2)
    np.testing.assert_allclose(j.marginal_table((2, 0)), t.sum(axis=1).T)
    np.testing.assert_allclose(j.marginal_table((0, 2)), t.sum(axis=1))


def test_conditional_entropy_multi_given():
    gen = np.random.default_rng(9)
    t = gen.dirichlet(np.ones(8)).reshape(2, 2, 2)
    j = JointDist((("a", "b"), ("c", "d"), ("e", "f")), t)
    direct = joint_entropy(j) - entropy_bits(j.marginal_table((1, 2)))
    assert conditional_entropy(j, 0, (1, 2)) == pytest.approx(direct, abs=1e-12)


def test_conditional_mutual_information_nonnegative_random():
    gen = np.random.default_rng(17)
    for _ in range(20):
        t = gen.dirichlet(np.ones(27)).reshape(3, 3, 3)
        j = JointDist((("a", "b", "c"), ("d", "e", "f"), ("g", "h", "i")), t)
        assert conditional_mutual_information(j, 0, 1, 2) >= 0.0


def test_cmi_of_markov_chain_is_zero():
    # X -> Z -> Y: I(X; Y | Z) = 0
    px = np.array([0.4, 0.6])
    pz_x = np.array([[0.7, 0.3], [0.2, 0.8]])
    py_z = np.array([[0.9, 0.1], [0.25, 0.75]])
    t = px[:, None, None] * pz_x[:, None, :] * py_z.T[None, :, :]
    # axes: (x, y, z)
    j = JointDist((("x0", "x1"), ("y0", "y1"), ("z0", "z1")), t)
    assert conditional_mutual_information(j, 0, 1, 2) == pytest.approx(0.0, abs=1e-12)


def test_sequence_validation():
    with pytest.raises(ValidationError):
        Sequence(np.array([0, 3]), 2)
    with pytest.raises(ValidationError):
        Sequence(np.array([-1]), 2)
    with pytest.raises(ValidationError):
        Sequence(np.array([]), 2)
    s = Sequence(np.array([0, 1, 1]), 2)
    assert len(s) == 3


def test_empirical_rate_bits():
    assert empirical_rate_bits(np.array([0.5, 0.25])) == pytest.approx(1.5)
    assert empirical_rate_bits(np.array([0.5, 0.0])) == math.inf


def test_typicality_independent_uniform_always_typical():
    j = JointDist((("0", "1"), ("0", "1")), np.full((2, 2), 0.25))
    x = Sequence(np.array([0, 1, 0, 1]), 2)
    y = Sequence(np.array([1, 1, 0, 0]), 2)
    assert is_jointly_typical(x, y, j, eps=1e-9)


def test_typicality_zero_probability_pair_fails():
    j = JointDist((("0", "1"), ("0", "1")), np.array([[0.5, 0.0], [0.0, 0.5]]))
    x = Sequence(np.array([0, 0]), 2)
    for eps in (0.5, 1e29, 1e300, math.inf):  # however large eps is
        assert is_jointly_typical(x, Sequence(np.array([0, 0]), 2), j, eps=eps)
        assert not is_jointly_typical(x, Sequence(np.array([0, 1]), 2), j, eps=eps)


@pytest.mark.parametrize("flips, typical", [(2, False), (3, True), (4, True), (5, True), (6, False)])
def test_typicality_boundary_pairs_follow_the_exact_rule(flips, typical):
    # BSC(0.2) with uniform input: the joint rate is 1 + h(0.2) + 2 (flips/20
    # - 0.2) exactly, so 3 and 5 flips in 20 sit exactly eps = 0.1 from
    # H(X, Y) and are typical, in every split of the counts over the cells.
    j = JointDist.from_input_and_kernel(
        ProbVector(("0", "1"), [0.5, 0.5]), np.array([[0.8, 0.2], [0.2, 0.8]]), ("0", "1")
    )
    n = 20
    for n01 in range(flips + 1):
        for n00 in range(n - flips + 1):
            cells = [(0, 0)] * n00 + [(0, 1)] * n01 + [(1, 0)] * (flips - n01)
            cells += [(1, 1)] * (n - flips - n00)
            x, y = (Sequence(np.array(axis), 2) for axis in zip(*cells))
            assert is_jointly_typical(x, y, j, eps=0.1) == typical
            if flips in (3, 5):
                assert not is_jointly_typical(x, y, j, eps=0.0999)


def test_typicality_eps_gates_skewed_composition():
    j = JointDist.from_input_and_kernel(
        ProbVector(("0", "1"), [0.8, 0.2]),
        np.array([[0.9, 0.1], [0.1, 0.9]]),
        ("0", "1"),
    )
    hx = entropy_bits(j.marginal_table((0,)))
    # all-ones x has empirical rate log2(1/0.2), far from H(X) ~ 0.72
    x = Sequence(np.ones(50, dtype=int), 2)
    y = Sequence(np.ones(50, dtype=int), 2)
    gap = abs(math.log2(1 / 0.2) - hx)
    assert not is_jointly_typical(x, y, j, eps=gap / 2)


def test_typicality_validates_inputs():
    j = JointDist((("0", "1"), ("0", "1")), np.full((2, 2), 0.25))
    x = Sequence(np.array([0, 1]), 2)
    with pytest.raises(ValidationError):
        is_jointly_typical(x, Sequence(np.array([0]), 2), j, eps=0.1)
    with pytest.raises(ValidationError):
        is_jointly_typical(x, Sequence(np.array([0, 1]), 2), j, eps=0.0)
    with pytest.raises(ValidationError):
        is_jointly_typical(Sequence(np.array([0, 2]), 3), Sequence(np.array([0, 1]), 2), j, eps=0.1)


probs2to5 = st.integers(2, 5).flatmap(
    lambda n: st.lists(
        st.floats(min_value=1e-6, max_value=1.0), min_size=n, max_size=n
    )
)


@given(probs2to5)
@settings(max_examples=60, deadline=None)
def test_entropy_bounds_property(weights):
    n = len(weights)
    p = ProbVector.from_weights([str(i) for i in range(n)], weights)
    h = entropy(p)
    assert -1e-12 <= h <= math.log2(n) + 1e-12


@given(
    st.integers(2, 4),
    st.integers(2, 4),
    st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=16, max_size=16),
)
@settings(max_examples=40, deadline=None)
def test_mi_bounded_by_marginal_entropies(nx, ny, weights):
    t = np.asarray(weights[: nx * ny]).reshape(nx, ny)
    t = t / t.sum()
    j = JointDist(
        (tuple(f"x{i}" for i in range(nx)), tuple(f"y{i}" for i in range(ny))),
        t,
    )
    hx = entropy_bits(j.marginal_table((0,)))
    hy = entropy_bits(j.marginal_table((1,)))
    mi = mutual_information(j)
    assert mi <= min(hx, hy) + 1e-9
    # conditioning never raises entropy on average
    assert conditional_entropy(j, 0, 1) <= hx + 1e-9


# --- quadrature -------------------------------------------------------------


@pytest.mark.parametrize("f, a, b, exact", [
    (np.exp, 0.0, 1.0, math.e - 1.0),
    (np.cos, -3.0, 7.0, math.sin(7.0) + math.sin(3.0)),
    (lambda s: np.exp(-400.0 * s * s), -1.0, 2.0, math.sqrt(math.pi / 400.0)),
    (np.sqrt, 0.0, 1.0, 2.0 / 3.0),
])
def test_integrate_bound_covers_the_error(f, a, b, exact):
    value, bound = _integrate(f, a, b, 1e-12, 200)
    assert bound <= 1e-12
    # The bound covers the rule's error; rounding the nodes of a width-10
    # interval alone moves the sum by up to about 1e-14.
    assert abs(value - exact) <= bound + 1e-14


def test_integrate_honours_limit_and_returns_unmet_bound():
    calls = []

    def f(s):
        calls.append(s.size)
        return np.abs(s - 1.0 / 3.0) ** 0.25

    value, bound = _integrate(f, 0.0, 1.0, 1e-300, 7)
    # One call scores the first panel and its halves; each bisection adds one
    # call, and the first panel plus 6 bisections make 7 panels.
    assert calls == [60] + [80] * 6
    assert bound > 1e-300
    exact = 0.8 * ((2.0 / 3.0) ** 1.25 + (1.0 / 3.0) ** 1.25)
    assert abs(value - exact) <= bound
