import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import feasible_benefit_range, random_latent_joint
from unitselect.bounds import (
    DEFAULT_BENEFIT_VECTOR,
    BenefitVector,
    ExperimentalDistribution,
    ObservationalJoint,
    ResponseProfile,
    benefit_bounds,
    benefit_bounds_array,
    clamp_to_range,
    exact_benefit,
    pns_bounds,
    sigma,
    value_range,
    w_term,
)

V = DEFAULT_BENEFIT_VECTOR


def test_default_vector():
    assert V.as_tuple() == (1.0, -1.0, -1.0, -2.0)


def test_vector_requires_finite_payoffs():
    with pytest.raises(ValueError):
        BenefitVector(1.0, float("nan"), 0.0, 0.0)
    with pytest.raises(ValueError):
        BenefitVector(float("inf"), 0.0, 0.0, 0.0)
    # float() would take True and "1" as 1.0
    with pytest.raises(ValueError, match="^beta must be a finite number, got True$"):
        BenefitVector(True, -1, -1, -2)
    with pytest.raises(ValueError, match="^gamma must be a finite number, got '1'$"):
        BenefitVector(1, "1", -1, -2)


def test_sigma():
    assert sigma(V) == 1.0
    assert sigma(BenefitVector(1, 1, 1, 1)) == 0.0
    assert sigma(BenefitVector(1, 0, 0, 0)) == 1.0
    assert sigma(BenefitVector(0, 1, 1, 1)) == -1.0


def test_w_term():
    assert w_term(V, ExperimentalDistribution(1.0, 0.0)) == 0.0
    assert w_term(V, ExperimentalDistribution(0.5, 0.5)) == -1.0
    ones = BenefitVector(1, 1, 1, 1)
    for e in (
        ExperimentalDistribution(0.3, 0.8),
        ExperimentalDistribution(0.0, 0.0),
        ExperimentalDistribution(1.0, 1.0),
    ):
        assert w_term(ones, e) == 1.0


def test_distribution_validation():
    with pytest.raises(ValueError):
        ExperimentalDistribution(1.2, 0.0)
    # float() would take "0.5" as 0.5 and True as 1.0
    with pytest.raises(ValueError, match="^p_y_do_x must be a finite number, got '0.5'$"):
        ExperimentalDistribution("0.5", 0.5)
    with pytest.raises(ValueError, match="^p_y_do_xp must be a finite number, got True$"):
        ExperimentalDistribution(0.5, True)
    with pytest.raises(ValueError):
        ObservationalJoint(0.5, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        ResponseProfile(0.5, 0.5, 0.5, -0.5)
    joint = ObservationalJoint(0.1, 0.2, 0.3, 0.4)
    assert joint.p_y == pytest.approx(0.4)
    assert joint.p_x == pytest.approx(0.3)


def test_pns_bounds_examples():
    e = ExperimentalDistribution(1.0, 0.0)
    o = ObservationalJoint(0.5, 0.0, 0.0, 0.5)
    assert pns_bounds(e, o) == (1.0, 1.0)

    e = ExperimentalDistribution(0.5, 0.5)
    o = ObservationalJoint(0.25, 0.25, 0.25, 0.25)
    assert pns_bounds(e, o) == (0.0, 0.5)

    # unclamped, inconsistent pair: no SCM generates these jointly
    e = ExperimentalDistribution(0.9, 0.0)
    o = ObservationalJoint(0.0, 0.5, 0.0, 0.5)
    l, u = pns_bounds(e, o)
    assert (l, u) == (0.9, 0.5)
    assert not benefit_bounds(V, e, o).consistent


def test_benefit_bounds_positive_sigma():
    b = benefit_bounds(V, ExperimentalDistribution(1.0, 0.0), ObservationalJoint(0.5, 0.0, 0.0, 0.5))
    assert (b.lower, b.upper) == (1.0, 1.0)
    assert b.sigma == 1.0 and b.w == 0.0 and b.consistent

    b = benefit_bounds(
        V, ExperimentalDistribution(0.5, 0.5), ObservationalJoint(0.25, 0.25, 0.25, 0.25)
    )
    assert (b.lower, b.upper) == (-1.0, -0.5)


def test_benefit_bounds_zero_sigma():
    ones = BenefitVector(1, 1, 1, 1)
    b = benefit_bounds(
        ones, ExperimentalDistribution(0.3, 0.7), ObservationalJoint(0.2, 0.3, 0.4, 0.1)
    )
    assert b.lower == b.upper == 1.0
    assert b.sigma == 0.0


def test_benefit_bounds_negative_sigma():
    neg = BenefitVector(0, 1, 1, 1)  # sigma = -1
    e = ExperimentalDistribution(0.5, 0.5)
    o = ObservationalJoint(0.25, 0.25, 0.25, 0.25)
    b = benefit_bounds(neg, e, o)
    l, u = pns_bounds(e, o)
    w = w_term(neg, e)
    # interval flips when sigma < 0
    assert b.lower == pytest.approx(w - u)
    assert b.upper == pytest.approx(w - l)
    assert b.lower <= b.upper


def test_exact_benefit():
    assert exact_benefit(V, ResponseProfile(1, 0, 0, 0)) == 1.0
    assert exact_benefit(V, ResponseProfile(0.25, 0.25, 0.25, 0.25)) == -0.75
    assert exact_benefit(V, ResponseProfile(0, 0, 0, 1)) == -2.0


def test_value_range():
    assert value_range(V) == (-2.0, 1.0)
    assert value_range(BenefitVector(1, 1, 1, 1)) == (1.0, 1.0)
    assert value_range(BenefitVector(0, 0, 0, 0)) == (0.0, 0.0)


@pytest.mark.parametrize(
    "v", [V, BenefitVector(-0.0, -1.0, 0.0, -1.0), BenefitVector(0.0, 1.0, -0.0, 1.0)]
)
def test_clamp_to_range_is_pythons_min_of_max(v):
    # bit for bit, so a zero tied with a signed-zero end keeps its own sign
    lo, hi = value_range(v)
    a = np.array([-3.0, -2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.5])
    got = clamp_to_range(a, v)
    want = [min(max(x, lo), hi) for x in a.tolist()]
    assert [struct.pack("<d", x) for x in got.tolist()] == [struct.pack("<d", x) for x in want]
    assert np.array_equal(clamp_to_range(np.stack([a, a[::-1]]), v), [want, want[::-1]])


def test_monotone_payoff_response():
    e = ExperimentalDistribution(0.6, 0.2)
    o = ObservationalJoint(0.3, 0.2, 0.1, 0.4)
    base = benefit_bounds(V, e, o)
    l, u = pns_bounds(e, o)
    delta = 0.75
    bumped = benefit_bounds(
        BenefitVector(V.beta + delta, V.gamma, V.theta, V.delta), e, o
    )
    assert bumped.lower == pytest.approx(base.lower + delta * l)
    assert bumped.upper == pytest.approx(base.upper + delta * u)


_payoffs = st.floats(-5, 5, allow_nan=False, allow_infinity=False)
_vectors = st.builds(BenefitVector, _payoffs, _payoffs, _payoffs, _payoffs)


@settings(max_examples=300, deadline=None)
@given(v=_vectors, seed=st.integers(0, 2**32 - 1))
def test_soundness_on_random_latent_joints(v, seed):
    """Exact benefit always lies inside the interval computed from the
    distributions the latent joint induces."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    (pc, pa, pn, pd), (pdx, pdxp), (pxy, pxyp, pxpy, pxpyp) = random_latent_joint(rng)
    f = v.beta * pc + v.gamma * pa + v.theta * pn + v.delta * pd
    b = benefit_bounds(
        v,
        ExperimentalDistribution(min(pdx, 1.0), min(pdxp, 1.0)),
        ObservationalJoint(pxy, pxyp, pxpy, pxpyp),
    )
    assert b.consistent
    assert b.lower - 1e-9 <= f <= b.upper + 1e-9


@settings(max_examples=300, deadline=None)
@given(v=_vectors, seed=st.integers(0, 2**32 - 1))
def test_bounds_are_the_extremes_over_consistent_joints(v, seed):
    """The interval is tight: its ends are the least and greatest benefit
    of any response-type joint that induces the same distributions."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    _, (pdx, pdxp), (pxy, pxyp, pxpy, pxpyp) = random_latent_joint(rng)
    e = ExperimentalDistribution(min(pdx, 1.0), min(pdxp, 1.0))
    o = ObservationalJoint(pxy, pxyp, pxpy, pxpyp)
    b = benefit_bounds(v, e, o)
    lo, hi = feasible_benefit_range(v, e, o)
    assert abs(b.lower - lo) <= 1e-12 and abs(b.upper - hi) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(v=_vectors, seed=st.integers(0, 2**32 - 1))
def test_identity_w_plus_sigma_pc(v, seed):
    """exact_benefit equals w_term + sigma * p_complier for the induced
    experimental distribution."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    raw = rng.dirichlet(np.ones(4))
    r = ResponseProfile(*raw)
    # P(y|do(x)) is compliers plus always-takers, P(y|do(x')) always-takers plus defiers
    e = ExperimentalDistribution(r.p_complier + r.p_always, r.p_always + r.p_defier)
    lhs = exact_benefit(v, r)
    rhs = w_term(v, e) + sigma(v) * r.p_complier
    assert abs(lhs - rhs) < 1e-12


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_pns_bounds_within_unit_interval_on_consistent_data(seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    _, (pdx, pdxp), (pxy, pxyp, pxpy, pxpyp) = random_latent_joint(rng)
    l, u = pns_bounds(
        ExperimentalDistribution(min(pdx, 1.0), min(pdxp, 1.0)),
        ObservationalJoint(pxy, pxyp, pxpy, pxpyp),
    )
    assert 0.0 <= l <= u + 1e-12
    assert u <= 1.0


def _f64(x) -> bytes:
    """A float's bit pattern, so -0.0 and 0.0 compare unequal."""
    return struct.pack("<d", x)


# Dyadic payoffs, signed zeros included: sums of them are exact, so sigma can
# be exactly 0 and ties and signed zeros occur inside the interval.
_exact_payoffs = st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, 2.0, -2.0])


@st.composite
def _kernel_vectors(draw, sign):
    if sign == 0:
        beta, gamma, theta = (draw(_exact_payoffs) for _ in range(3))
        return BenefitVector(beta, gamma, theta, gamma + theta - beta)
    payoffs = st.one_of(_exact_payoffs, _payoffs)
    v = BenefitVector(*(draw(payoffs) for _ in range(4)))
    assume(np.sign(sigma(v)) == sign)
    return v


def _kernel_inputs(rng, k):
    """Probabilities on a coarse grid (ties, zeros of both signs, ones) mixed
    with continuous ones; exp and obs are independent, so many cells are
    inconsistent."""
    exp = np.where(rng.random((k, 2)) < 0.5, rng.integers(0, 9, (k, 2)) / 8, rng.random((k, 2)))
    counts = rng.integers(0, 5, (k, 4)) * (rng.random((k, 4)) < 0.8)
    counts[counts.sum(axis=1) == 0, 0] = 1
    obs = counts / counts.sum(axis=1, keepdims=True)
    for arr in (exp, obs):
        arr[(arr == 0) & (rng.random(arr.shape) < 0.5)] = -0.0
    return exp, obs


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    sign=st.sampled_from([1, -1, 0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_benefit_bounds_array_matches_scalar(data, sign, seed):
    v = data.draw(_kernel_vectors(sign))
    assert np.sign(sigma(v)) == sign
    exp, obs = _kernel_inputs(np.random.Generator(np.random.Philox(key=seed)), 64)
    lower, upper, consistent = benefit_bounds_array(v, exp, obs)
    seen_inconsistent = False
    for i in range(len(exp)):
        b = benefit_bounds(v, ExperimentalDistribution(*exp[i]), ObservationalJoint(*obs[i]))
        assert _f64(lower[i]) == _f64(b.lower)
        assert _f64(upper[i]) == _f64(b.upper)
        assert bool(consistent[i]) == b.consistent
        seen_inconsistent |= not b.consistent
    assert seen_inconsistent


def test_benefit_bounds_array_validates_like_the_scalar_inputs():
    ok_exp, ok_obs = [[0.5, 0.5]], [[0.25, 0.25, 0.25, 0.25]]
    lower, upper, consistent = benefit_bounds_array(V, ok_exp, ok_obs)
    assert lower.shape == upper.shape == consistent.shape == (1,)
    with pytest.raises(ValueError):
        benefit_bounds_array(V, [[1.1, 0.5]], ok_obs)
    with pytest.raises(ValueError):
        benefit_bounds_array(V, [[np.nan, 0.5]], ok_obs)
    with pytest.raises(ValueError):
        benefit_bounds_array(V, ok_exp, [[0.5, 0.5, 0.5, 0.0]])  # sums to 1.5
    with pytest.raises(ValueError):
        benefit_bounds_array(V, ok_exp * 2, ok_obs)  # mismatched lengths
    with pytest.raises(ValueError):
        benefit_bounds_array(V, [[0.5, 0.5, 0.5]] * 2, [[0.25] * 4] * 3)  # (2, 3) exp
    empty = benefit_bounds_array(V, np.empty((0, 2)), np.empty((0, 4)))
    assert all(len(a) == 0 for a in empty)
