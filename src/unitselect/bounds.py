"""Benefit function over counterfactual response types and its tight bounds.

A unit's value to the selector depends on its response type; the benefit
function of a cell is the payoff-weighted mix of the four response-type
probabilities.  The complier mass is not identified from data, but it is
bounded by the classic Li-Pearl interval [L, U] computable from the cell's
experimental distribution and observational joint.  With sigma the payoff
contrast beta - gamma - theta + delta, the benefit is pinned to
W + sigma * p_complier, so the bounds on the complier mass translate
directly into bounds on the benefit.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .model import check_number

__all__ = [
    "BenefitVector",
    "DEFAULT_BENEFIT_VECTOR",
    "ExperimentalDistribution",
    "ObservationalJoint",
    "ResponseProfile",
    "BoundsBreakdown",
    "sigma",
    "w_term",
    "pns_bounds",
    "benefit_bounds",
    "benefit_bounds_array",
    "check_distributions",
    "exact_benefit",
    "value_range",
    "clamp_to_range",
]

# Slack for validating probability inputs and for the L <= U consistency flag.
PROB_TOL = 1e-9
CONSISTENCY_TOL = 1e-12


def _check_probs(dist: object) -> float:
    """Store each field of ``dist`` as a float through ``check_number``,
    refusing one outside [0, 1] by more than PROB_TOL; returns their sum."""
    for f in fields(dist):
        p = check_number(getattr(dist, f.name), f.name)
        if not -PROB_TOL <= p <= 1.0 + PROB_TOL:
            raise ValueError(f"{f.name} must lie in [0, 1], got {p!r}")
        object.__setattr__(dist, f.name, p)
    return sum(getattr(dist, f.name) for f in fields(dist))


@dataclass(frozen=True)
class BenefitVector:
    """Payoffs (beta, gamma, theta, delta) for selecting a complier,
    always-taker, never-taker and defier respectively."""

    beta: float
    gamma: float
    theta: float
    delta: float

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, check_number(getattr(self, f.name), f.name))

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.beta, self.gamma, self.theta, self.delta)


DEFAULT_BENEFIT_VECTOR = BenefitVector(1.0, -1.0, -1.0, -2.0)


@dataclass(frozen=True)
class ExperimentalDistribution:
    """Causal effects for one cell: P(y=1 | do(treat)) and P(y=1 | do(no treat))."""

    p_y_do_x: float
    p_y_do_xp: float

    def __post_init__(self) -> None:
        _check_probs(self)


@dataclass(frozen=True)
class ObservationalJoint:
    """Joint P(x, y) for one cell under the natural treatment mechanism.

    Entry order: (x=1,y=1), (x=1,y=0), (x=0,y=1), (x=0,y=0).
    """

    p_xy: float
    p_xyp: float
    p_xpy: float
    p_xpyp: float

    def __post_init__(self) -> None:
        total = _check_probs(self)
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"observational joint sums to {total!r}, expected 1")

    @property
    def p_y(self) -> float:
        """Marginal P(y=1)."""
        return self.p_xy + self.p_xpy

    @property
    def p_x(self) -> float:
        """Marginal P(x=1)."""
        return self.p_xy + self.p_xyp


@dataclass(frozen=True)
class ResponseProfile:
    """Distribution of one cell's units over the four response types."""

    p_complier: float
    p_always: float
    p_never: float
    p_defier: float

    def __post_init__(self) -> None:
        total = _check_probs(self)
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"response profile sums to {total!r}, expected 1")


@dataclass(frozen=True)
class BoundsBreakdown:
    """The pieces of a benefit interval: sigma, W, the complier-mass bounds
    (l, u) and the resulting [lower, upper].  ``consistent`` is False when
    noisy inputs produced l > u; the interval endpoints are still reported.
    """

    sigma: float
    w: float
    l: float
    u: float
    lower: float
    upper: float
    consistent: bool


def sigma(v: BenefitVector) -> float:
    """Payoff contrast beta - gamma - theta + delta."""
    return v.beta - v.gamma - v.theta + v.delta


def w_term(v: BenefitVector, e: ExperimentalDistribution) -> float:
    """Data-identified part of the benefit:
    (gamma - delta) * P(y|do(x)) + delta * P(y|do(x')) + theta * P(y'|do(x'))."""
    return (
        (v.gamma - v.delta) * e.p_y_do_x
        + v.delta * e.p_y_do_xp
        + v.theta * (1.0 - e.p_y_do_xp)
    )


def pns_bounds(
    e: ExperimentalDistribution, o: ObservationalJoint
) -> tuple[float, float]:
    """Tight bounds (l, u) on the complier mass of a cell.

    Returned unclamped: noisy inputs can yield l > u, which callers detect via
    the consistency flag rather than an exception.
    """
    p_y = o.p_y
    l = max(
        0.0,
        e.p_y_do_x - e.p_y_do_xp,
        p_y - e.p_y_do_xp,
        e.p_y_do_x - p_y,
    )
    u = min(
        e.p_y_do_x,
        1.0 - e.p_y_do_xp,
        o.p_xy + o.p_xpyp,
        e.p_y_do_x - e.p_y_do_xp + o.p_xpy + o.p_xyp,
    )
    return l, u


def benefit_bounds(
    v: BenefitVector, e: ExperimentalDistribution, o: ObservationalJoint
) -> BoundsBreakdown:
    """Interval for the cell's benefit from its two distributions.

    sigma > 0 gives [W + sigma*L, W + sigma*U], sigma < 0 flips the endpoints,
    and sigma = 0 collapses to the point [W, W] (the limit of both branches).
    """
    s = sigma(v)
    w = w_term(v, e)
    l, u = pns_bounds(e, o)
    if s > 0:
        lower, upper = w + s * l, w + s * u
    elif s < 0:
        lower, upper = w + s * u, w + s * l
    else:
        lower = upper = w
    return BoundsBreakdown(
        sigma=s,
        w=w,
        l=l,
        u=u,
        lower=lower,
        upper=upper,
        consistent=l <= u + CONSISTENCY_TOL,
    )


def check_distributions(exp: np.ndarray, obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """k cells' (k, 2) experimental and (k, 4) observational rows as float64
    arrays, validated as ``ExperimentalDistribution`` and
    ``ObservationalJoint`` validate one cell."""
    exp = np.asarray(exp, dtype=np.float64)
    obs = np.asarray(obs, dtype=np.float64)
    if exp.shape != (len(exp), 2) or obs.shape != (len(exp), 4):
        raise ValueError("exp must be (k, 2) and obs (k, 4)")
    for arr in (exp, obs):
        if not ((arr >= -PROB_TOL) & (arr <= 1.0 + PROB_TOL)).all():
            raise ValueError("probabilities must lie in [0, 1]")
    total = obs[:, 0] + obs[:, 1] + obs[:, 2] + obs[:, 3]
    if (np.abs(total - 1.0) > PROB_TOL).any():
        raise ValueError("observational joint does not sum to 1")
    return exp, obs


def benefit_bounds_array(
    v: BenefitVector, exp: np.ndarray, obs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``benefit_bounds`` for k cells at once: (lower, upper, consistent).

    ``exp`` is (k, 2) in ``ExperimentalDistribution`` field order and ``obs``
    is (k, 4) in ``ObservationalJoint`` order.  Inputs are validated by
    ``check_distributions``, and every result is bit-identical to the scalar
    function's: the same float operations run in the same order.
    """
    exp, obs = check_distributions(exp, obs)
    p_do_x, p_do_xp = exp.T
    p_xy, p_xyp, p_xpy, p_xpyp = obs.T
    s = sigma(v)
    w = (v.gamma - v.delta) * p_do_x + v.delta * p_do_xp + v.theta * (1.0 - p_do_xp)
    p_y = p_xy + p_xpy
    # Python's max() and min() keep the running value unless a term is
    # strictly beyond it (so a tied zero keeps its sign); np.maximum and
    # np.minimum do not promise which tied operand they return.
    l = np.zeros(len(exp))
    for term in (p_do_x - p_do_xp, p_y - p_do_xp, p_do_x - p_y):
        l = np.where(term > l, term, l)
    u = p_do_x
    for term in (1.0 - p_do_xp, p_xy + p_xpyp, p_do_x - p_do_xp + p_xpy + p_xyp):
        u = np.where(term < u, term, u)
    if s > 0:
        lower, upper = w + s * l, w + s * u
    elif s < 0:
        lower, upper = w + s * u, w + s * l
    else:
        lower = upper = w
    return lower, upper, l <= u + CONSISTENCY_TOL


def exact_benefit(v: BenefitVector, r: ResponseProfile) -> float:
    """Benefit of a cell whose response-type distribution is fully known."""
    return (
        v.beta * r.p_complier
        + v.gamma * r.p_always
        + v.theta * r.p_never
        + v.delta * r.p_defier
    )


def value_range(v: BenefitVector) -> tuple[float, float]:
    """Attainable range of the benefit over all response profiles."""
    payoffs = v.as_tuple()
    return min(payoffs), max(payoffs)


def clamp_to_range(a: np.ndarray, v: BenefitVector) -> np.ndarray:
    """``a`` clamped elementwise to ``value_range(v)`` as Python's
    min(max(a, lo), hi) clamps it: an endpoint replaces an entry only when
    strictly beyond it, so a zero keeps its sign.  numpy's clip does not
    promise which tied operand it returns."""
    lo, hi = value_range(v)
    a = np.where(lo > a, lo, a)
    return np.where(hi < a, hi, a)
