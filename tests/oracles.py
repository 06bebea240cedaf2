"""Independent oracles used by the test suite.

The benefit-interval oracle below never touches the closed-form bound
formulas under test.  It enumerates response-type joints directly from
accounting identities and brute-forces the benefit extremes over the
feasible set.
"""

import numpy as np

# A unit has a response type (what its outcome would be without/with
# treatment) and a natural treatment value.  Writing q(type, natural_x) for
# that joint, the observable distributions pin down six accounting
# identities:
#
#   q(always,1) + q(complier,1) = P(x,y)     treated units showing y=1
#   q(never,1)  + q(defier,1)   = P(x,y')
#   q(always,0) + q(defier,0)   = P(x',y)    untreated units showing y=1
#   q(never,0)  + q(complier,0) = P(x',y')
#   q(always,*) + q(complier,*) = P(y | do(x))
#   q(always,*) + q(defier,*)   = P(y | do(x'))
#
# Choosing t1 = q(always,1) and t0 = q(always,0) determines every other
# entry.  Each entry involves only one of t1, t0, so the feasible set is a
# product of two intervals and candidate values can be screened per axis.


def feasible_benefit_range(v, e, o, step=1e-3):
    """(min, max) of the benefit over all response-type joints consistent
    with exact distributions (e, o).

    Grids t1 and t0 over [0, 1] at ``step``; the exact zero-crossings of
    each q entry are added as extra candidates so interval endpoints are hit
    exactly rather than rounded to the grid.  Returns None when no joint is
    feasible.
    """
    pdx, pdxp = e.p_y_do_x, e.p_y_do_xp
    pxy, pxyp, pxpy, pxpyp = o.p_xy, o.p_xyp, o.p_xpy, o.p_xpyp
    tol = 1e-9
    base = np.arange(0.0, 1.0 + step, step)

    cand1 = np.unique(
        np.clip(
            np.concatenate([base, [pxy, pdxp - pxpy, pdxp - pxpy - pxyp]]), 0.0, 1.0
        )
    )
    q_c1 = pxy - cand1
    q_d1 = pdxp - pxpy - cand1
    q_n1 = pxyp - pdxp + pxpy + cand1
    t1 = cand1[(q_c1 >= -tol) & (q_d1 >= -tol) & (q_n1 >= -tol)]

    cand0 = np.unique(
        np.clip(
            np.concatenate([base, [pxpy, pdx - pxy, pdx - pxy - pxpyp]]), 0.0, 1.0
        )
    )
    q_d0 = pxpy - cand0
    q_c0 = pdx - pxy - cand0
    q_n0 = pxpyp - pdx + pxy + cand0
    t0 = cand0[(q_d0 >= -tol) & (q_c0 >= -tol) & (q_n0 >= -tol)]

    if len(t1) == 0 or len(t0) == 0:
        return None

    T1 = t1[:, None]
    T0 = t0[None, :]
    p_always = T1 + T0
    p_complier = (pxy - T1) + (pdx - pxy - T0)
    p_defier = (pdxp - pxpy - T1) + (pxpy - T0)
    p_never = (pxyp - pdxp + pxpy + T1) + (pxpyp - pdx + pxy + T0)
    f = (
        v.beta * p_complier
        + v.gamma * p_always
        + v.theta * p_never
        + v.delta * p_defier
    )
    return float(f.min()), float(f.max())


def random_latent_joint(rng):
    """A random response-type/natural-treatment joint, with the exact
    distributions it induces.  Used to exercise bound soundness on inputs
    that no particular SCM produced."""
    q = rng.dirichlet(np.ones(8)).reshape(4, 2)  # rows: complier, always, never, defier
    pc, pa, pn, pd = q.sum(axis=1)
    e = (pa + pc, pa + pd)
    o = (
        q[1, 1] + q[0, 1],  # P(x, y): treated, y_1 = 1
        q[2, 1] + q[3, 1],  # P(x, y')
        q[1, 0] + q[3, 0],  # P(x', y): untreated, y_0 = 1
        q[2, 0] + q[0, 0],  # P(x', y')
    )
    return (pc, pa, pn, pd), e, o


# The network of ``unitselect.learner`` written out of place, one new array
# per step.  The learner runs the same float operations in the same order
# into reused buffers, so its weights and losses must match these bit for bit.


def reference_forward(params, x):
    """Hidden activations and output of the two-tanh-layer network."""
    w1, b1, w2, b2, w3, b3 = params
    a1 = np.tanh(x @ w1 + b1)
    a2 = np.tanh(a1 @ w2 + b2)
    return a1, a2, a2 @ w3 + b3


def reference_loss_and_grads(params, x, t):
    """Mean-squared-error loss and its gradients, in ``params`` order."""
    w1, b1, w2, b2, w3, b3 = params
    a1, a2, out = reference_forward(params, x)
    resid = out - t
    loss = float(np.mean(resid**2))
    d_out = 2.0 * resid / len(x)
    g_w3 = a2.T @ d_out
    g_b3 = d_out.sum(axis=0)
    d_a2 = d_out @ w3.T
    d_z2 = d_a2 * (1.0 - a2**2)
    g_w2 = a1.T @ d_z2
    g_b2 = d_z2.sum(axis=0)
    d_a1 = d_z2 @ w2.T
    d_z1 = d_a1 * (1.0 - a1**2)
    g_w1 = x.T @ d_z1
    g_b1 = d_z1.sum(axis=0)
    return loss, [g_w1, g_b1, g_w2, g_b2, g_w3, g_b3]


def reference_train(params, x, t, epochs, learning_rate):
    """Full-batch gradient descent from ``params`` (updated in place):
    the loss history, one entry before any step and one per epoch."""
    loss, grads = reference_loss_and_grads(params, x, t)
    history = [loss]
    for _ in range(epochs):
        for p, g in zip(params, grads):
            p -= learning_rate * g
        loss, grads = reference_loss_and_grads(params, x, t)
        history.append(loss)
    return tuple(history)
