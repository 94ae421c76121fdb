"""Independent numerical oracles used by the tests.

Everything here is deliberately implemented from the governing balance
equations, not from the package's closed forms: fourth-order Runge-Kutta
integration of the inventory ODEs, composite Simpson quadrature, bisection
root finding, and direct vectorised evaluations of the printed trajectory
branches.  The tests compare the package against these.  The exception
is `evaluate_policy_batch`, a row-by-row loop over the package's scalar
kernels that the vectorised NumPy twin is checked against.
"""

from __future__ import annotations

import numpy as np

from greenchain import kernels as K


def rk4_path(rhs, t0: float, y0, t1: float, n_steps: int):
    """Classic RK4 from t0 to t1 (h may be negative); returns (ts, ys).

    `y0` may be a vector: the integration then runs elementwise with a
    per-element time span (t0, t1 arrays of the same shape).
    """
    t0 = np.asarray(t0, dtype=np.float64)
    t1 = np.asarray(t1, dtype=np.float64)
    y = np.array(y0, dtype=np.float64, copy=True)
    h = (t1 - t0) / n_steps
    ts = [t0.copy()]
    ys = [y.copy()]
    t = t0.copy()
    for _ in range(n_steps):
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t + h
        ts.append(t.copy())
        ys.append(y.copy())
    return np.array(ts), np.array(ys)


def simpson(f, a: float, b: float, n_panels: int = 2000) -> float:
    """Composite Simpson rule; handles b < a with the usual sign."""
    n = 2 * n_panels
    x = np.linspace(a, b, n + 1)
    fx = np.asarray(f(x), dtype=np.float64)
    h = (b - a) / n
    return float(h / 3.0 * (fx[0] + fx[-1]
                            + 4.0 * fx[1:-1:2].sum() + 2.0 * fx[2:-1:2].sum()))


def bisect(f, lo: float, hi: float, tol: float = 1e-13, max_iter: int = 200
           ) -> float:
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise ValueError("root not bracketed")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or (hi - lo) < tol * max(1.0, abs(mid)):
            return mid
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


# Direct (re-derived, vectorised) trajectory branches, independent of the
# package kernels.  theta is assumed strictly positive here; the tests use
# the zero-rate limits explicitly where needed.

def stock_build(t, rate, theta):
    """dI/dt = rate - theta I, I(0) = 0."""
    t = np.asarray(t, dtype=np.float64)
    return -rate / theta * np.expm1(-theta * t)


def stock_linear_shift(t, anchor_t, anchor_I, rate, theta):
    """dI/dt = rate - theta I with I(anchor_t) = anchor_I.

    Evaluated as anchor_I e^x - rate expm1(x)/theta with x = theta
    (anchor_t - t); the textbook grouping rate/theta + (...)e^x cancels
    catastrophically for small theta.
    """
    t = np.asarray(t, dtype=np.float64)
    x = theta * (anchor_t - t)
    return anchor_I * np.exp(x) - rate * np.expm1(x) / theta


def stock_drain(t, end_t, demand, theta):
    """dI/dt = -demand - theta I with I(end_t) = 0."""
    t = np.asarray(t, dtype=np.float64)
    return demand / theta * np.expm1(theta * (end_t - t))


def incumbent_reference(generations, coeff: float, every: int):
    """Deb's feasibility rule for one optimizer run, one candidate at a time.

    `generations` lists (X, values, violations, valid) per objective call.
    A valid candidate with violation <= 0 is feasible and beats every
    infeasible point; among feasible points the larger value wins, among
    infeasible ones the larger fitness ``value - coeff * violation**2``.
    Ties keep the earlier point.  Before call g >= 1 the coefficient
    doubles when g is a multiple of `every` and the incumbent is still
    infeasible.  Returns (x, value, violation, feasible, history,
    history_feasible); x is None if nothing was ever accepted, and the
    history is the best incumbent fitness seen so far.
    """
    x, value, violation, feasible = None, -np.inf, np.inf, False
    history, history_feasible = [], []

    def fitness(v, c):
        return v - coeff * (c * c) if np.isfinite(v) else -np.inf

    for g, (X, values, violations, valid) in enumerate(generations):
        if g > 0 and g % every == 0 and not feasible:
            coeff *= 2.0
        for row, v, c, ok in zip(X, values, violations, valid):
            if ok and c <= 0.0 and (not feasible or v > value):
                x, value, violation, feasible = row, v, 0.0, True
            elif ok and not feasible and fitness(v, c) > fitness(value, violation):
                x, value, violation = row, v, c
        history.append(max([fitness(value, violation)] + history[-1:]))
        history_feasible.append(feasible)
    return x, value, violation, feasible, history, history_feasible


def evaluate_policy_batch(policy_id, X, p):
    """Evaluate a population X (n, 5) one row at a time with the scalar kernels.

    Returns (values, violations, valid) like
    ``kernels.evaluate_policy_batch_numpy``; invalid rows carry NaN.
    """
    n = X.shape[0]
    values = np.full(n, np.nan)
    violations = np.full(n, np.nan)
    valid = np.zeros(n, dtype=bool)
    terms = np.empty(K.N_TERMS, dtype=np.float64)
    for i in range(n):
        if K.evaluate_terms(*X[i], p, terms) == K.OK:
            values[i], _, _, violations[i] = K.policy_value_from_terms(
                policy_id, X[i, 3], p, terms)
            valid[i] = True
    return values, violations, valid
