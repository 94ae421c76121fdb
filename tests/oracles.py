"""Independent numerical oracles used by the tests.

Everything here is deliberately implemented from the governing balance
equations, not from the package's closed forms: fourth-order Runge-Kutta
integration of the inventory ODEs, composite Simpson quadrature, bisection
root finding, and direct vectorised evaluations of the printed trajectory
branches.  The tests compare the package against these.  The exceptions
are the scalar kernel, the model's closed forms written one decision row
at a time in plain Python arithmetic (step formulas, inventory trajectories,
`evaluate_terms` and `policy_value_from_terms`), which the NumPy twin,
the package's only model code, is checked against through
`evaluate_policy_batch`, its row-by-row loop; `surface_csv_reference`,
the `csv.writer` loop the surface writer must match byte for byte;
`mutation_indices_reference`, the draw-by-draw loop whose stream DE's bulk
draw must replay; `run_many_reference`, the optimizers' generation loops
before their draws were taken in one pass per generator, whose results
``run_many`` must match bit for bit; and `anfis_training_reference`, the
rule-by-rule training loop that ANFIS training on the corner array must
match bit for bit."""

from __future__ import annotations

import csv
import io
import math
import numbers
import time

import numpy as np

from greenchain import kernels as K
from greenchain.optimize import (OptimizerConfig, RunResult, _is_number,
                                 de_mutate_current_to_rand, de_mutate_rand_to_best,
                                 pso_update)


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


# The scalar kernel: every schedule, cost, emission and profit term of one
# decision row, in plain Python arithmetic.  Cycle formulas route the
# ill-conditioned (e^x - 1 - x) / x**2 style terms through the
# series-protected phi1/phi2, and below THETA_FLOOR the explicit
# zero-deterioration limits are used.
#
# expm1, log1p and exp are NumPy's, on one float64 at a time: they round as
# the twin's array loops do, where math's differ in the last bit on a few
# percent of arguments, enough to flip the backlog check B2 - s eta > 0 at
# its boundary.  Like math's they raise on overflow and on log1p(x <= -1);
# underflow to zero is no error.

def _numpy_scalar(ufunc):
    def call(x):
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return float(ufunc(x))
    return call


expm1, log1p, exp = (_numpy_scalar(f) for f in (np.expm1, np.log1p, np.exp))


def phi1(x):
    """(e^x - 1) / x, series-protected near zero."""
    if abs(x) < 1e-4:
        return 1.0 + x * (0.5 + x * (1.0 / 6.0 + x * (1.0 / 24.0 + x / 120.0)))
    return expm1(x) / x


def phi2(x):
    """(e^x - 1 - x) / x^2, series-protected near zero."""
    if abs(x) < 1e-3:
        return 0.5 + x * (1.0 / 6.0 + x * (1.0 / 24.0 + x * (1.0 / 120.0 + x / 720.0)))
    return (expm1(x) - x) / (x * x)


def effective_rates(P, f_d, beta1, beta2):
    """Perfect / defective effective production rates; they sum to P."""
    P_e = (1.0 - f_d) * P + f_d * P * beta2 - (1.0 - f_d) * P * beta1
    P_de = (1.0 - f_d) * P * beta1 + f_d * P - f_d * P * beta2
    return P_e, P_de


def preserved_rate(theta_base, v, xi):
    """Deterioration rate after a preservation investment xi at efficiency v."""
    return theta_base * exp(-v * xi)


def manufacturer_cycle(P, P_e, P_de, P_r, D_r, theta_m, T0):
    """Rework-end time T1, cycle-end time T2 and lot size Q_m.

    Below K.THETA_FLOOR the zero-deterioration limits apply:
    T1 = T0(1 + P_de/P_r), Q_m = P*T0, T2 = T1 + Q_m/D_r.
    """
    if theta_m < K.THETA_FLOOR:
        T1 = T0 * (1.0 + P_de / P_r)
        Q_m = P * T0
        T2 = T1 + Q_m / D_r
    else:
        u = -expm1(-theta_m * T0)
        T1 = T0 + log1p(P_de * u / P_r) / theta_m
        # algebraically identical to (P_r/th)*(1 + (P_e*u - P_r)/(P_de*u + P_r))
        # but free of the cancellation that form suffers for small theta_m
        Q_m = P * P_r * u / (theta_m * (P_de * u + P_r))
        T2 = T1 + log1p(Q_m * theta_m / D_r) / theta_m
    return T1, T2, Q_m


def manufacturer_integrals(P_e, P_de, P_r, D_r, Q_m, theta_m, T0, T1, T2):
    """Exact integrals of the perfect and defective stock over their cycles."""
    d1 = T1 - T0
    d2 = T2 - T1
    if theta_m < K.THETA_FLOOR:
        int_I = 0.5 * P_e * T0 * T0 + P_e * T0 * d1 + 0.5 * P_r * d1 * d1 \
            + 0.5 * D_r * d2 * d2
        int_Id = 0.5 * P_de * T0 * T0 + 0.5 * P_r * d1 * d1
    else:
        x0 = theta_m * T0
        x1 = theta_m * d1
        x2 = theta_m * d2
        int_I = P_e * T0 * T0 * phi2(-x0) \
            + Q_m * d1 * phi1(x1) - P_r * d1 * d1 * phi2(x1) \
            + D_r * d2 * d2 * phi2(x2)
        int_Id = P_de * T0 * T0 * phi2(-x0) + P_r * d1 * d1 * phi2(x1)
    return int_I, int_Id


def manufacturer_stock(t, P_e, P_r, D_r, Q_m, theta_m, T0, T1, T2):
    """Perfect-stock level I(t) on [0, T2] (branch by production phase)."""
    if theta_m < K.THETA_FLOOR:
        if t <= T0:
            return P_e * t
        if t <= T1:
            return P_e * T0 + P_r * (t - T0)
        return D_r * (T2 - t)
    if t <= T0:
        return -(P_e / theta_m) * expm1(-theta_m * t)
    if t <= T1:
        # stable regrouping of P_r/th + (Q_m - P_r/th) e^{th (T1-t)}
        x = theta_m * (T1 - t)
        return Q_m * exp(x) - P_r * expm1(x) / theta_m
    return (D_r / theta_m) * expm1(theta_m * (T2 - t))


def defective_stock(t, P_de, P_r, theta_m, T0, T1):
    """Defective-stock level I_d(t) on [0, T1]."""
    if theta_m < K.THETA_FLOOR:
        if t <= T0:
            return P_de * t
        return P_r * (T1 - t)
    if t <= T0:
        return -(P_de / theta_m) * expm1(-theta_m * t)
    return (P_r / theta_m) * expm1(theta_m * (T1 - t))


def retailer_cycle(fW, D_r, eta, theta_r, T1, T2):
    """Backlog s, clearing time T11, stock peak Q_r and cycle end T3.

    Requires fW > 0 and B2 - s*eta > 0; callers guard the domain.
    """
    B1 = eta + theta_r
    B2 = D_r - fW
    s = fW * T1
    T11 = T1 + log1p(-s * eta / B2) / eta
    Q_r = -(B2 / B1) * expm1(B1 * (T11 - T2))
    T3 = T2 + log1p(B1 * Q_r / fW) / B1
    return s, T11, Q_r, T3, B1, B2


def retailer_integrals(fW, s, eta, B1, B2, T1, T11, T2, T3):
    """Stock integrals over [T11, T3] (holding) and [T1, T3] (revenue).

    The [T1, T11] piece is signed; it is negative whenever T11 < T1, which
    the printed backlog-clearing time permits.
    """
    dA = T2 - T11
    dB = T3 - T2
    piece2 = B2 * dA * dA * phi2(-B1 * dA)
    piece3 = fW * dB * dB * phi2(B1 * dB)
    d0 = T11 - T1
    q = -expm1(-eta * d0) / eta
    piece1 = B2 * d0 * d0 * phi2(-eta * d0) + s * q
    return piece2 + piece3, piece1 + piece2 + piece3


def retailer_stock(t, fW, s, eta, B1, B2, Q_r, T1, T11, T2, T3):
    """Retailer stock on the printed branches.

    On [0, T1] the value is the accumulated backlog stored as a positive
    level.  The [T1, T11] branch is evaluated as printed even when T11 < T1.
    """
    if t <= T1:
        return fW * t
    if t <= T11:
        x = eta * (T1 - t)
        return s * exp(x) - B2 * expm1(x) / eta
    if t <= T2:
        return -(B2 / B1) * expm1(B1 * (T11 - t))
    return (fW / B1) * expm1(B1 * (T3 - t))


def green_reduction_terms(G, omega, l1, l2, kappa1, l3, l4, kappa2):
    """Emission reductions bought by the green investment G."""
    gm = omega * G
    gr = (1.0 - omega) * G
    rho_m = gm * l1 - l2 * gm ** kappa1
    rho_r = gr * l1 - l2 * gr ** kappa1
    rho_G = G * l3 - l4 * G ** kappa2
    return rho_m, rho_r, rho_G


def evaluate_terms(T0, xi1, xi2, G, W_r, p, out):
    """Fill `out` with every schedule, cost, emission and profit term.

    Returns a status code; on a nonzero status `out` is left untrusted.
    Positive-form guards are used so NaN inputs fail the checks.
    """
    if not (0.0 < T0 < math.inf):
        return K.ERR_BAD_T0
    if not (0.0 <= xi1 < math.inf and 0.0 <= xi2 < math.inf
            and 0.0 <= G < math.inf):
        return K.ERR_BAD_INVESTMENT

    P = p[K.P_P]
    P_r = p[K.P_P_R]
    f_d = p[K.P_F_D]
    beta1 = p[K.P_BETA1]
    beta2 = p[K.P_BETA2]
    theta1 = p[K.P_THETA1]
    theta2 = p[K.P_THETA2]
    v1 = p[K.P_V1]
    v2 = p[K.P_V2]
    D_r = p[K.P_D_R]
    a = p[K.P_A]
    b = p[K.P_B]
    eta = p[K.P_ETA]
    W_m = p[K.P_W_M]
    C_p = p[K.P_C_P]
    C_r = p[K.P_C_R]
    C_g = p[K.P_C_G]
    C_op = p[K.P_C_OP]
    C_or = p[K.P_C_OR]
    i_c = p[K.P_I_C]
    h_p = p[K.P_H_P]
    h_d = p[K.P_H_D]
    h_r = p[K.P_H_R]
    d_cp = p[K.P_D_CP]
    d_cd = p[K.P_D_CD]
    d_cr = p[K.P_D_CR]
    O_r = p[K.P_O_R]
    C_s = p[K.P_C_S]
    f_r = p[K.P_F_R]
    E_p = p[K.P_E_P]
    E_t = p[K.P_E_T]
    E_h1 = p[K.P_E_H1]
    E_h2 = p[K.P_E_H2]
    E_hr = p[K.P_E_HR]
    E_d1 = p[K.P_E_D1]
    E_d2 = p[K.P_E_D2]
    E_dr = p[K.P_E_DR]
    d1_km = p[K.P_D1]

    fW = a - b * W_r
    if not (fW >= 0.0):
        return K.ERR_NEGATIVE_DEMAND
    if fW == 0.0:
        return K.ERR_ZERO_DEMAND

    P_e, P_de = effective_rates(P, f_d, beta1, beta2)
    theta_m = preserved_rate(theta1, v1, xi1)
    theta_r = preserved_rate(theta2, v2, xi2)

    T1, T2, Q_m = manufacturer_cycle(P, P_e, P_de, P_r, D_r, theta_m, T0)
    int_I, int_Id = manufacturer_integrals(
        P_e, P_de, P_r, D_r, Q_m, theta_m, T0, T1, T2)

    B2 = D_r - fW
    if not (B2 > 0.0):
        return K.ERR_NET_REPLENISHMENT
    s = fW * T1
    if not (B2 - s * eta > 0.0):
        return K.ERR_BACKLOG
    s, T11, Q_r, T3, B1, B2 = retailer_cycle(fW, D_r, eta, theta_r, T1, T2)
    int_r, int_r_sr = retailer_integrals(fW, s, eta, B1, B2, T1, T11, T2, T3)

    SR_m = W_m * D_r * (T2 - T1)
    PC_m = C_p * P * T0
    StC_m = C_op + C_or
    PeC_m = C_g * f_d * P * beta2 * T0
    RC_m = C_r * P_r * (T1 - T0)
    PreC_m = xi1 * T2
    ScC_m = i_c * P * T0
    HC_m1 = h_p * int_I
    HC_m2 = h_d * int_Id
    DC_m1 = d_cp * theta1 * int_I
    DC_m2 = d_cd * theta1 * int_Id

    e_m1 = Q_m * E_p
    e_m2 = E_h1 * int_I
    e_m3 = E_h2 * int_Id
    e_m4 = E_d1 * theta1 * int_I
    e_m5 = E_d2 * theta1 * int_Id
    e_m6 = d1_km * E_t * D_r * (T2 - T1)
    CarC_m = e_m1 + e_m2 + e_m3 + e_m4 + e_m5 + e_m6

    SR_r = W_r * (fW * (T3 - T1) + eta * int_r_sr)
    HC_r = h_r * int_r
    DC_r = d_cr * theta2 * int_r
    PC_r = W_m * D_r * (T2 - T1)
    OC_r = O_r
    PreC_r = xi2 * T2
    SC_r = 0.5 * s * T1 * C_s

    e_r1 = E_hr * int_r
    e_r2 = E_dr * theta2 * int_r
    CarC_r = e_r1 + e_r2

    phi_m = (SR_m - (PC_m + StC_m + PeC_m + RC_m + PreC_m + ScC_m
                     + HC_m1 + HC_m2 + DC_m1 + DC_m2)) / T2
    phi_r_raw = (SR_r - (HC_r + DC_r + PC_r + OC_r + PreC_r + SC_r)) / T3
    phi_r = (1.0 - f_r) * phi_r_raw

    out[K.T_T1] = T1
    out[K.T_T2] = T2
    out[K.T_Q_M] = Q_m
    out[K.T_THETA_M] = theta_m
    out[K.T_THETA_R] = theta_r
    out[K.T_S] = s
    out[K.T_T11] = T11
    out[K.T_Q_R] = Q_r
    out[K.T_T3] = T3
    out[K.T_B1] = B1
    out[K.T_B2] = B2
    out[K.T_F_WR] = fW
    out[K.T_INT_I] = int_I
    out[K.T_INT_ID] = int_Id
    out[K.T_INT_R] = int_r
    out[K.T_INT_R_SR] = int_r_sr
    out[K.T_SR_M] = SR_m
    out[K.T_PC_M] = PC_m
    out[K.T_STC_M] = StC_m
    out[K.T_PEC_M] = PeC_m
    out[K.T_RC_M] = RC_m
    out[K.T_PREC_M] = PreC_m
    out[K.T_SCC_M] = ScC_m
    out[K.T_HC_M1] = HC_m1
    out[K.T_HC_M2] = HC_m2
    out[K.T_DC_M1] = DC_m1
    out[K.T_DC_M2] = DC_m2
    out[K.T_E_M1] = e_m1
    out[K.T_E_M2] = e_m2
    out[K.T_E_M3] = e_m3
    out[K.T_E_M4] = e_m4
    out[K.T_E_M5] = e_m5
    out[K.T_E_M6] = e_m6
    out[K.T_CARC_M] = CarC_m
    out[K.T_SR_R] = SR_r
    out[K.T_HC_R] = HC_r
    out[K.T_DC_R] = DC_r
    out[K.T_PC_R] = PC_r
    out[K.T_OC_R] = OC_r
    out[K.T_PREC_R] = PreC_r
    out[K.T_SC_R] = SC_r
    out[K.T_E_R1] = e_r1
    out[K.T_E_R2] = e_r2
    out[K.T_CARC_R] = CarC_r
    out[K.T_PHI_M] = phi_m
    out[K.T_PHI_R_RAW] = phi_r_raw
    out[K.T_PHI_R] = phi_r
    out[K.T_PHI_T] = phi_m + phi_r
    out[K.T_P_E] = P_e
    out[K.T_P_DE] = P_de
    return K.OK


def policy_value_from_terms(policy_id, G, p, terms):
    """Compose (value, phi_m, phi_r, violation) for one policy from terms."""
    f_r = p[K.P_F_R]
    l1 = p[K.P_L1]
    l2 = p[K.P_L2]
    l3 = p[K.P_L3]
    l4 = p[K.P_L4]
    kappa1 = p[K.P_KAPPA1]
    kappa2 = p[K.P_KAPPA2]
    omega = p[K.P_OMEGA]
    U1 = p[K.P_U1]
    U2 = p[K.P_U2]
    C_Tax = p[K.P_C_TAX]
    C_CT = p[K.P_C_CT]

    rho_m, rho_r, rho_G = green_reduction_terms(
        G, omega, l1, l2, kappa1, l3, l4, kappa2)
    T2 = terms[K.T_T2]
    T3 = terms[K.T_T3]
    T11 = terms[K.T_T11]
    CarC_m = terms[K.T_CARC_M]
    CarC_r = terms[K.T_CARC_R]

    if policy_id == K.POLICY_LIMITED:
        phi_m = terms[K.T_PHI_M]
        phi_r = terms[K.T_PHI_R]
        value = phi_m + phi_r - G
        excess = CarC_m + CarC_r - rho_G - U2
        violation = excess if excess > 0.0 else 0.0
        return value, phi_m, phi_r, violation

    if policy_id == K.POLICY_TAX:
        charge_m = C_Tax * (CarC_m - rho_m)
        charge_r = C_Tax * (CarC_r - rho_r)
    else:
        charge_m = C_CT * (CarC_m - rho_m - U1)
        charge_r = C_CT * (CarC_r - rho_r - U1)

    phi_m = terms[K.T_PHI_M] - (charge_m + omega * G * T2) / T2
    phi_r_raw = terms[K.T_PHI_R_RAW] \
        - (charge_r + (1.0 - omega) * G * (T3 - T11)) / T3
    phi_r = (1.0 - f_r) * phi_r_raw
    return phi_m + phi_r, phi_m, phi_r, 0.0



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


def mutation_indices_reference(rng: np.random.Generator, NP: int, n_aux: int
                               ) -> np.ndarray:
    """Distinct partner indices per member, none equal to the member itself.

    Drawn row by row with rejection, one scalar ``rng.integers`` call per
    draw; this loop fixes DE's draw sequence.
    """
    idx = np.empty((NP, n_aux), dtype=np.int64)
    for i in range(NP):
        chosen = {i}
        for k in range(n_aux):
            j = int(rng.integers(NP))
            while j in chosen:
                j = int(rng.integers(NP))
            chosen.add(j)
            idx[i, k] = j
    return idx


def evaluate_policy_batch(policy_id, X, p):
    """Evaluate a population X (n, 5) one row at a time with the scalar kernel.

    Returns (values, violations, valid) like
    ``kernels.evaluate_policy_batch_numpy``; invalid rows carry NaN.
    """
    n = X.shape[0]
    values = np.full(n, np.nan)
    violations = np.full(n, np.nan)
    valid = np.zeros(n, dtype=bool)
    terms = np.empty(K.N_TERMS, dtype=np.float64)
    for i in range(n):
        if evaluate_terms(*X[i], p, terms) == K.OK:
            values[i], _, _, violations[i] = policy_value_from_terms(
                policy_id, X[i, 3], p, terms)
            valid[i] = True
    return values, violations, valid


def surface_csv_reference(v1, v2, xs, ys, values, valid) -> str:
    """The `surface` CSV text written one cell row at a time by `csv.writer`.

    Rows run over the grid in `v1`-major order; every number is its
    ``repr`` and an inadmissible cell (``valid`` false) is left empty.
    """
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow([v1, v2, "phi_T"])
    XX, YY = np.meshgrid(xs, ys, indexing="ij")
    for xv, yv, val, ok in zip(XX.ravel(), YY.ravel(), values, valid):
        writer.writerow([repr(float(xv)), repr(float(yv)),
                         repr(float(val)) if ok else ""])
    return fh.getvalue()


class _Trapezoid:
    """One membership function with Python-float corners a <= b <= c <= d."""

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d

    def membership(self, x):
        rise = np.maximum(self.b - self.a, 1e-300)
        fall = np.maximum(self.d - self.c, 1e-300)
        mu = np.minimum((x - self.a) / rise, (self.d - x) / fall)
        mu = np.clip(mu, 0.0, 1.0)
        return np.where((x >= self.b) & (x <= self.c), 1.0, mu)

    def corner_gradients(self, x):
        g = np.zeros((4, x.size))
        rise = self.b - self.a
        if rise > 0:
            on = (x > self.a) & (x < self.b)
            g[0, on] = (x[on] - self.b) / rise ** 2
            g[1, on] = -(x[on] - self.a) / rise ** 2
        fall = self.d - self.c
        if fall > 0:
            on = (x > self.c) & (x < self.d)
            g[2, on] = (self.d - x[on]) / fall ** 2
            g[3, on] = (x[on] - self.c) / fall ** 2
        return g


def anfis_training_reference(lo, hi, x, y, epochs=100, learning_rate=0.01,
                             n=5):
    """Hybrid ANFIS training with one trapezoid object per rule.

    Starts from the equal-width grid partition of [lo, hi] and runs the
    training loop rule by rule: per epoch a least-squares solve of the
    consequents (ridge 1e-8 on rank loss), then one gradient step of length
    ``learning_rate * (hi - lo)`` on the corners, sorted back into order,
    kept only if it does not raise the RMSE (else the learning rate
    halves).  Returns (history, corners (n, 4), p, q).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    h = (hi - lo) / (n - 1)
    mfs = [_Trapezoid(lo + k * h - 0.75 * h, lo + k * h - 0.25 * h,
                      lo + k * h + 0.25 * h, lo + k * h + 0.75 * h)
           for k in range(n)]

    def strengths():
        w = np.stack([mf.membership(x) for mf in mfs])
        return w, w.sum(axis=0)

    def fit():
        w, total = strengths()
        if np.any(total <= 1e-12):
            return None
        wn = w / total
        A = np.concatenate([wn * x[None, :], wn]).T
        beta, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
        if rank < A.shape[1]:
            beta = np.linalg.solve(A.T @ A + 1e-8 * np.eye(2 * n), A.T @ y)
        return beta[:n], beta[n:]

    def outputs(p, q):
        w, total = strengths()
        rule_out = p[:, None] * x[None, :] + q[:, None]
        return w, total, rule_out, (w * rule_out).sum(axis=0) / total

    def rmse(p, q):
        return float(np.sqrt(np.mean((outputs(p, q)[3] - y) ** 2)))

    def gradients(p, q):
        _, total, rule_out, y_hat = outputs(p, q)
        r = y_hat - y
        grads = np.zeros((n, 4))
        for k, mf in enumerate(mfs):
            common = 2.0 * r * ((rule_out[k] - y_hat) / total)
            grads[k] = mf.corner_gradients(x) @ common
        return grads

    lr = learning_rate
    p, q = fit()
    history = [rmse(p, q)]
    for _ in range(max(epochs - 1, 0)):
        saved = [(mf.a, mf.b, mf.c, mf.d) for mf in mfs]
        grads = gradients(p, q)
        norm = float(np.linalg.norm(grads))
        if norm > 0.0:
            step = -lr * (hi - lo) * grads / norm
            for mf, corners, delta in zip(mfs, saved, step):
                mf.a, mf.b, mf.c, mf.d = (
                    float(v) for v in np.sort(np.array(corners) + delta))
        fitted = fit()
        new_rmse = np.inf if fitted is None else rmse(*fitted)
        if new_rmse > history[-1]:
            for mf, corners in zip(mfs, saved):
                mf.a, mf.b, mf.c, mf.d = corners
            lr *= 0.5
            history.append(history[-1])
        else:
            p, q = fitted
            history.append(new_rmse)
    return history, np.array([[mf.a, mf.b, mf.c, mf.d] for mf in mfs]), p, q


# The optimizers' generation loops as they were before their draws were
# taken in one pass per generator: per-run crossover drawing from the
# generator, the reflection computing its spans on every call, list
# histories and a coefficient checked on every penalty.  Apart from the
# partner draws, which come from `mutation_indices_reference` (the stream
# the bulk replay also gave), the code below is that version verbatim;
# `run_many_reference` must give `optimize.run_many`'s RunResults bit for
# bit.


def binomial_crossover(target, donor, Pc: float, rng: np.random.Generator):
    """Row-wise binomial crossover of (n, d) populations.

    Each row takes every donor component with probability Pc plus one forced
    component j_rand.  Draw order: all n*d uniforms first, then one j_rand
    per row.
    """
    target = np.asarray(target, dtype=np.float64)
    donor = np.asarray(donor, dtype=np.float64)
    n, d = target.shape
    mask = rng.random((n, d)) < Pc
    mask[np.arange(n), rng.integers(d, size=n)] = True
    return np.where(mask, donor, target)


def _reflect(X: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Fold out-of-box coordinates back inside (triangle-wave reflection)."""
    span = upper - lower
    y = np.mod(X - lower, 2.0 * span)
    y = np.where(y > span, 2.0 * span - y, y)
    return lower + y


def penalize(values, violations, valid, coeff):
    """Quadratic exterior penalty ``value - coeff * max(violation, 0)**2``.

    Equals the value on feasible points; rows marked invalid get -inf.
    `coeff` may be an array broadcasting against the values (one per run).
    """
    if not (np.asarray(coeff) > 0).all():
        raise ValueError("penalty coefficient must be positive")
    with np.errstate(invalid="ignore"):
        return np.where(valid, values - coeff * np.maximum(violations, 0.0) ** 2, -math.inf)


class _Runs:
    """State of K lockstep runs: bounds, generators, penalties, incumbents.

    Populations and bounds are (K, NP, d) arrays; every per-run quantity
    is a (K, ...) array that broadcasts against them, so each run sees
    exactly the elementwise arithmetic it would see alone.  The
    incumbent of run k is ``x[k]``, with its raw ``value``, ``violation``,
    ``feasible`` flag and penalized fitness ``fit`` under ``coeff[k]``.
    """

    def __init__(self, spaces, config: OptimizerConfig, seeds):
        config.validate()
        spaces, seeds = list(spaces), list(seeds)
        if not spaces or len(seeds) != len(spaces):
            raise ValueError("need one seed per search space and at least one run")
        # default_rng(None) would seed from the wall clock.
        if not all(_is_number(seed, numbers.Integral) for seed in seeds):
            raise ValueError("every run needs an integer seed")
        if any(s.dim != spaces[0].dim for s in spaces):
            raise ValueError("runs in one lockstep call must share the dimension")
        self.config, self.seeds = config, seeds
        self.K, self.NP, self.d = len(seeds), config.pop_size, spaces[0].dim
        self.iters = config.resolved_iters()
        # Bounds repeated per member: against a (K, 1, d) box NumPy loops
        # over rows of d = 5, which makes the clip and the reflection slow.
        self.lower = np.repeat(np.stack([s.lower for s in spaces])[:, None, :],
                               self.NP, axis=1)
        self.upper = np.repeat(np.stack([s.upper for s in spaces])[:, None, :],
                               self.NP, axis=1)
        self.rngs = [np.random.default_rng(seed) for seed in self.seeds]
        self.coeff = np.full(self.K, config.penalty_coefficient, dtype=np.float64)
        self.rows = np.arange(self.K)
        self.x = np.zeros((self.K, self.d))
        self.has_x = np.zeros(self.K, dtype=bool)
        self.value = np.full(self.K, -math.inf)
        self.violation = np.full(self.K, math.inf)
        self.feasible = np.zeros(self.K, dtype=bool)
        self.fit = np.full(self.K, -math.inf)
        self.history, self.history_feasible = [], []   # one (K,) entry per call
        self.evals = 0
        self.start = time.perf_counter()

    def initial_population(self, objective):
        """Uniform draws in each box, evaluated: X and `evaluate`'s arrays."""
        draws = np.stack([rng.random((self.NP, self.d)) for rng in self.rngs])
        X = self.lower + draws * (self.upper - self.lower)
        return (X, *self.evaluate(objective, X))

    def evaluate(self, objective, X: np.ndarray):
        """One objective call on the stacked (K*NP, d) rows, penalized under
        each run's coefficient and offered to its incumbent.  Returns values,
        violations, validity and fitness, each (K, NP)."""
        shape = (self.K, self.NP)
        values, violations, valid = (a.reshape(shape)
                                     for a in objective(X.reshape(-1, self.d)))
        self.evals += self.NP
        fitness = penalize(values, violations, valid, self.coeff[:, None])
        self._offer(X, values, violations, valid, fitness)
        self.history.append(self.fit.copy())
        self.history_feasible.append(self.feasible.copy())
        return values, violations, valid, fitness

    def _offer(self, X, values, violations, valid, fitness) -> None:
        """Apply the incumbent rule to one generation of every run."""
        rows = self.rows
        best = np.where(valid & (violations <= 0.0), values, -math.inf)
        top = best.argmax(axis=1)
        settled = self.feasible.all()
        # The value a feasible candidate must beat: -inf while infeasible.
        found = best[rows, top] > (self.value if settled else
                                   np.where(self.feasible, self.value, -math.inf))
        if settled:
            # Only a better feasible candidate can replace a feasible
            # incumbent, and every feasible incumbent's violation is 0.
            if not found.any():
                return
            changed, pick = found, top
        else:
            j = fitness.argmax(axis=1)
            fitter = ~(self.feasible | found) & (fitness[rows, j] > self.fit)
            changed = found | fitter
            # A candidate fitter than the incumbent has fitness > -inf: it is valid.
            pick = np.where(found, top, j)
            self.violation = np.where(found, 0.0, np.where(fitter, violations[rows, pick],
                                                           self.violation))
        np.copyto(self.x, X[rows, pick], where=changed[:, None])
        self.value = np.where(changed, values[rows, pick], self.value)
        self.feasible |= found
        self.has_x |= changed
        self._rescore(changed)

    def _rescore(self, runs: np.ndarray) -> None:
        """Incumbent fitness of the masked runs; -inf without a finite value."""
        value = self.value[runs]
        self.fit[runs] = penalize(value, self.violation[runs], np.isfinite(value),
                                  self.coeff[runs])

    def double_penalties(self, gen: int, values, violations, valid, fitness):
        """On a doubling generation, double the coefficient of each run still
        infeasible, and return `fitness` with those runs' rows re-penalized."""
        if gen % self.config.penalty_double_every or self.feasible.all():
            return fitness
        due = ~self.feasible
        self.coeff = np.where(due, 2.0 * self.coeff, self.coeff)
        self._rescore(due)
        return np.where(due[:, None],
                        penalize(values, violations, valid, self.coeff[:, None]), fitness)

    def results(self, X: np.ndarray) -> list[RunResult]:
        """One result per run; the fallback x_best is the final row 0."""
        history = np.maximum.accumulate(self.history).T.copy()
        history_feasible = np.array(self.history_feasible).T.copy()
        x_best = np.where(self.has_x[:, None], self.x, X[:, 0])
        wall_time = time.perf_counter() - self.start
        return [RunResult(algorithm=self.config.algorithm, seed=seed, x_best=x_best[k],
                          best_value=float(self.value[k]), best_fitness=float(self.fit[k]),
                          best_violation=float(self.violation[k]),
                          feasible=bool(self.feasible[k]), history=history[k],
                          history_feasible=history_feasible[k],
                          evaluations=self.evals, wall_time_s=wall_time)
                for k, seed in enumerate(self.seeds)]


def _de_run(runs: _Runs, objective) -> list[RunResult]:
    """Differential evolution with greedy one-to-one selection, K runs in lockstep."""
    K, NP, rows = runs.K, runs.NP, runs.rows
    F, Pc = runs.config.F, runs.config.Pc

    # The population's columns are updated in place, so they own their arrays.
    X, values, violations, valid, fitness = (
        a.copy() for a in runs.initial_population(objective))

    n_aux = 2 if runs.config.algorithm == "de1" else 3
    for gen in range(1, runs.iters + 1):
        fitness = runs.double_penalties(gen, values, violations, valid, fitness)

        idx = np.empty((K, NP, n_aux), dtype=np.int64)
        R = np.empty((K, NP, 1))
        for k, rng in enumerate(runs.rngs):
            idx[k] = mutation_indices_reference(rng, NP, n_aux)
            R[k, :, 0] = rng.random(NP)
        picks = X[rows[:, None, None], idx]          # (K, NP, n_aux, d)
        if runs.config.algorithm == "de1":
            x_best = X[rows, np.argmax(fitness, axis=1)][:, None, :]
            donors = de_mutate_rand_to_best(X, x_best, picks[:, :, 0],
                                            picks[:, :, 1], F, R)
        else:
            donors = de_mutate_current_to_rand(X, picks[:, :, 0], picks[:, :, 1],
                                               picks[:, :, 2], F, R)
        crossed = np.stack([binomial_crossover(X[k], donors[k], Pc, runs.rngs[k])
                            for k in range(K)])
        trials = _reflect(crossed, runs.lower, runs.upper)

        t_values, t_violations, t_valid, t_fitness = runs.evaluate(objective, trials)
        improve = t_fitness >= fitness
        np.copyto(X, trials, where=improve[:, :, None])
        for column, trial in ((values, t_values), (violations, t_violations),
                              (valid, t_valid), (fitness, t_fitness)):
            np.copyto(column, trial, where=improve)

    return runs.results(X)


def _pso_run(runs: _Runs, objective) -> list[RunResult]:
    """Particle swarm with clamp-to-bound and velocity zeroing, K runs in lockstep."""
    K, NP, d, rows = runs.K, runs.NP, runs.d, runs.rows
    w, c1, c2 = runs.config.m0, runs.config.c1, runs.config.c2

    X, values, violations, valid, fitness = runs.initial_population(objective)
    V = np.zeros((K, NP, d))
    r = np.empty((K, 2, NP, d))
    # r1 then r2 per run: one (2, NP, d) draw is the same stream.
    draws = [(rng.random, r[k]) for k, rng in enumerate(runs.rngs)]

    # The personal bests are updated in place, so they own their arrays.
    pbest_X, pbest_values, pbest_violations, pbest_valid, pbest_fit = (
        a.copy() for a in (X, values, violations, valid, fitness))

    for gen in range(1, runs.iters + 1):
        pbest_fit = runs.double_penalties(gen, pbest_values, pbest_violations,
                                          pbest_valid, pbest_fit)

        gbest = pbest_X[rows, pbest_fit.argmax(axis=1)][:, None, :]
        for draw, out in draws:
            draw(out=out)
        X_new, V = pso_update(X, V, pbest_X, gbest, w, c1, c2, r[:, 0], r[:, 1])
        X = np.clip(X_new, runs.lower, runs.upper)
        # A clipped coordinate stops.  `!=` also stops a NaN coordinate,
        # which the bound tests would not; its next velocity and position
        # are NaN from the position alone, so nothing downstream differs.
        np.copyto(V, 0.0, where=X != X_new)

        values, violations, valid, fitness = runs.evaluate(objective, X)
        improve = fitness > pbest_fit
        np.copyto(pbest_X, X, where=improve[:, :, None])
        for best, new in ((pbest_values, values), (pbest_violations, violations),
                          (pbest_valid, valid), (pbest_fit, fitness)):
            np.copyto(best, new, where=improve)

    return runs.results(X)


def run_many_reference(spaces, config: OptimizerConfig, seeds, objective
                       ) -> list[RunResult]:
    """``optimize.run_many`` by the loops above."""
    runs = _Runs(spaces, config, seeds)
    return (_pso_run if config.algorithm == "pso" else _de_run)(runs, objective)
