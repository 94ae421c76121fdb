"""Scalar closed-form kernels for the two-echelon production/retail cycle.

Everything numeric lives here: effective production rates, cycle schedules,
inventory trajectories and their exact integrals, cost and emission terms,
per-player profits and the three carbon-policy objectives.  The scalar
functions are plain Python math and serve single evaluations (the model
layer, calibration, the ANFIS dataset).  Optimizer populations and surfaces
go through `evaluate_policy_batch_numpy`, a separately implemented
vectorised twin of the batch objective; ``tests/test_kernels.py`` pins the
two against each other.

All cycle formulas route the ill-conditioned ``(e^x - 1 - x) / x**2`` style
terms through series-protected helpers, so they are uniformly accurate for
deterioration rates all the way down to the documented floor of 1e-10
(below the floor the explicit zero-deterioration limits are used).
"""

from __future__ import annotations

import math

import numpy as np

# Recorded by perfbench/run.py in its environment block; there is no
# compiled backend, so it is always False.
NUMBA_ENABLED = False

# Deterioration rates below this floor switch to the analytic zero-rate limits.
THETA_FLOOR = 1e-10

# The parameter vector, in slot order.  This tuple is the only ordered list
# of the parameter names: the slot constants below and the ModelParameters
# fields are generated from it, and ModelParameters packs in this order.
PARAM_ORDER = (
    "P", "P_r", "f_d", "beta1", "beta2",
    "theta1", "theta2", "v1", "v2",
    "D_r", "a", "b", "eta",
    "W_m", "C_p", "C_r", "C_g", "C_op", "C_or", "i_c",
    "h_p", "h_d", "h_r", "d_cp", "d_cd", "d_cr",
    "O_r", "C_s", "f_r",
    "E_p", "E_t", "E_h1", "E_h2", "E_hr", "E_d1", "E_d2", "E_dr",
    "d1",
    "l1", "l2", "l3", "l4", "kappa1", "kappa2", "omega",
    "U1", "U2", "C_Tax", "C_CT",
)
N_PARAMS = len(PARAM_ORDER)

# Slot constants P_<NAME> (e.g. P_P_R for "P_r"), made like the T_* term
# slots below.
globals().update({"P_" + name.upper(): slot
                  for slot, name in enumerate(PARAM_ORDER)})

# Policy identifiers.
POLICY_TAX = 0
POLICY_CAP_TRADE = 1
POLICY_LIMITED = 2

# Status codes returned by evaluate_terms.
OK = 0
ERR_BAD_T0 = 1
ERR_BAD_INVESTMENT = 2
ERR_NEGATIVE_DEMAND = 3
ERR_ZERO_DEMAND = 4
ERR_NET_REPLENISHMENT = 5
ERR_BACKLOG = 6

STATUS_MESSAGES = {
    OK: "ok",
    ERR_BAD_T0: "nonpositive production time",
    ERR_BAD_INVESTMENT: "negative preservation or green investment",
    ERR_NEGATIVE_DEMAND: "negative demand",
    ERR_ZERO_DEMAND: "zero demand (retailer cycle never ends)",
    ERR_NET_REPLENISHMENT: "nonpositive net replenishment rate",
    ERR_BACKLOG: "backlog never clears",
}

# The term vector filled by evaluate_terms, in slot order.  This table is the
# only statement of the layout: the slot constants below and the model-layer
# dataclasses are generated from it.
TERM_NAMES = (
    "T1", "T2", "Q_m", "theta_m", "theta_r", "s", "T11", "Q_r", "T3",
    "B1", "B2", "f_Wr", "int_I", "int_Id", "int_r", "int_r_sr",
    "SR_m", "PC_m", "StC_m", "PeC_m", "RC_m", "PreC_m", "ScC_m",
    "HC_m1", "HC_m2", "DC_m1", "DC_m2",
    "e_m1", "e_m2", "e_m3", "e_m4", "e_m5", "e_m6", "CarC_m",
    "SR_r", "HC_r", "DC_r", "PC_r", "OC_r", "PreC_r", "SC_r",
    "e_r1", "e_r2", "CarC_r",
    "phi_m", "phi_r_raw", "phi_r", "phi_T", "P_e", "P_de",
)
N_TERMS = len(TERM_NAMES)

# Slot constants T_<NAME> (e.g. T_Q_M for "Q_m"), plain module-level ints.
globals().update({"T_" + name.upper(): slot
                  for slot, name in enumerate(TERM_NAMES)})


def phi1(x):
    """(e^x - 1) / x, series-protected near zero."""
    if abs(x) < 1e-4:
        return 1.0 + x * (0.5 + x * (1.0 / 6.0 + x * (1.0 / 24.0 + x / 120.0)))
    return math.expm1(x) / x


def phi2(x):
    """(e^x - 1 - x) / x^2, series-protected near zero."""
    if abs(x) < 1e-3:
        return 0.5 + x * (1.0 / 6.0 + x * (1.0 / 24.0 + x * (1.0 / 120.0 + x / 720.0)))
    return (math.expm1(x) - x) / (x * x)


def effective_rates(P, f_d, beta1, beta2):
    """Perfect / defective effective production rates; they sum to P."""
    P_e = (1.0 - f_d) * P + f_d * P * beta2 - (1.0 - f_d) * P * beta1
    P_de = (1.0 - f_d) * P * beta1 + f_d * P - f_d * P * beta2
    return P_e, P_de


def preserved_rate(theta_base, v, xi):
    """Deterioration rate after a preservation investment xi at efficiency v."""
    return theta_base * math.exp(-v * xi)


def manufacturer_cycle(P, P_e, P_de, P_r, D_r, theta_m, T0):
    """Rework-end time T1, cycle-end time T2 and lot size Q_m.

    Below THETA_FLOOR the zero-deterioration limits apply:
    T1 = T0(1 + P_de/P_r), Q_m = P*T0, T2 = T1 + Q_m/D_r.
    """
    if theta_m < THETA_FLOOR:
        T1 = T0 * (1.0 + P_de / P_r)
        Q_m = P * T0
        T2 = T1 + Q_m / D_r
    else:
        u = -math.expm1(-theta_m * T0)
        T1 = T0 + math.log1p(P_de * u / P_r) / theta_m
        # algebraically identical to (P_r/th)*(1 + (P_e*u - P_r)/(P_de*u + P_r))
        # but free of the cancellation that form suffers for small theta_m
        Q_m = P * P_r * u / (theta_m * (P_de * u + P_r))
        T2 = T1 + math.log1p(Q_m * theta_m / D_r) / theta_m
    return T1, T2, Q_m


def manufacturer_integrals(P_e, P_de, P_r, D_r, Q_m, theta_m, T0, T1, T2):
    """Exact integrals of the perfect and defective stock over their cycles."""
    d1 = T1 - T0
    d2 = T2 - T1
    if theta_m < THETA_FLOOR:
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
    if theta_m < THETA_FLOOR:
        if t <= T0:
            return P_e * t
        if t <= T1:
            return P_e * T0 + P_r * (t - T0)
        return D_r * (T2 - t)
    if t <= T0:
        return -(P_e / theta_m) * math.expm1(-theta_m * t)
    if t <= T1:
        # stable regrouping of P_r/th + (Q_m - P_r/th) e^{th (T1-t)}
        x = theta_m * (T1 - t)
        return Q_m * math.exp(x) - P_r * math.expm1(x) / theta_m
    return (D_r / theta_m) * math.expm1(theta_m * (T2 - t))


def defective_stock(t, P_de, P_r, theta_m, T0, T1):
    """Defective-stock level I_d(t) on [0, T1]."""
    if theta_m < THETA_FLOOR:
        if t <= T0:
            return P_de * t
        return P_r * (T1 - t)
    if t <= T0:
        return -(P_de / theta_m) * math.expm1(-theta_m * t)
    return (P_r / theta_m) * math.expm1(theta_m * (T1 - t))


def retailer_cycle(fW, D_r, eta, theta_r, T1, T2):
    """Backlog s, clearing time T11, stock peak Q_r and cycle end T3.

    Requires fW > 0 and B2 - s*eta > 0; callers guard the domain.
    """
    B1 = eta + theta_r
    B2 = D_r - fW
    s = fW * T1
    T11 = T1 + math.log1p(-s * eta / B2) / eta
    Q_r = -(B2 / B1) * math.expm1(B1 * (T11 - T2))
    T3 = T2 + math.log1p(B1 * Q_r / fW) / B1
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
    q = -math.expm1(-eta * d0) / eta
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
        return s * math.exp(x) - B2 * math.expm1(x) / eta
    if t <= T2:
        return -(B2 / B1) * math.expm1(B1 * (T11 - t))
    return (fW / B1) * math.expm1(B1 * (T3 - t))


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
    if not (T0 > 0.0):
        return ERR_BAD_T0
    if not (xi1 >= 0.0 and xi2 >= 0.0 and G >= 0.0):
        return ERR_BAD_INVESTMENT

    P = p[P_P]
    P_r = p[P_P_R]
    f_d = p[P_F_D]
    beta1 = p[P_BETA1]
    beta2 = p[P_BETA2]
    theta1 = p[P_THETA1]
    theta2 = p[P_THETA2]
    v1 = p[P_V1]
    v2 = p[P_V2]
    D_r = p[P_D_R]
    a = p[P_A]
    b = p[P_B]
    eta = p[P_ETA]
    W_m = p[P_W_M]
    C_p = p[P_C_P]
    C_r = p[P_C_R]
    C_g = p[P_C_G]
    C_op = p[P_C_OP]
    C_or = p[P_C_OR]
    i_c = p[P_I_C]
    h_p = p[P_H_P]
    h_d = p[P_H_D]
    h_r = p[P_H_R]
    d_cp = p[P_D_CP]
    d_cd = p[P_D_CD]
    d_cr = p[P_D_CR]
    O_r = p[P_O_R]
    C_s = p[P_C_S]
    f_r = p[P_F_R]
    E_p = p[P_E_P]
    E_t = p[P_E_T]
    E_h1 = p[P_E_H1]
    E_h2 = p[P_E_H2]
    E_hr = p[P_E_HR]
    E_d1 = p[P_E_D1]
    E_d2 = p[P_E_D2]
    E_dr = p[P_E_DR]
    d1_km = p[P_D1]

    fW = a - b * W_r
    if not (fW >= 0.0):
        return ERR_NEGATIVE_DEMAND
    if fW == 0.0:
        return ERR_ZERO_DEMAND

    P_e, P_de = effective_rates(P, f_d, beta1, beta2)
    theta_m = preserved_rate(theta1, v1, xi1)
    theta_r = preserved_rate(theta2, v2, xi2)

    T1, T2, Q_m = manufacturer_cycle(P, P_e, P_de, P_r, D_r, theta_m, T0)
    int_I, int_Id = manufacturer_integrals(
        P_e, P_de, P_r, D_r, Q_m, theta_m, T0, T1, T2)

    B2 = D_r - fW
    if not (B2 > 0.0):
        return ERR_NET_REPLENISHMENT
    s = fW * T1
    if not (B2 - s * eta > 0.0):
        return ERR_BACKLOG
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

    out[T_T1] = T1
    out[T_T2] = T2
    out[T_Q_M] = Q_m
    out[T_THETA_M] = theta_m
    out[T_THETA_R] = theta_r
    out[T_S] = s
    out[T_T11] = T11
    out[T_Q_R] = Q_r
    out[T_T3] = T3
    out[T_B1] = B1
    out[T_B2] = B2
    out[T_F_WR] = fW
    out[T_INT_I] = int_I
    out[T_INT_ID] = int_Id
    out[T_INT_R] = int_r
    out[T_INT_R_SR] = int_r_sr
    out[T_SR_M] = SR_m
    out[T_PC_M] = PC_m
    out[T_STC_M] = StC_m
    out[T_PEC_M] = PeC_m
    out[T_RC_M] = RC_m
    out[T_PREC_M] = PreC_m
    out[T_SCC_M] = ScC_m
    out[T_HC_M1] = HC_m1
    out[T_HC_M2] = HC_m2
    out[T_DC_M1] = DC_m1
    out[T_DC_M2] = DC_m2
    out[T_E_M1] = e_m1
    out[T_E_M2] = e_m2
    out[T_E_M3] = e_m3
    out[T_E_M4] = e_m4
    out[T_E_M5] = e_m5
    out[T_E_M6] = e_m6
    out[T_CARC_M] = CarC_m
    out[T_SR_R] = SR_r
    out[T_HC_R] = HC_r
    out[T_DC_R] = DC_r
    out[T_PC_R] = PC_r
    out[T_OC_R] = OC_r
    out[T_PREC_R] = PreC_r
    out[T_SC_R] = SC_r
    out[T_E_R1] = e_r1
    out[T_E_R2] = e_r2
    out[T_CARC_R] = CarC_r
    out[T_PHI_M] = phi_m
    out[T_PHI_R_RAW] = phi_r_raw
    out[T_PHI_R] = phi_r
    out[T_PHI_T] = phi_m + phi_r
    out[T_P_E] = P_e
    out[T_P_DE] = P_de
    return OK


def policy_value_from_terms(policy_id, G, p, terms):
    """Compose (value, phi_m, phi_r, violation) for one policy from terms."""
    f_r = p[P_F_R]
    l1 = p[P_L1]
    l2 = p[P_L2]
    l3 = p[P_L3]
    l4 = p[P_L4]
    kappa1 = p[P_KAPPA1]
    kappa2 = p[P_KAPPA2]
    omega = p[P_OMEGA]
    U1 = p[P_U1]
    U2 = p[P_U2]
    C_Tax = p[P_C_TAX]
    C_CT = p[P_C_CT]

    rho_m, rho_r, rho_G = green_reduction_terms(
        G, omega, l1, l2, kappa1, l3, l4, kappa2)
    T2 = terms[T_T2]
    T3 = terms[T_T3]
    T11 = terms[T_T11]
    CarC_m = terms[T_CARC_M]
    CarC_r = terms[T_CARC_R]

    if policy_id == POLICY_LIMITED:
        phi_m = terms[T_PHI_M]
        phi_r = terms[T_PHI_R]
        value = phi_m + phi_r - G
        excess = CarC_m + CarC_r - rho_G - U2
        violation = excess if excess > 0.0 else 0.0
        return value, phi_m, phi_r, violation

    if policy_id == POLICY_TAX:
        charge_m = C_Tax * (CarC_m - rho_m)
        charge_r = C_Tax * (CarC_r - rho_r)
    else:
        charge_m = C_CT * (CarC_m - rho_m - U1)
        charge_r = C_CT * (CarC_r - rho_r - U1)

    phi_m = terms[T_PHI_M] - (charge_m + omega * G * T2) / T2
    phi_r_raw = terms[T_PHI_R_RAW] \
        - (charge_r + (1.0 - omega) * G * (T3 - T11)) / T3
    phi_r = (1.0 - f_r) * phi_r_raw
    return phi_m + phi_r, phi_m, phi_r, 0.0


def _np_phi1(x):
    small = np.abs(x) < 1e-4
    xs = np.where(small, 0.0, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = np.where(small, 1.0, np.expm1(xs) / np.where(small, 1.0, xs))
    series = 1.0 + x * (0.5 + x * (1.0 / 6.0 + x * (1.0 / 24.0 + x / 120.0)))
    return np.where(small, series, direct)


def _np_phi2(x):
    small = np.abs(x) < 1e-3
    xs = np.where(small, 1.0, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = (np.expm1(xs) - xs) / (xs * xs)
    series = 0.5 + x * (1.0 / 6.0 + x * (1.0 / 24.0 + x * (1.0 / 120.0 + x / 720.0)))
    return np.where(small, series, direct)


def evaluate_policy_batch_numpy(policy_id, X, p):
    """Evaluate a population X (n, 5) under one policy, vectorised.

    Returns (values, violations, valid); invalid rows carry NaN.  `p` is one
    parameter vector, or an (N_PARAMS, n) matrix with one column per row.
    Written independently of the scalar kernels, which it is tested against.
    """
    X = np.asarray(X, dtype=np.float64)
    T0 = X[:, 0]
    xi1 = X[:, 1]
    xi2 = X[:, 2]
    G = X[:, 3]
    W_r = X[:, 4]

    # Unpacked by position, apart from PARAM_ORDER and the slot constants,
    # so that this twin stays an independent check of the layout.
    (P, P_r, f_d, beta1, beta2, theta1, theta2, v1, v2, D_r, a, b, eta, W_m,
     C_p, C_r, C_g, C_op, C_or, i_c, h_p, h_d, h_r, d_cp, d_cd, d_cr, O_r,
     C_s, f_r, E_p, E_t, E_h1, E_h2, E_hr, E_d1, E_d2, E_dr, d1_km, l1, l2,
     l3, l4, kappa1, kappa2, omega, U1, U2, C_Tax, C_CT) = p

    fW = a - b * W_r
    valid = (T0 > 0.0) & (xi1 >= 0.0) & (xi2 >= 0.0) & (G >= 0.0) & (fW > 0.0)

    # Placeholders keep the arithmetic finite on rows already known invalid.
    T0s = np.where(valid, T0, 1.0)
    fWs = np.where(valid, fW, 1.0)

    P_e = (1.0 - f_d) * P + f_d * P * beta2 - (1.0 - f_d) * P * beta1
    P_de = (1.0 - f_d) * P * beta1 + f_d * P - f_d * P * beta2
    theta_m = theta1 * np.exp(-v1 * np.where(valid, xi1, 0.0))
    theta_r = theta2 * np.exp(-v2 * np.where(valid, xi2, 0.0))

    small = theta_m < THETA_FLOOR
    th = np.where(small, 1.0, theta_m)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = -np.expm1(-th * T0s)
        T1_g = T0s + np.log1p(P_de * u / P_r) / th
        Qm_g = P * P_r * u / (th * (P_de * u + P_r))
        T2_g = T1_g + np.log1p(Qm_g * th / D_r) / th
    T1_l = T0s * (1.0 + P_de / P_r)
    Qm_l = P * T0s
    T2_l = T1_l + Qm_l / D_r
    T1 = np.where(small, T1_l, T1_g)
    Q_m = np.where(small, Qm_l, Qm_g)
    T2 = np.where(small, T2_l, T2_g)

    dm1 = T1 - T0s
    dm2 = T2 - T1
    x0 = theta_m * T0s
    x1 = theta_m * dm1
    x2 = theta_m * dm2
    int_I_g = P_e * T0s * T0s * _np_phi2(-x0) \
        + Q_m * dm1 * _np_phi1(x1) - P_r * dm1 * dm1 * _np_phi2(x1) \
        + D_r * dm2 * dm2 * _np_phi2(x2)
    int_Id_g = P_de * T0s * T0s * _np_phi2(-x0) + P_r * dm1 * dm1 * _np_phi2(x1)
    int_I_l = 0.5 * P_e * T0s * T0s + P_e * T0s * dm1 + 0.5 * P_r * dm1 * dm1 \
        + 0.5 * D_r * dm2 * dm2
    int_Id_l = 0.5 * P_de * T0s * T0s + 0.5 * P_r * dm1 * dm1
    int_I = np.where(small, int_I_l, int_I_g)
    int_Id = np.where(small, int_Id_l, int_Id_g)

    B1 = eta + theta_r
    B2 = D_r - fWs
    s = fWs * T1
    valid &= (B2 > 0.0) & (B2 - s * eta > 0.0)
    B2s = np.where(valid, B2, 1.0)
    ss = np.where(valid, s, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        T11 = T1 + np.log1p(-ss * eta / B2s) / eta
        Q_r = -(B2s / B1) * np.expm1(B1 * (T11 - T2))
        T3 = T2 + np.log1p(B1 * Q_r / fWs) / B1
    dA = T2 - T11
    dB = T3 - T2
    d0 = T11 - T1
    q = -np.expm1(-eta * d0) / eta
    piece1 = B2s * d0 * d0 * _np_phi2(-eta * d0) + ss * q
    piece2 = B2s * dA * dA * _np_phi2(-B1 * dA)
    piece3 = fWs * dB * dB * _np_phi2(B1 * dB)
    int_r = piece2 + piece3
    int_r_sr = piece1 + piece2 + piece3

    SR_m = W_m * D_r * dm2
    PC_m = C_p * P * T0s
    StC_m = C_op + C_or
    PeC_m = C_g * f_d * P * beta2 * T0s
    RC_m = C_r * P_r * dm1
    PreC_m = xi1 * T2
    ScC_m = i_c * P * T0s
    HC_m1 = h_p * int_I
    HC_m2 = h_d * int_Id
    DC_m1 = d_cp * theta1 * int_I
    DC_m2 = d_cd * theta1 * int_Id
    CarC_m = Q_m * E_p + E_h1 * int_I + E_h2 * int_Id \
        + E_d1 * theta1 * int_I + E_d2 * theta1 * int_Id \
        + d1_km * E_t * D_r * dm2

    SR_r = W_r * (fWs * (T3 - T1) + eta * int_r_sr)
    HC_r = h_r * int_r
    DC_r = d_cr * theta2 * int_r
    PC_r = W_m * D_r * dm2
    PreC_r = xi2 * T2
    SC_r = 0.5 * ss * T1 * C_s
    CarC_r = (E_hr + E_dr * theta2) * int_r

    phi_m = (SR_m - (PC_m + StC_m + PeC_m + RC_m + PreC_m + ScC_m
                     + HC_m1 + HC_m2 + DC_m1 + DC_m2)) / T2
    phi_r_raw = (SR_r - (HC_r + DC_r + PC_r + O_r + PreC_r + SC_r)) / T3
    phi_r = (1.0 - f_r) * phi_r_raw

    gm = omega * G
    gr = (1.0 - omega) * G
    with np.errstate(invalid="ignore"):
        rho_m = gm * l1 - l2 * np.where(G >= 0.0, gm, 0.0) ** kappa1
        rho_r = gr * l1 - l2 * np.where(G >= 0.0, gr, 0.0) ** kappa1
        rho_G = G * l3 - l4 * np.where(G >= 0.0, G, 0.0) ** kappa2

    if policy_id == POLICY_LIMITED:
        values = phi_m + phi_r - G
        violations = np.maximum(CarC_m + CarC_r - rho_G - U2, 0.0)
    else:
        if policy_id == POLICY_TAX:
            charge_m = C_Tax * (CarC_m - rho_m)
            charge_r = C_Tax * (CarC_r - rho_r)
        else:
            charge_m = C_CT * (CarC_m - rho_m - U1)
            charge_r = C_CT * (CarC_r - rho_r - U1)
        phi_m_pol = phi_m - (charge_m + omega * G * T2) / T2
        phi_r_pol = (1.0 - f_r) * (phi_r_raw
                                   - (charge_r + (1.0 - omega) * G * (T3 - T11)) / T3)
        values = phi_m_pol + phi_r_pol
        violations = np.zeros_like(values)

    values = np.where(valid, values, np.nan)
    violations = np.where(valid, violations, np.nan)
    return values, violations, valid
