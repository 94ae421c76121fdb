"""The model: closed-form terms of the two-echelon production/retail cycle.

Everything numeric lives here: effective production rates, cycle schedules,
exact inventory integrals, cost and emission terms, per-player profits and
the three carbon-policy objectives, written once, as the vectorised NumPy
function `evaluate_policy_batch_numpy` (the twin of the scalar kernel that
``tests/oracles.py`` keeps as the reference it is tested against).
Optimizer populations, sweeps and surfaces call it for values only; the
model layer calls it through `evaluate_terms` for the term table and a
status per row as well.

All cycle formulas route the ill-conditioned ``(e^x - 1 - x) / x**2`` style
terms through series-protected helpers, so they are uniformly accurate for
deterioration rates all the way down to the documented floor of 1e-10
(below the floor the explicit zero-deterioration limits are used).
"""

from __future__ import annotations

import numpy as np

# Recorded by perfbench/run.py in its environment block; there is no
# compiled backend, so it is always False.
NUMBA_ENABLED = False

# Deterioration rates below this floor switch to the analytic zero-rate limits.
THETA_FLOOR = 1e-10

# The twin's literals as 0-d arrays: NumPy takes a 0-d array operand about
# 190 ns faster than a Python float or a NumPy scalar, with the same bits.
_ZERO, _HALF, _INF, _NAN, _FLOOR, _PHI1_SMALL, _PHI2_SMALL = map(
    np.array, (0.0, 0.5, np.inf, np.nan, THETA_FLOOR, 1e-4, 1e-3))

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

# Policy identifiers; None evaluates no carbon policy.
POLICY_TAX = 0
POLICY_CAP_TRADE = 1
POLICY_LIMITED = 2

# Row statuses of evaluate_terms, in the order the rows are checked.
OK = 0
ERR_BAD_T0 = 1
ERR_BAD_INVESTMENT = 2
ERR_NEGATIVE_DEMAND = 3
ERR_ZERO_DEMAND = 4
ERR_NET_REPLENISHMENT = 5
ERR_BACKLOG = 6
ERR_OVERFLOW = 7    # passes every check, but a value, violation or term is not finite

STATUS_MESSAGES = {
    OK: "ok",
    ERR_BAD_T0: "nonpositive or infinite production time",
    ERR_BAD_INVESTMENT: "negative or infinite preservation or green investment",
    ERR_NEGATIVE_DEMAND: "negative demand",
    ERR_ZERO_DEMAND: "zero demand (retailer cycle never ends)",
    ERR_NET_REPLENISHMENT: "nonpositive net replenishment rate",
    ERR_BACKLOG: "backlog never clears",
    ERR_OVERFLOW: "floating-point overflow: the inputs are too extreme",
}

# The rows of the term table of evaluate_terms, in slot order.  This table
# is the only statement of the layout: the slot constants below and the
# model-layer dataclasses are generated from it.
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


def abatement(x, linear, scale, kappa):
    """Emission reduction ``x * linear - scale * x ** kappa`` bought by the
    investment x: rho_m and rho_r (the players' shares of G; l1, l2,
    kappa1) and rho_G (G itself; l3, l4, kappa2)."""
    return x * linear - scale * x ** kappa


class Operands(tuple):
    """The twin's prepared `p`: see `_prepare`."""


def slot_layout(vectors, n):
    """The twin's prepared operands for n rows in len(vectors) equal blocks,
    block k evaluated under the parameter vector ``vectors[k]``; built once
    per row count (`make_batch_objective`), they do the parameter-only
    arithmetic once, not per call.  A slot whose bits are equal in every
    vector is one 0-d array that the twin broadcasts, the others hold one
    value per row.  Compared by bits: NaN prices are shared, -0.0 and 0.0
    are not.
    """
    bits = vectors.view(np.int64)
    shared = (bits == bits[0]).all(axis=0).tolist()
    first = vectors[0].tolist()
    return _prepare([first[slot] if shared[slot]
                     else np.repeat(vectors[:, slot], n // len(vectors))
                     for slot in range(N_PARAMS)], n)


def _prepare(p, n):
    """`Operands` from a raw `p` of N_PARAMS slots for n rows: the slots the
    body reads and its parameter-only quantities, each computed once with
    the body's operations in its order and errstate scope (an overflow
    refuses rows, raising nothing).  Shared values compute as Python
    floats (NumPy's bits for +, - and *) and reach the body as 0-d views
    of one buffer, which divide by zero under the scope where a float
    raises; a buffer per value, on every model-layer call, fragments the
    heap.  The exponents are per-row: a 0-d 2.0, 0.5 or -1.0 takes a `**`
    fast path (square, sqrt, reciprocal) that a per-row one does not, so a
    row would depend on its batch.
    """
    # Unpacked by position, apart from PARAM_ORDER and the slot constants,
    # so that the layout is checked against the oracle's slot reads.
    (P, P_r, f_d, beta1, beta2, theta1, theta2, v1, v2, D_r, a, b, eta, W_m,
     C_p, C_r, C_g, C_op, C_or, i_c, h_p, h_d, h_r, d_cp, d_cd, d_cr, O_r,
     C_s, f_r, E_p, E_t, E_h1, E_h2, E_hr, E_d1, E_d2, E_dr, d1_km, l1, l2,
     l3, l4, kappa1, kappa2, omega, U1, U2, C_Tax, C_CT) = (
        p.tolist() if isinstance(p, np.ndarray) and p.ndim == 1 else p)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e_r2_k = E_dr * theta2
        ops = [P, P_r, theta1, theta2, D_r, a, b, eta, h_p, h_d, h_r, O_r, C_s,
               E_p, E_h1, E_h2, E_hr, l1, l2, l3, l4, omega, U1, U2, C_Tax, C_CT,
               (1.0 - f_d) * P + f_d * P * beta2 - (1.0 - f_d) * P * beta1,
               (1.0 - f_d) * P * beta1 + f_d * P - f_d * P * beta2,
               -v1, -v2, -eta, P * P_r, W_m * D_r, C_p * P, C_op + C_or,
               C_g * f_d * P * beta2, C_r * P_r, i_c * P,
               d_cp * theta1, d_cd * theta1, E_d1 * theta1, E_d2 * theta1,
               d1_km * E_t * D_r, d_cr * theta2, e_r2_k, E_hr + e_r2_k,
               1.0 - f_r, 1.0 - omega, np.full(n, kappa1), np.full(n, kappa2)]
    shared = [k for k, v in enumerate(ops) if not isinstance(v, np.ndarray)]
    buffer = np.array([ops[k] for k in shared], dtype=np.float64)
    for j, k in enumerate(shared):
        ops[k] = buffer[j, ...]
    return Operands(ops)


def _np_phi1(x, e):
    """phi1 = (e^x - 1) / x elementwise from e = expm1(x); the caller holds
    the errstate scope (the direct form divides by zero where the series
    is taken).  The series is computed only when some element needs it."""
    direct = e / x
    small = np.abs(x) < _PHI1_SMALL
    if not np.count_nonzero(small):
        return direct
    series = 1.0 + x * (0.5 + x * (1.0 / 6.0 + x * (1.0 / 24.0 + x / 120.0)))
    return np.where(small, series, direct)


def _np_phi2(x, e):
    """phi2 = (e^x - 1 - x) / x^2 elementwise from e = expm1(x); the caller
    holds the errstate scope.  The series is computed only when some
    element needs it."""
    direct = (e - x) / (x * x)
    small = np.abs(x) < _PHI2_SMALL
    if not np.count_nonzero(small):
        return direct
    series = 0.5 + x * (1.0 / 6.0 + x * (1.0 / 24.0 + x * (1.0 / 120.0 + x / 720.0)))
    return np.where(small, series, direct)


def evaluate_terms(policy_id, X, p):
    """The twin with its term output: the model layer's entry.

    Returns (values, violations, valid, status, terms, phi_m, phi_r); see
    `evaluate_policy_batch_numpy`.
    """
    return evaluate_policy_batch_numpy(policy_id, X, p, terms=True)


def evaluate_policy_batch_numpy(policy_id, X, p, terms=False):
    """Evaluate a population X (n, 5) under one policy, vectorised.

    Returns (values, violations, valid); invalid rows carry NaN.  `p` is
    `slot_layout`'s `Operands`, or raw parameters in slot order that the
    call prepares: a vector, an (N_PARAMS, n) matrix, or a sequence of
    scalars and (n,) arrays.  `policy_id` None evaluates no carbon policy:
    the values are the base joint profits phi_T, with no violation.

    With `terms` (the model layer's `evaluate_terms`; the optimizers do
    not ask for it) it also returns the per-row status, the (N_TERMS, n)
    term table in TERM_NAMES order, and the policy's phi_m and phi_r rows.
    The status is the first failed check in the order ERR_BAD_T0 ..
    ERR_BACKLOG (ERR_OVERFLOW where the manufacturer's cycle, which comes
    before the retailer's checks, or the backlog is not finite), else
    ERR_OVERFLOW where the value, the violation or any term is not finite,
    else OK; valid is status == OK.  The table and the phi rows of a row
    whose status is not OK are not to be trusted.  Without terms, valid
    refuses the same rows wherever a non-finite term makes the value or
    the violation non-finite.

    At optimizer sizes (50-250 rows) the cost is the number of NumPy calls,
    not the rows, so the body makes as few as it can: one errstate scope,
    each echelon's three phi arguments in one (3, n) array whose expm1
    serves both phi1 and phi2 (the series only when some argument needs
    it), the zero-deterioration limits only when some row is below
    THETA_FLOOR, and only the emission reductions the policy reads.  It
    reads only prepared operands: the parameter-only products are computed
    once per layout, and every shared slot and literal is a 0-d array,
    which NumPy takes faster than a scalar.  Large batches (the CLI's
    ``surface`` passes blocks of about 8k rows) reuse memory: the
    retailer's phi arguments are written over the manufacturer's (3, n)
    arrays.  The terms are the expressions the values are computed from,
    so asking for them changes no value.  Every expression keeps its
    association, and each row's result does not depend on the other rows
    of the batch.
    """
    X = np.asarray(X, dtype=np.float64)
    T0 = X[:, 0]
    xi1 = X[:, 1]
    xi2 = X[:, 2]
    G = X[:, 3]
    W_r = X[:, 4]

    if type(p) is not Operands:
        p = _prepare(p, len(T0))
    # The operands in `_prepare` order; a *_k is the coefficient of its term.
    (P, P_r, theta1, theta2, D_r, a, b, eta, h_p, h_d, h_r, O_r, C_s, E_p, E_h1,
     E_h2, E_hr, l1, l2, l3, l4, omega, U1, U2, C_Tax, C_CT, P_e, P_de, minus_v1,
     minus_v2, minus_eta, PP_r, shipped_k, PC_m_k, StC_m, PeC_m_k, RC_m_k,
     ScC_m_k, DC_m1_k, DC_m2_k, e_m4_k, e_m5_k, e_m6_k, DC_r_k, e_r2_k,
     CarC_r_k, keep_r, share_r, kappa1, kappa2) = p

    # Every row computes from its own inputs: refused and extreme rows run
    # the same arithmetic under this one scope, which silences their NaN,
    # division and overflow noise, and are masked at the end.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        fW = a - b * W_r
        # Each investment in [0, inf): NaN propagates through np.minimum
        # and np.maximum and fails both tests.
        invested = (np.minimum(np.minimum(xi1, xi2), G) >= _ZERO) \
            & (np.maximum(np.maximum(xi1, xi2), G) < _INF)
        valid = (T0 > _ZERO) & (fW > _ZERO) & invested

        theta_m = theta1 * np.exp(minus_v1 * xi1)
        theta_r = theta2 * np.exp(minus_v2 * xi2)

        small = theta_m < _FLOOR
        limits = np.count_nonzero(small)
        # theta_m * (-T0, dm1, dm2): the phi arguments -x0, x1 and x2, with
        # one expm1 each.  Rows below the floor take the limits instead.
        x = np.empty((3, len(T0)))
        e = np.empty_like(x)
        np.multiply(theta_m, -T0, out=x[0])
        np.expm1(x[0], out=e[0])
        u = -e[0]
        # T1 = T0 + log1p(P_de u / P_r) / theta_m; Q_m is the regrouping
        # of (P_r/theta_m)(1 + (P_e u - P_r)/(P_de u + P_r)) that does not
        # cancel for small theta_m.
        T1 = T0 + np.log1p(P_de * u / P_r) / theta_m
        Q_m = PP_r * u / (theta_m * (P_de * u + P_r))
        T2 = T1 + np.log1p(Q_m * theta_m / D_r) / theta_m
        if limits:
            T1_l = T0 * (1.0 + P_de / P_r)
            Qm_l = P * T0
            T2 = np.where(small, T1_l + Qm_l / D_r, T2)
            T1 = np.where(small, T1_l, T1)
            Q_m = np.where(small, Qm_l, Q_m)

        dm1 = T1 - T0
        dm2 = T2 - T1
        np.multiply(theta_m, dm1, out=x[1])
        np.multiply(theta_m, dm2, out=x[2])
        np.expm1(x[1:], out=e[1:])
        phi2_0, phi2_1, phi2_2 = _np_phi2(x, e)
        rework = P_r * dm1 * dm1 * phi2_1
        int_I = P_e * T0 * T0 * phi2_0 + Q_m * dm1 * _np_phi1(x[1], e[1]) - rework \
            + D_r * dm2 * dm2 * phi2_2
        int_Id = P_de * T0 * T0 * phi2_0 + rework
        if limits:
            int_I = np.where(small, 0.5 * P_e * T0 * T0 + P_e * T0 * dm1
                             + 0.5 * P_r * dm1 * dm1 + 0.5 * D_r * dm2 * dm2, int_I)
            int_Id = np.where(small, 0.5 * P_de * T0 * T0
                              + 0.5 * P_r * dm1 * dm1, int_Id)

        B1 = eta + theta_r
        B2 = D_r - fW
        s = fW * T1
        replenished = B2 > _ZERO
        clears = B2 - s * eta > _ZERO
        valid &= replenished & clears
        T11 = T1 + np.log1p(-s * eta / B2) / eta
        d0 = T11 - T1
        dA = T2 - T11
        # (-eta d0, -B1 dA, B1 dB), with -B1 dA = B1 (T11 - T2), and their
        # expm1: written over the manufacturer's spent x and e.  The
        # [T1, T11] piece is signed: T11 < T1 is admitted as printed.
        y = x
        np.multiply(minus_eta, d0, out=y[0])
        np.multiply(-B1, dA, out=y[1])
        np.expm1(y[:2], out=e[:2])
        Q_r = -(B2 / B1) * e[1]
        T3 = T2 + np.log1p(B1 * Q_r / fW) / B1
        dB = T3 - T2
        np.multiply(B1, dB, out=y[2])
        np.expm1(y[2], out=e[2])
        q = -e[0] / eta
        phi2_0, phi2_1, phi2_2 = _np_phi2(y, e)
        piece1 = B2 * d0 * d0 * phi2_0 + s * q
        piece2 = B2 * dA * dA * phi2_1
        piece3 = fW * dB * dB * phi2_2
        int_r = piece2 + piece3
        int_r_sr = piece1 + piece2 + piece3

        # The manufacturer's sales are the retailer's purchases.
        shipped = shipped_k * dm2
        PC_m = PC_m_k * T0
        PeC_m = PeC_m_k * T0
        RC_m = RC_m_k * dm1
        PreC_m = xi1 * T2
        ScC_m = ScC_m_k * T0
        HC_m1 = h_p * int_I
        HC_m2 = h_d * int_Id
        DC_m1 = DC_m1_k * int_I
        DC_m2 = DC_m2_k * int_Id
        e_m1 = Q_m * E_p
        e_m2 = E_h1 * int_I
        e_m3 = E_h2 * int_Id
        e_m4 = e_m4_k * int_I
        e_m5 = e_m5_k * int_Id
        e_m6 = e_m6_k * dm2
        CarC_m = e_m1 + e_m2 + e_m3 + e_m4 + e_m5 + e_m6

        SR_r = W_r * (fW * (T3 - T1) + eta * int_r_sr)
        HC_r = h_r * int_r
        DC_r = DC_r_k * int_r
        PreC_r = xi2 * T2
        SC_r = _HALF * s * T1 * C_s
        CarC_r = CarC_r_k * int_r

        phi_m = (shipped - (PC_m + StC_m + PeC_m + RC_m + PreC_m + ScC_m
                            + HC_m1 + HC_m2 + DC_m1 + DC_m2)) / T2
        phi_r_raw = (SR_r - (HC_r + DC_r + shipped + O_r + PreC_r + SC_r)) / T3

        # A valid row has G >= 0, so the powers below need no guard: rows
        # with G < 0 are overwritten with NaN at the end.
        if policy_id is None or policy_id == POLICY_LIMITED:
            phi_m_pol = phi_m
            phi_r_pol = keep_r * phi_r_raw
            values = phi_m + phi_r_pol
            violations = _ZERO
            if policy_id == POLICY_LIMITED:
                values = values - G
                violations = np.maximum(CarC_m + CarC_r - abatement(G, l3, l4, kappa2)
                                        - U2, _ZERO)
        else:
            gm = omega * G
            gr = share_r * G
            rho_m = abatement(gm, l1, l2, kappa1)
            rho_r = abatement(gr, l1, l2, kappa1)
            if policy_id == POLICY_TAX:
                charge_m = C_Tax * (CarC_m - rho_m)
                charge_r = C_Tax * (CarC_r - rho_r)
            else:
                charge_m = C_CT * (CarC_m - rho_m - U1)
                charge_r = C_CT * (CarC_r - rho_r - U1)
            phi_m_pol = phi_m - (charge_m + gm * T2) / T2
            phi_r_pol = keep_r * (phi_r_raw - (charge_r + gr * (T3 - T11)) / T3)
            values = phi_m_pol + phi_r_pol
            violations = _ZERO

        if terms:
            phi_r = keep_r * phi_r_raw
            table = np.empty((N_TERMS, len(T0)))
            for slot, row in enumerate((
                    T1, T2, Q_m, theta_m, theta_r, s, T11, Q_r, T3,
                    B1, B2, fW, int_I, int_Id, int_r, int_r_sr,
                    shipped, PC_m, StC_m, PeC_m, RC_m, PreC_m, ScC_m,
                    HC_m1, HC_m2, DC_m1, DC_m2,
                    e_m1, e_m2, e_m3, e_m4, e_m5, e_m6, CarC_m,
                    SR_r, HC_r, DC_r, shipped, O_r, PreC_r, SC_r,
                    E_hr * int_r, e_r2_k * int_r, CarC_r,
                    phi_m, phi_r_raw, phi_r, phi_m + phi_r, P_e, P_de)):
                table[slot] = row
            # The first failed check.  The manufacturer's cycle and its
            # integrals come before the retailer's checks, and s eta is
            # what the backlog check reads: where those are not finite the
            # row fails with ERR_OVERFLOW there.
            status = np.select(
                [~((T0 > _ZERO) & (T0 < _INF)), ~invested, ~(fW >= _ZERO), fW == _ZERO,
                 ~np.isfinite([T1, T2, Q_m, int_I, int_Id]).all(axis=0),
                 ~replenished, ~np.isfinite(s * eta), ~clears],
                [ERR_BAD_T0, ERR_BAD_INVESTMENT, ERR_NEGATIVE_DEMAND, ERR_ZERO_DEMAND,
                 ERR_OVERFLOW, ERR_NET_REPLENISHMENT, ERR_OVERFLOW, ERR_BACKLOG], OK)

    # inf or NaN is no answer: refused with ERR_OVERFLOW.
    finite = np.isfinite(values) & np.isfinite(violations)
    if not terms:
        valid &= finite
        return np.where(valid, values, _NAN), np.where(valid, violations, _NAN), valid
    status[(status == OK) & ~(finite & np.isfinite(table).all(axis=0))] = ERR_OVERFLOW
    valid = status == OK
    return (np.where(valid, values, _NAN), np.where(valid, violations, _NAN), valid,
            status, table, phi_m_pol, phi_r_pol)
