import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenchain import (DecisionVector, DomainError, ModelParameters,
                        compute_schedule, evaluate_policy)
from greenchain import kernels as K
from greenchain.model import refusing_overflow
from greenchain.params import TABLE_DEFAULTS
from greenchain.policy import POLICY_IDS, make_batch_objective
from conftest import sample_admissible
import oracles as O
from oracles import evaluate_policy_batch


def _random_batch(rng, n):
    X = np.column_stack([
        rng.uniform(1e-3, 2.0, n),
        rng.uniform(0.0, 500.0, n),
        rng.uniform(0.0, 500.0, n),
        rng.uniform(0.01, 50.0, n),
        rng.uniform(80.0, 305.0, n),   # extends past a/b: some invalid rows
    ])
    X[::31, 0] = -0.5
    X[::47, 1] = -1.0
    return X


@pytest.mark.parametrize("policy", sorted(POLICY_IDS))
def test_batch_backends_agree(policy):
    params = ModelParameters(v1=0.04, v2=0.06, C_Tax=2.1, C_CT=2.1)
    p = params.as_array()
    rng = np.random.default_rng(123)
    X = _random_batch(rng, 4000)
    pid = POLICY_IDS[policy]

    va, ca, oka = evaluate_policy_batch(pid, X, p)
    vb, cb, okb = K.evaluate_policy_batch_numpy(pid, X, p)

    assert np.array_equal(oka, okb)
    assert oka.sum() > 3000 and (~oka).sum() > 50
    np.testing.assert_allclose(va[oka], vb[oka], rtol=1e-11)
    np.testing.assert_allclose(ca[oka], cb[oka], rtol=1e-11, atol=1e-12)
    assert np.all(np.isnan(va[~oka])) and np.all(np.isnan(vb[~okb]))


@pytest.mark.parametrize("policy", sorted(POLICY_IDS))
def test_batch_matches_rich_evaluation(policy):
    rng = np.random.default_rng(7)
    pairs = sample_admissible(rng, 20)
    for params, decisions in pairs:
        objective = make_batch_objective(params, policy)
        values, violations, valid = objective(decisions.as_array()[None, :])
        assert valid[0]
        outcome = evaluate_policy(params, decisions, policy)
        assert values[0] == pytest.approx(outcome.value, rel=1e-11)
        assert violations[0] == pytest.approx(outcome.constraint_violation,
                                              rel=1e-9, abs=1e-12)


def _mixed_batch(rng, n, kinds=8):
    """n rows at the reference point: ordinary ones, ones below THETA_FLOOR
    (large xi1), and ones refused for a negative T0 or xi2, a price past a/b,
    a backlog that never clears, an infinite xi1 or a NaN G; every kind
    appears once n >= 8.  With kinds=2 only the first two appear.  The
    first two kinds are priced below 270, clear of a/b = 300 under
    parameters within 5 % of these, so that they stay admissible there."""
    X = np.column_stack([
        rng.uniform(0.05, 2.0, n), rng.uniform(0.0, 500.0, n),
        rng.uniform(0.0, 500.0, n), rng.uniform(0.01, 50.0, n),
        rng.uniform(80.0, 270.0, n)])
    kind = rng.permutation(np.arange(n) % kinds)
    X[kind == 1, 1] = rng.uniform(1e3, 2e3, (kind == 1).sum())
    X[kind == 2, 0] = -0.5
    X[kind == 3, 2] = -1.0
    X[kind == 4, 4] = 400.0
    X[kind == 5, 0] = 30.0
    X[kind == 5, 4] = rng.uniform(80.0, 100.0, (kind == 5).sum())
    X[kind == 6, 1] = np.inf
    X[kind == 7, 3] = np.nan
    return X, kind


#: Slots that hold one value per row in the "shared" layout; every other
#: slot is one float64 scalar, as make_batch_objective passes the slots its
#: parameter sets share.
PER_ROW_SLOTS = (K.P_P_R, K.P_ETA, K.P_C_P, K.P_KAPPA1)


@pytest.mark.parametrize("policy", sorted(POLICY_IDS))
@pytest.mark.parametrize("layout", ["vector", "per_row", "shared"])
@pytest.mark.parametrize("n, kinds", [(1, 8), (7, 8), (50, 8), (250, 8), (50, 2)],
                         ids=["1", "7", "50", "250", "50_admissible"])
def test_twin_rows_do_not_depend_on_their_batch(n, kinds, layout, policy):
    """Each row of a batch call equals a one-row call on that row, bit for
    bit: the value, violation and validity of every row, and with the term
    output the status of every row and the term column and the policy's
    phi_m and phi_r of every OK row.  Refused rows run the same arithmetic
    as the others, and the batch skips the zero-deterioration limits unless
    some row needs them (a refused row with xi1 = inf does; kinds=2: every
    row admissible)."""
    rng = np.random.default_rng(n)
    params = ModelParameters(v1=0.0386, v2=0.0549, C_Tax=2.108, C_CT=2.108)
    X, kind = _mixed_batch(rng, n, kinds)
    p = params.as_array()
    if layout == "per_row":
        p = p[:, None] * rng.uniform(0.95, 1.05, (K.N_PARAMS, n))
    elif layout == "shared":
        p = [p[slot] * rng.uniform(0.95, 1.05, n) if slot in PER_ROW_SLOTS
             else p[slot] for slot in range(K.N_PARAMS)]
        assert all(type(v) is np.float64 for v in p if np.ndim(v) == 0)
    pid = POLICY_IDS[policy]
    values, violations, valid = K.evaluate_policy_batch_numpy(pid, X, p)
    *_, status, table, phi_m, phi_r = K.evaluate_terms(pid, X, p)
    assert valid[kind == 0].all() and valid[kind == 1].all()
    assert not valid[kind >= 2].any()
    assert valid.all() == (kinds == 2 or n == 1)
    assert np.array_equal(status == K.OK, valid)
    for i in range(n):
        if layout == "per_row":
            row_p = p[:, i:i + 1]
        elif layout == "shared":
            row_p = [v if np.ndim(v) == 0 else v[i:i + 1] for v in p]
        else:
            row_p = p
        one = K.evaluate_policy_batch_numpy(pid, X[i:i + 1], row_p)
        assert one[2][0] == valid[i]
        assert one[0].view(np.int64)[0] == values[i:i + 1].view(np.int64)[0]
        assert one[1].view(np.int64)[0] == violations[i:i + 1].view(np.int64)[0]
        *_, one_status, one_table, one_m, one_r = K.evaluate_terms(pid, X[i:i + 1], row_p)
        assert one_status[0] == status[i]
        if status[i] == K.OK:
            assert one_table[:, 0].tobytes() == table[:, i].tobytes()
            assert one_m.tobytes() == phi_m[i:i + 1].tobytes()
            assert one_r.tobytes() == phi_r[i:i + 1].tobytes()


#: Parameter edits at the edges of the prepared quantities: P_r = 0 divides
#: by zero (P_de u / P_r), C_g f_d P beta2 and d1 E_t D_r overflow, and
#: exponents that `**` would square or take the root of as scalars, with
#: the powers weighted so that they set the values.
PREPARED_EDGES = {"reference": {}, "P_r_zero": {"P_r": 0.0},
                  "C_g_P_overflow": {"C_g": 1e307, "P": 1e4},
                  "d1_E_t_overflow": {"d1": 1e200, "E_t": 1e200},
                  "kappa_fast_paths": {"kappa1": 2.0, "kappa2": 0.5, "l1": 1e-3,
                                       "l2": 1e3, "l3": 1e-3, "l4": 1e3}}


@pytest.mark.parametrize("policy", [None, *sorted(POLICY_IDS)])
@pytest.mark.parametrize("edge", sorted(PREPARED_EDGES))
@pytest.mark.parametrize("n", [1, 50])
def test_twin_prepares_every_layout_to_the_same_bits(n, edge, policy):
    """The twin gives the same bits on the prepared `slot_layout`, on the
    raw parameter vector, on a fully per-row (N_PARAMS, n) matrix, on a
    sequence of float64 scalars and on a sequence that mixes scalars and
    per-row arrays: values, violations, valid, status, the term table and
    the policy's phi rows, refused rows included."""
    p = ModelParameters(v1=0.0386, v2=0.0549, C_Tax=2.108, C_CT=2.108).as_array()
    for name, value in PREPARED_EDGES[edge].items():
        p[K.PARAM_ORDER.index(name)] = value
    X, _ = _mixed_batch(np.random.default_rng(n), n)
    pid = None if policy is None else POLICY_IDS[policy]

    def outputs(layout):
        return (*K.evaluate_policy_batch_numpy(pid, X, layout),
                *K.evaluate_terms(pid, X, layout)[3:])

    expected = outputs(K.slot_layout(p[None, :], n))
    for layout in (p, np.repeat(p[:, None], n, axis=1), list(p),
                   [np.full(n, v) if slot % 2 else v for slot, v in enumerate(p)]):
        for got, want in zip(outputs(layout), expected):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("policy", sorted(POLICY_IDS))
@pytest.mark.parametrize("kappa", [2.0, 0.5])
@pytest.mark.parametrize("slot", ["kappa1", "kappa2"])
def test_objective_rows_do_not_depend_on_other_sets_kappa(slot, kappa, policy):
    """A set's rows are the same bits alone and among sets that differ from
    it only in one exponent.  NumPy's ** takes a square or sqrt fast path
    for a scalar exponent of 2.0 or 0.5 that a per-row exponent does not."""
    # Abatement all curvature and no cap, so the powers of G set the
    # values and violations; G up to 1e4 spreads their bases.
    params = ModelParameters(v1=0.0386, v2=0.0549, C_Tax=2.108, C_CT=2.108,
                             l1=1e-3, l2=1e3, l3=1e-3, l4=1e3, U2=0.0,
                             **{slot: kappa})
    rng = np.random.default_rng(5)
    n = 600
    X, _ = _mixed_batch(rng, n, kinds=2)
    X[:, 3] = 10.0 ** rng.uniform(-2.0, 4.0, n)
    alone = make_batch_objective(params, policy)(X)
    sets = [params, params.replace(**{slot: 0.9 * kappa}),
            params.replace(**{slot: 1.1 * kappa})]
    together = make_batch_objective(sets, policy)(np.concatenate([X] * len(sets)))
    assert alone[2].all()
    for one, many in zip(alone, together):
        assert one.tobytes() == many[:n].tobytes()


def _statuses(params, rows):
    """The twin's status of each decision row, and the scalar oracle's."""
    X = np.array(rows, dtype=np.float64)
    p = params.as_array()
    out = np.empty(K.N_TERMS)
    return (K.evaluate_terms(None, X, p)[3].tolist(),
            [O.evaluate_terms(*row, p, out) for row in X])


def test_status_codes():
    params = ModelParameters(v1=0.05, v2=0.05, C_Tax=1.0)
    rows, expected = zip(
        ([0.0, 1.0, 1.0, 1.0, 200.0], K.ERR_BAD_T0),
        ([math.nan, 1.0, 1.0, 1.0, 200.0], K.ERR_BAD_T0),
        ([math.inf, 1.0, 1.0, 1.0, 200.0], K.ERR_BAD_T0),
        ([0.5, -1.0, 1.0, 1.0, 200.0], K.ERR_BAD_INVESTMENT),
        # An infinite investment buys nothing finite: refused, not valued -inf.
        ([0.5, math.inf, 1.0, 1.0, 200.0], K.ERR_BAD_INVESTMENT),
        ([0.5, 1.0, math.inf, 1.0, 200.0], K.ERR_BAD_INVESTMENT),
        ([0.5, 1.0, 1.0, math.inf, 200.0], K.ERR_BAD_INVESTMENT),
        ([0.5, 1.0, 1.0, 1.0, 301.0], K.ERR_NEGATIVE_DEMAND),
        ([0.5, 1.0, 1.0, 1.0, 300.0], K.ERR_ZERO_DEMAND),
        ([0.5, 1.0, 1.0, 1.0, -math.inf], K.ERR_NET_REPLENISHMENT),
        ([0.5, 1.0, 1.0, 1.0, 200.0], K.OK))
    twin, oracle = _statuses(params, rows)
    assert twin == oracle == list(expected)


def test_backlog_status():
    params = ModelParameters(v1=0.05, v2=0.05, C_Tax=1.0, D_r=31.0)
    assert _statuses(params, [[0.9, 0.0, 0.0, 1.0, 80.0]]) == ([K.ERR_BACKLOG],) * 2


@pytest.mark.parametrize("policy, extreme", [
    *((policy, {"C_p": 1e308}) for policy in sorted(POLICY_IDS)),
    *((policy, {"P": 1e308}) for policy in sorted(POLICY_IDS)),
    ("tax", {"C_Tax": 1e308}), ("cap_trade", {"C_CT": 1e308}),
    ("limited", {"E_p": 1e308}),
    # Parameter-only products that overflow.
    *((policy, {"C_g": 1e307, "P": 1e4}) for policy in sorted(POLICY_IDS)),
    *((policy, {"d1": 1e200, "E_t": 1e200}) for policy in sorted(POLICY_IDS))])
def test_overflow_is_refused_not_answered(policy, extreme):
    """Finite but extreme parameters whose arithmetic leaves the float
    range: the model layer raises ERR_OVERFLOW and the twin refuses the
    row; neither answers inf or NaN.  The optimizers' objective, called
    where an overflow raises (as `optimize` runs it), refuses all 50 rows
    of a batch and raises nothing, alone and in lockstep with a set that
    halves the extreme values (which makes them per-row slots)."""
    params = ModelParameters(**{"v1": 0.05, "v2": 0.05, "C_Tax": 1.0, "C_CT": 1.0,
                                **extreme})
    decisions = DecisionVector(T0=0.6626, xi1=167.8651, xi2=93.6741, G=7.7565,
                               W_r=292.28)
    with pytest.raises(DomainError, match="floating-point overflow") as info:
        evaluate_policy(params, decisions, policy)
    assert info.value.status == K.ERR_OVERFLOW
    values, violations, valid = K.evaluate_policy_batch_numpy(
        POLICY_IDS[policy], decisions.as_array()[None, :], params.as_array())
    assert not valid[0] and np.isnan(values[0]) and np.isnan(violations[0])

    X = decisions.as_array() * np.random.default_rng(3).uniform(0.9, 1.02, (50, 5))
    halved = params.replace(**{name: value / 2 for name, value in extreme.items()})
    with refusing_overflow():
        alone = make_batch_objective(params, policy)(X)
        lockstep = make_batch_objective([params, halved], policy)(np.concatenate([X, X]))
    for values, violations, valid in (alone, lockstep):
        assert not valid.any() and np.isnan(values).all() and np.isnan(violations).all()
    status = K.evaluate_terms(POLICY_IDS[policy], X, params.as_array())[3]
    assert (status == K.ERR_OVERFLOW).all()


def test_series_helpers_continuous_at_switch():
    x = np.array([9.9e-4, 1.01e-3, -9.9e-4, -1.01e-3])
    np.testing.assert_allclose(K._np_phi2(x, np.expm1(x)),
                               (np.expm1(x) - x) / (x * x), rtol=1e-12)
    x = np.array([9.9e-5, 1.01e-4, -9.9e-5, -1.01e-4])
    np.testing.assert_allclose(K._np_phi1(x, np.expm1(x)), np.expm1(x) / x,
                               rtol=1e-13)
    with np.errstate(divide="ignore", invalid="ignore"):
        zero = np.zeros(1)
        assert K._np_phi2(zero, zero)[0] == 0.5
        assert K._np_phi1(zero, zero)[0] == 1.0


def test_integrals_stable_across_theta_floor():
    params = ModelParameters(v1=0.05, v2=0.05, C_Tax=1.0)
    row = np.array([[0.6626, 0.0, 0.0, 1.0, 200.0]])

    def values(theta):
        # theta_m = theta1 with no preservation
        terms = K.evaluate_terms(None, row, params.replace(theta1=theta).as_array())[4]
        return terms[[K.T_T2, K.T_INT_I, K.T_INT_ID], 0]

    # the series-limit branch joins the general formulas smoothly
    below = values(0.0)
    at_floor = values(5e-11)
    above = values(2e-10)
    np.testing.assert_allclose(at_floor, below, rtol=1e-9)
    np.testing.assert_allclose(above, below, rtol=1e-8)
    # deterioration genuinely shortens the cycle and shrinks the integrals
    trend = np.array([values(t) for t in (0.0, 1e-8, 1e-6, 1e-4, 1e-2)])
    assert np.all(np.diff(trend[:, 0]) < 0)
    assert np.all(np.diff(trend[:, 1]) < 0)


def test_term_names_cover_layout():
    assert len(K.TERM_NAMES) == K.N_TERMS
    assert K.TERM_NAMES[K.T_PHI_T] == "phi_T"
    assert K.TERM_NAMES[K.T_Q_M] == "Q_m"


# Every parameter over its validated domain: each table constant in
# [0, 3 x default] (setup costs, default 0, in [0, 100]), the fractions over
# [0, 1], the strictly positive ones bounded away from 0.  P is drawn as a
# multiple of P_r so that P > P_r holds.
PARAMETER_DRAWS = {name: st.floats(0.0, 3.0 * value if value else 100.0)
                   for name, value in TABLE_DEFAULTS.items()}
PARAMETER_DRAWS.update(
    {name: st.floats(0.0, 1.0) for name in ("f_d", "beta1", "beta2", "f_r", "omega")},
    P_r=st.floats(10.0, 7500.0), P=st.floats(1.01, 10.0), D_r=st.floats(1.0, 1200.0),
    a=st.floats(1.0, 90.0), b=st.floats(0.01, 0.3), eta=st.floats(0.01, 4.8),
    v1=st.floats(1e-3, 0.2), v2=st.floats(1e-3, 0.2),
    C_Tax=st.floats(0.0, 10.0), C_CT=st.floats(0.0, 10.0))


#: Values that replace one decision component in some rows.
ODD_VALUES = (math.nan, math.inf, -math.inf, -1.0, 0.0, -0.0)


@st.composite
def parameters_and_decisions(draw):
    """A parameter set and 1-6 decision rows around both boundaries; some
    rows carry one odd component or W_r exactly at a/b."""
    v = {name: draw(strategy) for name, strategy in PARAMETER_DRAWS.items()}
    v["P"] *= v["P_r"]
    params = ModelParameters(**v)
    P_e, P_de = O.effective_rates(v["P"], v["f_d"], v["beta1"], v["beta2"])
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        T0 = draw(st.floats(1e-3, 2.0))
        # theta_m = theta1 exp(-v1 xi1) from theta1 down to e^-40 theta1,
        # across THETA_FLOOR.
        xi1 = draw(st.floats(0.0, 40.0)) / v["v1"]
        theta_m = O.preserved_rate(v["theta1"], v["v1"], xi1)
        T1 = O.manufacturer_cycle(v["P"], P_e, P_de, v["P_r"], v["D_r"],
                                  theta_m, T0)[0]
        # The backlog clears while B2 > s eta, i.e. f(W_r) (1 + T1 eta) < D_r;
        # a share below 0 gives no demand at all.
        fW = draw(st.floats(-0.1, 1.5)) * v["D_r"] / (1.0 + T1 * v["eta"])
        row = [T0, xi1, draw(st.floats(0.0, 500.0)),
               draw(st.floats(0.0, 50.0)), (v["a"] - fW) / v["b"]]
        odd = draw(st.sampled_from(("none", "component", "price cap")))
        if odd == "component":
            row[draw(st.integers(0, 4))] = draw(st.sampled_from(ODD_VALUES))
        elif odd == "price cap":
            row[4] = v["a"] / v["b"]
        rows.append(row)
    return params, np.array(rows)


@settings(max_examples=300, deadline=None)
@given(case=parameters_and_decisions())
def test_scalar_kernel_matches_twin_over_whole_table(case):
    params, X = case
    p = params.as_array()
    for pid in POLICY_IDS.values():
        values, violations, ok = evaluate_policy_batch(pid, X, p)
        twin_values, twin_violations, twin_ok = K.evaluate_policy_batch_numpy(pid, X, p)
        assert np.array_equal(ok, twin_ok)
        np.testing.assert_allclose(values[ok], twin_values[ok], rtol=1e-9)
        np.testing.assert_allclose(violations[ok], twin_violations[ok], rtol=1e-9)
    # The model layer refuses exactly the rows the twin does, with the
    # twin's status.
    _assert_model_layer_raises_twin_status(params, X)


def _assert_model_layer_raises_twin_status(params, X):
    """compute_schedule raises DomainError with the twin's status for every
    row of X the twin refuses, and answers the others.  Under each policy,
    a row the model layer admits is admitted with no policy, with the same
    term column bit for bit (`evaluate` reads every section from one call
    under its policy), and the optimizers' objective admits exactly the
    rows the model layer does."""
    p = params.as_array()
    _, _, _, status, terms, _, _ = K.evaluate_terms(None, X, p)
    for row, code in zip(X, status.tolist()):
        if code == K.OK:
            compute_schedule(params, DecisionVector.from_array(row))
        else:
            with pytest.raises(DomainError) as info:
                compute_schedule(params, DecisionVector.from_array(row))
            assert info.value.status == code
    layout = K.slot_layout(p[None, :], len(X))
    for pid in POLICY_IDS.values():
        _, _, _, under_policy, policy_terms, _, _ = K.evaluate_terms(pid, X, p)
        ok = under_policy == K.OK
        assert (status[ok] == K.OK).all()
        assert policy_terms[:, ok].tobytes() == terms[:, ok].tobytes()
        assert np.array_equal(K.evaluate_policy_batch_numpy(pid, X, layout)[2], ok)


@settings(max_examples=100, deadline=None)
@given(case=parameters_and_decisions(),
       extreme=st.sampled_from((None, "C_p", "h_p", "E_p", "d1", "W_m")))
def test_model_layer_raises_the_twin_status(case, extreme):
    """The model layer's statuses are the twin's on drawn rows around the
    backlog boundary and the price cap, with odd components, and with one
    parameter at 1e308, whose arithmetic overflows in admissible rows."""
    params, X = case
    if extreme is not None:
        params = params.replace(**{extreme: 1e308})
    _assert_model_layer_raises_twin_status(params, X)


def test_model_layer_refuses_overflow_with_the_twin_status():
    params = ModelParameters(v1=0.05, v2=0.05, C_Tax=1.0, C_p=1e308)
    X = np.array([[0.6626, 167.8651, 93.6741, 7.7565, 292.28]])
    assert K.evaluate_terms(None, X, params.as_array())[3][0] == K.ERR_OVERFLOW
    _assert_model_layer_raises_twin_status(params, X)


def test_evaluate_policy_is_the_objective_row():
    """evaluate_policy gives the optimizers' objective row bit for bit, in
    value and violation: 200 drawn admissible rows, each under its own
    parameter set in one lockstep objective call, with kappa1 = kappa2 =
    2.0 and no emission cap, so that the powers set the values and
    violations (NumPy's ** squares a scalar exponent of 2.0; the layout
    passes it per row on both paths)."""
    pairs = sample_admissible(np.random.default_rng(17), 200)
    sets = [p.replace(kappa1=2.0, kappa2=2.0, U2=0.0) for p, _ in pairs]
    X = np.array([d.as_array() for _, d in pairs])
    for policy in sorted(POLICY_IDS):
        values, violations, valid = make_batch_objective(sets, policy)(X)
        assert valid.all()
        rows = [evaluate_policy(p, d, policy) for p, (_, d) in zip(sets, pairs)]
        assert np.array([r.value for r in rows]).tobytes() == values.tobytes()
        assert (np.array([r.constraint_violation for r in rows]).tobytes()
                == violations.tobytes())


def test_twin_terms_and_status_match_oracle():
    """The twin's term table (TERM_NAMES order), policy profits and status
    against the scalar oracle, row by row."""
    params = ModelParameters(v1=0.04, v2=0.06, C_Tax=2.1, C_CT=2.1)
    p = params.as_array()
    X = _random_batch(np.random.default_rng(11), 1000)
    out = np.empty(K.N_TERMS)
    for policy, pid in POLICY_IDS.items():
        _, _, valid, status, table, phi_m, phi_r = K.evaluate_terms(pid, X, p)
        assert np.array_equal(valid, status == K.OK)
        assert valid.sum() > 700 and (~valid).sum() > 50
        for i, row in enumerate(X):
            assert O.evaluate_terms(*row, p, out) == status[i]
            if valid[i]:
                np.testing.assert_allclose(table[:, i], out, rtol=1e-11, atol=1e-10)
                np.testing.assert_allclose(
                    [phi_m[i], phi_r[i]],
                    O.policy_value_from_terms(pid, row[3], p, out)[1:3], rtol=1e-11)
