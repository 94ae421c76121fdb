import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenchain import DecisionVector, ModelParameters, evaluate_policy
from greenchain import kernels as K
from greenchain.params import TABLE_DEFAULTS
from greenchain.policy import POLICY_IDS, make_batch_objective
from conftest import sample_admissible
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


def test_status_codes():
    params = ModelParameters(v1=0.05, v2=0.05, C_Tax=1.0)
    p = params.as_array()
    out = np.empty(K.N_TERMS)
    assert K.evaluate_terms(0.0, 1.0, 1.0, 1.0, 200.0, p, out) == K.ERR_BAD_T0
    assert K.evaluate_terms(float("nan"), 1.0, 1.0, 1.0, 200.0, p, out) \
        == K.ERR_BAD_T0
    assert K.evaluate_terms(0.5, -1.0, 1.0, 1.0, 200.0, p, out) \
        == K.ERR_BAD_INVESTMENT
    assert K.evaluate_terms(0.5, 1.0, 1.0, 1.0, 301.0, p, out) \
        == K.ERR_NEGATIVE_DEMAND
    assert K.evaluate_terms(0.5, 1.0, 1.0, 1.0, 300.0, p, out) \
        == K.ERR_ZERO_DEMAND
    assert K.evaluate_terms(0.5, 1.0, 1.0, 1.0, 200.0, p, out) == K.OK


def test_backlog_status():
    params = ModelParameters(v1=0.05, v2=0.05, C_Tax=1.0, D_r=31.0)
    out = np.empty(K.N_TERMS)
    status = K.evaluate_terms(0.9, 0.0, 0.0, 1.0, 80.0, params.as_array(), out)
    assert status == K.ERR_BACKLOG


def test_series_helpers_continuous_at_switch():
    for x in (9.9e-4, 1.01e-3, -9.9e-4, -1.01e-3):
        direct = (np.expm1(x) - x) / (x * x)
        assert K.phi2(x) == pytest.approx(direct, rel=1e-12)
    for x in (9.9e-5, 1.01e-4, -9.9e-5, -1.01e-4):
        assert K.phi1(x) == pytest.approx(np.expm1(x) / x, rel=1e-13)
    assert K.phi2(0.0) == 0.5
    assert K.phi1(0.0) == 1.0


def test_integrals_stable_across_theta_floor():
    P_e, P_de = K.effective_rates(7500.0, 0.05, 0.04, 0.06)

    def values(theta):
        T1, T2, Q_m = K.manufacturer_cycle(7500.0, P_e, P_de, 2500.0, 400.0,
                                           theta, 0.6626)
        int_I, int_Id = K.manufacturer_integrals(P_e, P_de, 2500.0, 400.0,
                                                 Q_m, theta, 0.6626, T1, T2)
        return np.array([T2, int_I, int_Id])

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


@st.composite
def parameters_and_decisions(draw):
    """A full parameter vector and 1-6 decision rows around both boundaries."""
    v = {name: draw(strategy) for name, strategy in PARAMETER_DRAWS.items()}
    v["P"] *= v["P_r"]
    p = ModelParameters(**v).as_array()
    P_e, P_de = K.effective_rates(v["P"], v["f_d"], v["beta1"], v["beta2"])
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        T0 = draw(st.floats(1e-3, 2.0))
        # theta_m = theta1 exp(-v1 xi1) from theta1 down to e^-40 theta1,
        # across THETA_FLOOR.
        xi1 = draw(st.floats(0.0, 40.0)) / v["v1"]
        theta_m = K.preserved_rate(v["theta1"], v["v1"], xi1)
        T1 = K.manufacturer_cycle(v["P"], P_e, P_de, v["P_r"], v["D_r"],
                                  theta_m, T0)[0]
        # The backlog clears while B2 > s eta, i.e. f(W_r) (1 + T1 eta) < D_r;
        # a share below 0 gives no demand at all.
        fW = draw(st.floats(-0.1, 1.5)) * v["D_r"] / (1.0 + T1 * v["eta"])
        rows.append((T0, xi1, draw(st.floats(0.0, 500.0)),
                     draw(st.floats(0.0, 50.0)), (v["a"] - fW) / v["b"]))
    return p, np.array(rows)


@settings(max_examples=300, deadline=None)
@given(case=parameters_and_decisions())
def test_scalar_kernel_matches_twin_over_whole_table(case):
    p, X = case
    for pid in POLICY_IDS.values():
        values, violations, ok = evaluate_policy_batch(pid, X, p)
        twin_values, twin_violations, twin_ok = K.evaluate_policy_batch_numpy(pid, X, p)
        assert np.array_equal(ok, twin_ok)
        np.testing.assert_allclose(values[ok], twin_values[ok], rtol=1e-9)
        np.testing.assert_allclose(violations[ok], twin_violations[ok], rtol=1e-9)
