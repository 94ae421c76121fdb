import numpy as np
import pytest

from greenchain import DecisionVector, ModelParameters, evaluate_policy
from greenchain import kernels as K
from greenchain.policy import POLICY_IDS, make_batch_objective
from conftest import sample_admissible


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

    n = X.shape[0]
    va = np.empty(n)
    ca = np.empty(n)
    oka = np.empty(n, dtype=bool)
    K.evaluate_policy_batch(pid, np.ascontiguousarray(X), p, va, ca, oka)
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
