import dataclasses
import math

import numpy as np
import pytest

from greenchain import kernels as K
from greenchain import (DecisionVector, ModelParameters, base_profits,
                        green_reduction)
from greenchain.model import DomainError
from greenchain.optimize import penalize
from greenchain.params import ParameterError
from greenchain.policy import POLICY_IDS, evaluate_policy


@pytest.fixture
def decisions():
    return DecisionVector(T0=0.6626, xi1=167.8651, xi2=93.6741,
                          G=7.7565, W_r=292.28)


class TestGreenReduction:
    def test_zero_investment(self, params):
        r = green_reduction(0.0, params)
        assert r.rho_m == 0.0 and r.rho_r == 0.0 and r.rho_G == 0.0

    def test_reference_values(self, params):
        r = green_reduction(7.7565, params)
        assert r.rho_m == pytest.approx(41.91802099140385, rel=1e-10)
        assert r.rho_r == pytest.approx(31.046423562857303, rel=1e-10)
        rG = green_reduction(1.9693, params).rho_G
        assert rG == pytest.approx(192.114875330063, rel=1e-10)

    def test_linear_when_offsetting_removed(self, params):
        p = params.replace(l2=0.0)
        for G in (1.0, 2.0, 10.0):
            r = green_reduction(G, p)
            assert r.rho_m == pytest.approx(p.omega * p.l1 * G, rel=1e-12)
        assert p.omega * p.l1 == 9.0

    def test_eventually_decreasing_for_superlinear_exponent(self, params):
        # offsetting term dominates once (omega G)^(kappa1 - 1) is large
        values = [green_reduction(G, params).rho_m for G in (40, 70, 100, 150)]
        assert values[-1] < values[-2] < values[-3]

    def test_negative_investment_rejected(self, params):
        with pytest.raises(DomainError):
            green_reduction(-1.0, params)

    @pytest.mark.parametrize("G", [float("inf"), float("nan")])
    def test_nonfinite_investment_rejected(self, params, G):
        with pytest.raises(DomainError) as info:
            green_reduction(G, params)
        assert info.value.status == K.ERR_BAD_INVESTMENT

    def test_overflow_is_refused_as_evaluate_policy_refuses_it(self, params,
                                                                decisions):
        # G ** kappa leaves the float range: no bare OverflowError.
        huge = dataclasses.replace(decisions, G=1e300)
        for call in (lambda: green_reduction(1e300, params),
                     lambda: evaluate_policy(params, huge, "tax")):
            with pytest.raises(DomainError) as info:
                call()
            assert info.value.status == K.ERR_OVERFLOW


class TestCarbonTax:
    def test_reduces_to_base_profit_without_policy_terms(self, params, decisions):
        p = params.replace(C_Tax=0.0)
        d = DecisionVector(**{**decisions.to_dict(), "G": 0.0})
        outcome = evaluate_policy(p, d, "tax")
        base = base_profits(p, d)
        assert outcome.value == pytest.approx(base.phi_T, rel=1e-12)
        assert outcome.constraint_violation == 0.0

    def test_decreasing_in_tax_price_when_emissions_exceed_reduction(
            self, params, decisions):
        lo = evaluate_policy(params.replace(C_Tax=0.5), decisions, "tax")
        hi = evaluate_policy(params.replace(C_Tax=2.5), decisions, "tax")
        assert lo.diagnostics.CarC_m > green_reduction(decisions.G, params).rho_m
        assert hi.phi_m < lo.phi_m
        assert hi.value < lo.value

    def test_missing_price_is_load_error(self, decisions):
        p = ModelParameters(v1=0.05, v2=0.05)
        with pytest.raises(ParameterError, match="C_Tax"):
            evaluate_policy(p, decisions, "tax")


class TestCapAndTrade:
    def test_reduces_to_base_profit_without_policy_terms(self, params, decisions):
        p = params.replace(C_CT=0.0)
        d = DecisionVector(**{**decisions.to_dict(), "G": 0.0})
        outcome = evaluate_policy(p, d, "cap_trade")
        assert outcome.value == pytest.approx(base_profits(p, d).phi_T,
                                              rel=1e-12)

    def test_net_sellers_beat_carbon_tax(self, params, decisions):
        p = params.replace(C_Tax=2.0, C_CT=2.0, U1=1e6)
        tax = evaluate_policy(p, decisions, "tax")
        trade = evaluate_policy(p, decisions, "cap_trade")
        assert trade.value > tax.value

    def test_differs_from_tax_by_allowance_credit(self, params, decisions):
        p = params.replace(C_Tax=2.0, C_CT=2.0)
        tax = evaluate_policy(p, decisions, "tax")
        trade = evaluate_policy(p, decisions, "cap_trade")
        from greenchain import compute_schedule

        s = compute_schedule(p, decisions)
        credit = p.C_CT * p.U1 * (1.0 / s.T2 + (1.0 - p.f_r) / s.T3)
        assert trade.value - tax.value == pytest.approx(credit, rel=1e-9)


class TestLimitedEmission:
    def test_value_is_base_minus_green_investment(self, params, decisions):
        outcome = evaluate_policy(params, decisions, "limited")
        base = base_profits(params, decisions)
        assert outcome.value == pytest.approx(base.phi_T - decisions.G,
                                              rel=1e-12)

    def test_feasible_when_emissions_under_cap(self, params):
        d = DecisionVector(T0=0.001, xi1=1.0, xi2=1.0, G=0.0, W_r=292.28)
        outcome = evaluate_policy(params, d, "limited")
        total = outcome.diagnostics.CarC_m + outcome.diagnostics.CarC_r
        assert total <= params.U2
        assert outcome.constraint_violation == 0.0
        assert outcome.value == pytest.approx(base_profits(params, d).phi_T,
                                              rel=1e-12)

    def test_violation_measures_cap_excess(self, params, decisions):
        outcome = evaluate_policy(params, decisions, "limited")
        r = green_reduction(decisions.G, params)
        total = outcome.diagnostics.CarC_m + outcome.diagnostics.CarC_r
        expected = max(0.0, total - r.rho_G - params.U2)
        assert outcome.constraint_violation == pytest.approx(expected,
                                                             rel=1e-12)


class TestPoliciesCoincideWithoutPrices:
    def test_agreement_at_zero_price_and_investment(self, params):
        p = params.replace(C_Tax=0.0, C_CT=0.0, U1=0.0)
        d = DecisionVector(T0=0.5, xi1=10.0, xi2=10.0, G=0.0, W_r=250.0)
        base = base_profits(p, d).phi_T
        assert evaluate_policy(p, d, "tax").value == pytest.approx(base, rel=1e-12)
        assert evaluate_policy(p, d, "cap_trade").value == pytest.approx(
            base, rel=1e-12)
        assert evaluate_policy(p, d, "limited").value == pytest.approx(
            base, rel=1e-12)


class TestPenalize:
    def test_feasible_point_untouched(self):
        assert penalize(123.4, 0.0, True, 1e6) == 123.4

    def test_quadratic_arithmetic(self):
        assert penalize(100.0, 2.0, True, 10.0) == 60.0

    @pytest.mark.parametrize("slack", [-2.0, -1.0, -0.5, -1e200])
    def test_slack_is_not_penalized(self, slack):
        # violation <= 0 is feasible (Deb's rule): the fitness is the value.
        assert penalize(5.0, slack, True, 1.0) == 5.0
        assert penalize(5.0, slack, True, 1e6) == 5.0

    def test_feasible_outranks_sufficiently_violating_points(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            coeff = rng.uniform(0.1, 100.0)
            value = rng.uniform(-50, 50)
            gap = rng.uniform(0.0, 100.0)
            assert penalize(value, 0.0, True, coeff) > penalize(
                value + gap, math.sqrt(gap / coeff) + 1e-6, True, coeff)


def test_policy_id_mapping(params, decisions):
    assert POLICY_IDS == {"tax": 0, "cap_trade": 1, "limited": 2}
    with pytest.raises(ParameterError, match="unknown policy"):
        evaluate_policy(params, decisions, "subsidy")


def test_evaluate_policy_dispatch(params, decisions):
    values = {policy: evaluate_policy(params, decisions, policy)
              for policy in ("tax", "cap_trade", "limited")}
    assert {o.kind for o in values.values()} == set(values)
    assert len({o.value for o in values.values()}) == 3
