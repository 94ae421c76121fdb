import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenchain import (DecisionVector, DomainError,
                        ModelParameters, ParameterError, base_profits,
                        compute_breakdown, compute_schedule,
                        deterioration_rates, effective_rates,
                        manufacturer_schedule, retailer_schedule)
from greenchain import kernels as K
from greenchain import model
from conftest import sample_admissible
from oracles import bisect, rk4_path, simpson

# Frozen oracle values for the reference manufacturer cycle
# (published defaults, T0 = 0.6626, theta_m = 0.15), computed with RK4 on
# the balance equations plus bisection on the zero conditions.
T0_REF = 0.6626
THETA_REF = 0.15
T1_REF = 0.8215282783161193
QM_REF = 4619.084635590601
T2_REF = 7.522137020625404
I_T0_REF = 4328.428671260926

# Frozen values for the reference retailer cycle (rounded schedule inputs
# W_r = 292.28, T1 = 0.8215, T2 = 7.523, theta_r = 0.1), root-finding on
# the closed-form trajectory.
S_REF = 0.6341980000000017
T11_REF = 0.8199094168294204
QR_REF = 234.83735834472495
T3_REF = 11.199602381745592


class TestEffectiveRates:
    def test_defaults(self, params):
        P_e, P_de = effective_rates(params)
        assert P_e == pytest.approx(6862.5, abs=1e-12)
        assert P_de == pytest.approx(637.5, abs=1e-12)

    def test_no_inspection_errors(self, params):
        p = params.replace(beta1=0.0, beta2=0.0)
        P_e, P_de = effective_rates(p)
        assert P_e == pytest.approx(7125.0) and P_de == pytest.approx(375.0)

    def test_perfect_production(self, params):
        p = params.replace(f_d=0.0, beta1=0.0)
        P_e, P_de = effective_rates(p)
        assert P_e == p.P and P_de == 0.0

    @given(f_d=st.floats(0, 0.99), b1=st.floats(0, 1), b2=st.floats(0, 1),
           P=st.floats(10, 1e6))
    def test_rates_conserve_production(self, f_d, b1, b2, P):
        P_e, P_de = K.effective_rates(P, f_d, b1, b2)
        assert P_e + P_de == pytest.approx(P, rel=1e-12)


class TestDeteriorationRates:
    def test_zero_investment(self, params):
        theta_m, theta_r = deterioration_rates(params, 0.0, 0.0)
        assert theta_m == params.theta1 == 0.15
        assert theta_r == params.theta2 == 0.1

    def test_reference_point(self, params):
        theta_m, _ = deterioration_rates(params, 167.8651, 0.0)
        assert theta_m == pytest.approx(3.3958377145909984e-05, rel=1e-12)

    def test_monotone_decreasing(self, params):
        xis = np.linspace(0, 400, 30)
        rates = [deterioration_rates(params, x, 0.0)[0] for x in xis]
        assert all(b < a for a, b in zip(rates, rates[1:]))
        assert rates[-1] > 0.0

    def test_negative_investment_rejected(self, params):
        with pytest.raises(DomainError):
            deterioration_rates(params, -1.0, 0.0)


class TestManufacturerSchedule:
    def test_reference_cycle_matches_ode_oracle(self, params):
        T1, T2, Q_m = manufacturer_schedule(params, T0_REF, THETA_REF)
        assert T1 == pytest.approx(T1_REF, rel=1e-6)
        assert Q_m == pytest.approx(QM_REF, rel=1e-6)
        assert T2 == pytest.approx(T2_REF, rel=1e-6)
        assert T0_REF <= T1 <= T2

    def test_no_defectives_no_rework_phase(self, params):
        p = params.replace(f_d=0.0, beta1=0.0)
        T1, T2, Q_m = manufacturer_schedule(p, 0.5, 0.1)
        assert T1 == 0.5

    def test_zero_rate_limit(self, params):
        T1a, T2a, Qa = manufacturer_schedule(params, 0.5, 1e-12)
        P_e, P_de = effective_rates(params)
        assert T1a == pytest.approx(0.5 * (1 + P_de / params.P_r), rel=1e-12)
        assert Qa == pytest.approx(params.P * 0.5, rel=1e-12)
        assert T2a - T1a == pytest.approx(Qa / params.D_r, rel=1e-12)
        # continuity across the floor
        T1b, T2b, Qb = manufacturer_schedule(params, 0.5, 2e-10)
        assert T2b == pytest.approx(T2a, rel=1e-7)

    def test_bad_t0_rejected(self, params):
        with pytest.raises(DomainError, match="production time"):
            manufacturer_schedule(params, 0.0, 0.1)


class TestInventoryTrajectories:
    def test_initial_and_terminal_conditions(self, params):
        T1, T2, Q_m = manufacturer_schedule(params, T0_REF, THETA_REF)
        scale = Q_m
        assert model.manufacturer_inventory(0.0, params, T0_REF, THETA_REF) == 0.0
        assert abs(model.manufacturer_inventory(T2, params, T0_REF, THETA_REF)) \
            <= 1e-9 * scale
        assert model.defective_inventory(0.0, params, T0_REF, THETA_REF) == 0.0
        assert abs(model.defective_inventory(T1, params, T0_REF, THETA_REF)) \
            <= 1e-9 * scale

    def test_branch_agreement_at_phase_changes(self, params):
        P_e, P_de = effective_rates(params)
        T1, T2, Q_m = manufacturer_schedule(params, T0_REF, THETA_REF)
        b1 = K.manufacturer_stock(T0_REF, P_e, params.P_r, params.D_r, Q_m,
                                  THETA_REF, T0_REF, T1, T2)
        b2 = K.manufacturer_stock(T0_REF + 1e-15, P_e, params.P_r, params.D_r,
                                  Q_m, THETA_REF, T0_REF, T1, T2)
        assert b2 == pytest.approx(b1, rel=1e-9)
        assert b1 == pytest.approx(I_T0_REF, rel=1e-6)
        c1 = K.manufacturer_stock(T1, P_e, params.P_r, params.D_r, Q_m,
                                  THETA_REF, T0_REF, T1, T2)
        c2 = K.manufacturer_stock(T1 + 1e-15, P_e, params.P_r, params.D_r,
                                  Q_m, THETA_REF, T0_REF, T1, T2)
        assert c1 == pytest.approx(Q_m, rel=1e-9)
        assert c2 == pytest.approx(Q_m, rel=1e-9)

    def test_matches_rk4_on_reference_cycle(self, params):
        P_e, P_de = effective_rates(params)
        T1, T2, Q_m = manufacturer_schedule(params, T0_REF, THETA_REF)
        segments = [
            (0.0, T0_REF, 0.0, lambda t, y: P_e - THETA_REF * y),
            (T0_REF, T1, I_T0_REF, lambda t, y: params.P_r - THETA_REF * y),
            (T1, T2, QM_REF, lambda t, y: -params.D_r - THETA_REF * y),
        ]
        for t_from, t_to, y0, rhs in segments:
            ts, ys = rk4_path(rhs, t_from, y0, t_to, 2000)
            closed = np.array([
                model.manufacturer_inventory(float(t), params, T0_REF, THETA_REF)
                for t in ts[::40]])
            scale = max(np.abs(ys).max(), 1.0)
            assert np.max(np.abs(closed - ys[::40, ...])) <= 1e-6 * scale

    def test_out_of_domain_rejected(self, params):
        with pytest.raises(ValueError, match="outside"):
            model.manufacturer_inventory(100.0, params, T0_REF, THETA_REF)


class TestRetailerSchedule:
    def test_reference_cycle(self, params):
        s, T11, Q_r, T3, B1, B2 = retailer_schedule(
            params, 292.28, 0.8215, 7.523, 0.1)
        assert s == pytest.approx(S_REF, rel=1e-9)
        assert T11 == pytest.approx(T11_REF, rel=1e-9)
        assert Q_r == pytest.approx(QR_REF, rel=1e-6)
        assert T3 == pytest.approx(T3_REF, rel=1e-6)
        assert B1 == pytest.approx(params.eta + 0.1)
        assert B2 == pytest.approx(params.D_r - (params.a - params.b * 292.28))

    def test_zero_demand_boundary(self, params):
        with pytest.raises(DomainError) as info:
            retailer_schedule(params, params.a / params.b, 0.8, 7.5, 0.1)
        assert info.value.status == K.ERR_ZERO_DEMAND

    def test_negative_demand_rejected(self, params):
        with pytest.raises(DomainError, match="negative demand"):
            retailer_schedule(params, params.a / params.b + 1.0, 0.8, 7.5, 0.1)

    def test_backlog_never_clears(self, params):
        p = params.replace(D_r=31.0)
        with pytest.raises(DomainError, match="backlog never clears"):
            retailer_schedule(p, 80.0, 0.9, 7.5, 0.1)

    def test_small_eta_limit(self, params):
        p = params.replace(eta=1e-9)
        fW = p.a - p.b * 292.28
        s, T11, _, _, _, B2 = retailer_schedule(p, 292.28, 0.8215, 7.523, 0.1)
        assert T11 == pytest.approx(0.8215 - s / B2, rel=1e-6)

    def test_backlog_clearing_may_precede_replenishment(self, params):
        dec = DecisionVector(T0=T0_REF, xi1=0.0, xi2=0.0, G=1.0, W_r=292.28)
        schedule = compute_schedule(params, dec)
        assert schedule.t11_before_t1 == (schedule.T11 < schedule.T1)

    def test_retailer_boundary_values(self, params):
        fW = params.a - params.b * 292.28
        s, T11, Q_r, T3, B1, B2 = retailer_schedule(
            params, 292.28, 0.8215, 7.523, 0.1)
        # the backlog-recovery branch (anchored at I(T1) = s) crosses zero
        # at T11 even though T11 precedes T1; check the branch formula
        from oracles import stock_linear_shift

        at_T11 = stock_linear_shift(T11, 0.8215, s, B2, params.eta)
        assert abs(at_T11) <= 1e-9 * Q_r
        at_T3 = K.retailer_stock(T3, fW, s, params.eta, B1, B2, Q_r,
                                 0.8215, T11, 7.523, T3)
        at_T2 = K.retailer_stock(7.523, fW, s, params.eta, B1, B2, Q_r,
                                 0.8215, T11, 7.523, T3)
        assert abs(at_T3) <= 1e-9 * Q_r
        assert at_T2 == pytest.approx(Q_r, rel=1e-9)


def _reference_decisions():
    return DecisionVector(T0=T0_REF, xi1=0.0, xi2=0.0, G=7.7565, W_r=292.28)


class TestCosts:
    def test_production_cost_reference(self, params):
        b = compute_breakdown(params, _reference_decisions())
        assert b.PC_m == pytest.approx(74542.5, rel=1e-12)

    def test_penalty_cost_vanishes_without_escaped_defectives(self, params):
        p = params.replace(beta2=0.0)
        b = compute_breakdown(p, _reference_decisions())
        assert b.PeC_m == 0.0

    def test_setup_cost_is_config_sum(self, params):
        p = params.replace(C_op=40.0, C_or=60.0)
        b = compute_breakdown(p, _reference_decisions())
        assert b.StC_m == 100.0

    def test_holding_cost_matches_quadrature(self, params):
        dec = _reference_decisions()
        schedule = compute_schedule(params, dec)
        b = compute_breakdown(params, dec)

        def stock(ts):
            return np.array([model.manufacturer_inventory(
                float(t), params, dec.T0, schedule.theta_m) for t in ts])

        quad = (simpson(stock, 0.0, schedule.T1, 1500)
                + simpson(stock, schedule.T1, schedule.T2, 1500))
        assert b.HC_m1 == pytest.approx(params.h_p * quad, rel=1e-6)
        # deterioration cost shares the integral but at the base rate
        assert b.DC_m1 == pytest.approx(params.d_cp * params.theta1 * quad,
                                        rel=1e-6)

    def test_retailer_costs_reference(self, params):
        b = compute_breakdown(params, _reference_decisions())
        assert b.OC_r == 130.0
        schedule = compute_schedule(params, _reference_decisions())
        assert b.SC_r == pytest.approx(
            0.5 * schedule.s * schedule.T1 * params.C_s, rel=1e-12)

    def test_shortage_cost_vanishes_with_demand(self, params):
        dec = DecisionVector(T0=T0_REF, xi1=0.0, xi2=0.0, G=1.0,
                             W_r=params.a / params.b - 1e-9)
        b = compute_breakdown(params, dec)
        assert b.SC_r == pytest.approx(0.0, abs=1e-6)

    def test_retailer_holding_matches_quadrature(self, params):
        dec = _reference_decisions()
        schedule = compute_schedule(params, dec)
        b = compute_breakdown(params, dec)
        fW = schedule.f_Wr

        def stock(ts):
            return np.array([K.retailer_stock(
                float(t), fW, schedule.s, params.eta, schedule.B1, schedule.B2,
                schedule.Q_r, schedule.T1, schedule.T11, schedule.T2,
                schedule.T3) for t in ts])

        quad = (simpson(stock, schedule.T11, schedule.T2, 1500)
                + simpson(stock, schedule.T2, schedule.T3, 1500))
        assert b.HC_r == pytest.approx(params.h_r * quad, rel=1e-6)

    def test_penalty_cost_linear_in_type2_error(self, params):
        dec = _reference_decisions()
        values = []
        for b2 in (0.02, 0.04, 0.08):
            b = compute_breakdown(params.replace(beta2=b2), dec)
            values.append(b.PeC_m / b2)
        assert values[0] == pytest.approx(values[1], rel=1e-12)
        assert values[1] == pytest.approx(values[2], rel=1e-12)


class TestEmissions:
    def test_zero_factor_zero_emission(self, params):
        b = compute_breakdown(params.replace(E_p=0.0), _reference_decisions())
        assert b.e_m1 == 0.0

    def test_shared_integral_identities(self, params):
        b = compute_breakdown(params, _reference_decisions())
        assert b.e_m2 / params.E_h1 == pytest.approx(b.HC_m1 / params.h_p,
                                                     rel=1e-12)
        assert b.e_r1 / params.E_hr == pytest.approx(b.HC_r / params.h_r,
                                                     rel=1e-12)
        assert b.e_r2 == pytest.approx(
            params.E_dr * b.DC_r / params.d_cr, rel=1e-12)
        assert b.CarC_m == pytest.approx(
            b.e_m1 + b.e_m2 + b.e_m3 + b.e_m4 + b.e_m5 + b.e_m6, rel=1e-12)
        assert b.CarC_r == pytest.approx(b.e_r1 + b.e_r2, rel=1e-12)

    def test_transport_emission_reference(self):
        # direct product at the rounded reference schedule
        assert 25 * 0.11 * 400 * (7.523 - 0.8215) == pytest.approx(7371.65)

    def test_all_components_nonnegative(self, params):
        b = compute_breakdown(params, _reference_decisions())
        for name, value in b.to_dict().items():
            assert value >= 0.0, name


class TestBaseProfits:
    def test_goodwill_scaling_exact(self, params):
        dec = _reference_decisions()
        pr = base_profits(params, dec)
        assert pr.phi_r == (1.0 - params.f_r) * pr.phi_r_raw
        assert pr.phi_T == pr.phi_m + pr.phi_r
        pr0 = base_profits(params.replace(f_r=0.0), dec)
        assert pr0.phi_r == pr0.phi_r_raw

    def test_profit_consistent_with_breakdown(self, params):
        dec = _reference_decisions()
        pr = base_profits(params, dec)
        b = compute_breakdown(params, dec)
        s = compute_schedule(params, dec)
        manual_m = (b.SR_m - (b.PC_m + b.StC_m + b.PeC_m + b.RC_m + b.PreC_m
                              + b.ScC_m + b.HC_m1 + b.HC_m2 + b.DC_m1
                              + b.DC_m2)) / s.T2
        assert pr.phi_m == pytest.approx(manual_m, rel=1e-12)


class TestMonotonicity:
    def test_preservation_lengthens_the_cycle(self, params):
        # slower decay keeps the lot alive longer, so the cycle end grows
        # with the preservation investment at fixed production time
        T2s = []
        for xi1 in (0.0, 50.0, 150.0, 400.0):
            theta_m, _ = deterioration_rates(params, xi1, 0.0)
            _, T2, _ = manufacturer_schedule(params, T0_REF, theta_m)
            T2s.append(T2)
        assert all(b > a for a, b in zip(T2s, T2s[1:]))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_random_admissible_point_is_internally_consistent(seed):
    rng = np.random.default_rng(seed)
    p, d = sample_admissible(rng, 1)[0]
    schedule = compute_schedule(p, d)
    assert 0 < d.T0 <= schedule.T1 <= schedule.T2 <= schedule.T3
    assert schedule.Q_m > 0 and schedule.Q_r > 0
    assert schedule.P_e + schedule.P_de == pytest.approx(p.P, rel=1e-12)
    profits = base_profits(p, d)
    assert profits.phi_r == (1.0 - p.f_r) * profits.phi_r_raw


@pytest.mark.parametrize("value", [True, "0.6626", None, 10**400],
                         ids=["bool", "string", "null", "huge_int"])
def test_decision_from_dict_takes_only_real_numbers(value):
    doc = {"T0": T0_REF, "xi1": 0.0, "xi2": 0, "G": np.float64(1.0),
           "W_r": 292.28}
    assert DecisionVector.from_dict(doc).as_array().tolist() == [
        T0_REF, 0.0, 0.0, 1.0, 292.28]
    with pytest.raises(ParameterError, match="T0"):
        DecisionVector.from_dict({**doc, "T0": value})
