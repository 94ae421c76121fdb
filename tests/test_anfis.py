import numpy as np
import pytest

from greenchain import DecisionVector, ModelParameters, evaluate_policy
from greenchain import anfis
from greenchain.anfis import (AnfisModel, FuzzySupportError, _solve,
                              corner_gradients, generate_dataset,
                              grid_partition, memberships, train_hybrid)

from oracles import anfis_training_reference

REFERENCE = {"v1": 0.0386, "v2": 0.0549, "C_Tax": 2.108, "C_CT": 2.108}
REFERENCE_DECISIONS = DecisionVector(T0=0.6626, xi1=167.8651, xi2=93.6741,
                                     G=7.7565, W_r=292.28)


@pytest.fixture
def model():
    return grid_partition(0.0, 1.0, 5, input_name="x")


class TestTrapezoid:
    def test_corner_ordering_enforced(self):
        with pytest.raises(ValueError):
            AnfisModel("x", (0.0, 3.0), [[1.0, 0.5, 2.0, 3.0]], ("m",))
        with pytest.raises(ValueError):
            AnfisModel("x", (0.0, 3.0), [[0.0, np.nan, 2.0, 3.0]], ("m",))

    def test_membership_shape(self):
        corners = np.array([[0.0, 1.0, 2.0, 3.0]])
        x = np.array([-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0])
        mu = memberships(corners, x)[0]
        np.testing.assert_allclose(mu, [0, 0, 0.5, 1, 1, 1, 0.5, 0, 0])
        assert np.all((mu >= 0) & (mu <= 1))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        corners = np.array([[0.1, 0.4, 0.6, 0.95]])
        x = rng.uniform(0.12, 0.93, 40)
        x = x[(np.abs(x - 0.4) > 1e-3) & (np.abs(x - 0.6) > 1e-3)]
        analytic = corner_gradients(corners, x)[0]
        h = 1e-7
        for k in range(4):
            step = np.zeros_like(corners)
            step[0, k] = h
            plus = memberships(corners + step, x)[0]
            minus = memberships(corners - step, x)[0]
            fd = (plus - minus) / (2 * h)
            np.testing.assert_allclose(analytic[k], fd, rtol=1e-4, atol=1e-6)


class TestArchitecture:
    def test_counts(self, model):
        audit = model.architecture()
        assert audit == {"nodes": 24, "rules": 5,
                         "linear_parameters": 10, "nonlinear_parameters": 20}

    def test_grid_partition_covers_domain(self, model):
        x = np.linspace(0.0, 1.0, 501)
        total = memberships(model.corners, x).sum(axis=0)
        assert np.all(total > 0.0)

    def test_labels(self, model):
        assert list(model.labels) == [
            "very low", "low", "medium", "high", "very high"]


class TestForward:
    def test_single_active_rule(self, model):
        model.p = np.arange(1.0, 6.0)
        model.q = np.arange(10.0, 15.0)
        # the leftmost plateau is covered by rule 0 alone
        x = model.corners[0, 1]
        assert model.forward(x) == pytest.approx(model.p[0] * x + model.q[0])

    def test_equal_weights_average_consequents(self):
        m = AnfisModel(input_name="x", domain=(0.0, 1.0),
                       corners=[[0.0, 0.0, 1.0, 1.0]] * 5,
                       labels=tuple(f"m{i}" for i in range(5)),
                       p=np.zeros(5), q=np.arange(5.0))
        assert m.forward(0.5) == pytest.approx(np.arange(5.0).mean())

    def test_constant_consequents(self, model):
        model.p = np.zeros(5)
        model.q = np.full(5, 7.25)
        x = np.linspace(0.0, 1.0, 100)
        np.testing.assert_allclose(model.forward(x), 7.25)

    def test_outside_support_raises(self, model):
        with pytest.raises(FuzzySupportError):
            model.forward(55.0)

    def test_strength_at_the_support_floor_raises(self):
        # total strength 1e-13: positive, but not above SUPPORT_FLOOR
        m = AnfisModel("x", (0.0, 3.0), [[0.0, 1.0, 2.0, 3.0]], ("m",))
        with pytest.raises(FuzzySupportError):
            m.forward(3.0 - 1e-13)

    def test_output_is_convex_combination_of_rule_outputs(self, model):
        rng = np.random.default_rng(8)
        model.p = rng.normal(size=5)
        model.q = rng.normal(size=5)
        for x in rng.uniform(0.0, 1.0, 200):
            w = memberships(model.corners, x)[:, 0]
            outs = model.p * x + model.q
            active = outs[w > 0]
            y = model.forward(float(x))
            assert active.min() - 1e-12 <= y <= active.max() + 1e-12


class TestTraining:
    def test_linear_target_exact_after_first_solve(self):
        x = np.linspace(0.0, 2.0, 41)
        y = 3.0 * x + 1.0
        m = grid_partition(0.0, 2.0, 5)
        m, history = train_hybrid(m, x, y, epochs=1)
        assert history[-1] <= 1e-6

    def test_self_consistency_round_trip(self):
        generator = grid_partition(0.0, 1.0, 5)
        rng = np.random.default_rng(5)
        generator.p = rng.normal(size=5)
        generator.q = rng.normal(size=5)
        x = np.linspace(0.0, 1.0, 101)
        y = generator.forward(x)
        trainee = grid_partition(0.0, 1.0, 5)
        trainee, history = train_hybrid(trainee, x, y, epochs=20)
        assert history[-1] <= 1e-8

    def test_rmse_history_nonincreasing(self):
        rng = np.random.default_rng(1)
        x = np.linspace(0.0, 1.0, 80)
        y = np.sin(3.0 * x) + 0.05 * rng.normal(size=x.size)
        m = grid_partition(0.0, 1.0, 5)
        m, history = train_hybrid(m, x, y, epochs=60)
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))
        assert history[-1] < history[0]

    def test_premise_gradient_matches_finite_differences(self):
        from greenchain.anfis import _premise_gradients

        rng = np.random.default_rng(9)
        m = grid_partition(0.0, 1.0, 5)
        m.p = rng.normal(size=5)
        m.q = rng.normal(size=5)
        x = rng.uniform(0.03, 0.97, 60)
        y = np.cos(2.0 * x)
        analytic = _premise_gradients(m.corners, x, y,
                                      _solve(m.corners, x, None, (m.p, m.q)))

        def sse(model):
            return float(np.sum((model.forward(x) - y) ** 2))

        h = 1e-6
        for k in range(m.n_rules):
            for j in range(4):
                saved = m.corners[k, j]
                m.corners[k, j] = saved + h
                up = sse(m)
                m.corners[k, j] = saved - h
                down = sse(m)
                m.corners[k, j] = saved
                fd = (up - down) / (2 * h)
                assert analytic[k, j] == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_ridge_fallback_on_rank_deficiency(self):
        # duplicate x values collapse the design matrix columns
        m = grid_partition(0.0, 1.0, 5)
        x = np.full(12, 0.5)
        y = np.full(12, 2.0)
        m.p, m.q = _solve(m.corners, x, y)[:2]
        assert np.all(np.isfinite(m.p)) and np.all(np.isfinite(m.q))
        assert m.forward(0.5) == pytest.approx(2.0, rel=1e-6)


def _training_cases():
    params = ModelParameters.from_dict(REFERENCE)
    x, y, _ = generate_dataset(params, REFERENCE_DECISIONS, "T0", 61, (0.05, 1.5))
    yield "reference", x, y, 100
    rng = np.random.default_rng(62)
    x = np.sort(rng.uniform(0.0, 2.0, 50))
    yield "drawn", x, np.sin(2.5 * x) + 0.1 * rng.normal(size=x.size), 60
    x = np.linspace(0.0, 2.0, 41)
    yield "linear", x, 3.0 * x + 1.0, 20
    yield "zero_gradient", x, np.zeros_like(x), 10
    x = np.repeat(np.linspace(0.0, 1.0, 4), 3)
    yield "duplicate_x", x, x ** 2, 15


@pytest.mark.parametrize("case", ["reference", "drawn", "linear",
                                  "zero_gradient", "duplicate_x"])
def test_training_matches_rule_by_rule_reference(case):
    """The corner-array training reproduces the rule-by-rule loop bit for bit.

    The reference dataset has steps that are dropped (the RMSE repeats);
    on the drawn one, squaring the trapezoid widths with NumPy instead of
    libm's pow changes the result; the zero target has a zero gradient;
    duplicate x takes the ridge fallback of the least-squares solve.
    """
    _, x, y, epochs = next(c for c in _training_cases() if c[0] == case)
    lo, hi = float(x.min()), float(x.max())
    model, history = train_hybrid(grid_partition(lo, hi, 5), x, y, epochs=epochs)
    ref_history, corners, p, q = anfis_training_reference(lo, hi, x, y, epochs)
    assert np.array(history).tobytes() == np.array(ref_history).tobytes()
    assert model.corners.tobytes() == corners.tobytes()
    assert model.p.tobytes() == p.tobytes() and model.q.tobytes() == q.tobytes()
    if case == "reference":
        assert sum(b == a for a, b in zip(history, history[1:])) == 13


def test_training_evaluates_memberships_once_per_solve(monkeypatch):
    # The premise gradient reads the forward pass of the accepted solve.
    calls = {"memberships": 0, "_solve": 0}
    for name in calls:
        def counted(*args, _real=getattr(anfis, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(anfis, name, counted)
    _, x, y, epochs = next(c for c in _training_cases() if c[0] == "reference")
    train_hybrid(grid_partition(float(x.min()), float(x.max()), 5), x, y,
                 epochs=epochs)
    assert calls == {"memberships": epochs, "_solve": epochs}


class TestDataset:
    def test_requested_number_of_pairs(self, params):
        dec = DecisionVector(T0=0.6626, xi1=167.8651, xi2=93.6741,
                             G=7.7565, W_r=292.28)
        x, y, skipped = generate_dataset(params, dec, "T0", 61, (0.1, 1.3))
        assert x.size == 61 and skipped == 0
        assert np.all(np.diff(x) > 0)

    def test_two_points_are_the_endpoints(self, params):
        dec = DecisionVector(T0=0.5, xi1=1.0, xi2=1.0, G=1.0, W_r=250.0)
        x, y, _ = generate_dataset(params, dec, "T0", 2, (0.2, 0.8))
        np.testing.assert_array_equal(x, [0.2, 0.8])

    def test_values_match_direct_evaluation(self, params):
        dec = DecisionVector(T0=0.5, xi1=1.0, xi2=1.0, G=1.0, W_r=250.0)
        x, y, _ = generate_dataset(params, dec, "T0", 7, (0.2, 0.8))
        for xi, yi in zip(x, y):
            direct = evaluate_policy(
                params, DecisionVector(**{**dec.to_dict(), "T0": float(xi)}),
                "tax")
            assert yi == direct.value

    def test_inadmissible_points_skipped_with_warning(self, params):
        dec = DecisionVector(T0=0.5, xi1=1.0, xi2=1.0, G=1.0, W_r=250.0)
        with pytest.warns(UserWarning, match="skipped 3"):
            x, y, skipped = generate_dataset(params, dec, "T0", 8,
                                             (-0.2, 0.4))
        assert skipped == 3 and x.size == 5


def test_json_round_trip(model):
    rng = np.random.default_rng(2)
    model.p = rng.normal(size=5)
    model.q = rng.normal(size=5)
    clone = AnfisModel.from_json(model.to_json())
    x = np.linspace(0.0, 1.0, 50)
    np.testing.assert_array_equal(clone.forward(x), model.forward(x))
    assert list(clone.labels) == list(model.labels)
