import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from greenchain import ModelParameters, make_batch_objective, sensitivity
from greenchain.cli import main
from greenchain.optimize import (ALGORITHMS, OptimizerConfig, RunResult,
                                 SearchSpace, binomial_crossover,
                                 de_mutate_current_to_rand,
                                 de_mutate_rand_to_best, default_search_space,
                                 multi_seed_run, multi_seed_stats, pso_update,
                                 run, run_many)
from greenchain.optimize import _mutation_indices, _reflect
from greenchain.policy import POLICY_IDS
import oracles
from oracles import (incumbent_reference, mutation_indices_reference,
                     run_many_reference)


def sphere_objective(X):
    X = np.atleast_2d(X)
    v = -np.sum(X ** 2, axis=1)
    return v, np.zeros_like(v), np.ones(len(v), dtype=bool)


def constant_objective(X):
    X = np.atleast_2d(X)
    v = np.full(len(X), 5.0)
    return v, np.zeros_like(v), np.ones(len(X), dtype=bool)


@pytest.fixture
def cube():
    return SearchSpace(lower=-5.12 * np.ones(5), upper=5.12 * np.ones(5))


class TestMutation:
    def test_rand_to_best_arithmetic(self):
        v = de_mutate_rand_to_best([0, 0], [1, 1], [2, 0], [0, 2],
                                   F=0.6, R=0.5)
        np.testing.assert_allclose(v, [1.7, -0.7])

    def test_difference_term_vanishes(self):
        v = de_mutate_rand_to_best([1, 2], [3, 4], [5, 6], [5, 6],
                                   F=0.6, R=0.25)
        np.testing.assert_allclose(v, [1 + 0.25 * 2, 2 + 0.25 * 2])

    def test_fixed_point(self):
        v = de_mutate_rand_to_best([2, 3], [2, 3], [1, 1], [1, 1],
                                   F=0.6, R=0.9)
        np.testing.assert_allclose(v, [2, 3])

    def test_current_to_rand_blend(self):
        v = de_mutate_current_to_rand([0, 0], [4, 8], [1, 1], [1, 1],
                                      F=0.6, R=0.5)
        np.testing.assert_allclose(v, [2, 4])

    def test_current_to_rand_zero_scale(self):
        v = de_mutate_current_to_rand([1, 1], [3, 3], [9, 9], [2, 2],
                                      F=0.0, R=0.5)
        np.testing.assert_allclose(v, [2, 2])


class _CountingRng:
    """Forwards `integers` to a generator and counts the calls."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self.rng.integers(*args, **kwargs)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 63 - 1), NP=st.integers(5, 80),
       n_aux=st.sampled_from([2, 3]), calls=st.integers(1, 4))
def test_mutation_indices_replay_the_scalar_stream(seed, NP, n_aux, calls):
    bulk, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(calls):
        np.testing.assert_array_equal(_mutation_indices(bulk, NP, n_aux),
                                      mutation_indices_reference(scalar, NP, n_aux))
        assert bulk.bit_generator.state == scalar.bit_generator.state


def test_mutation_indices_top_up_keeps_the_stream():
    # NP = 5 with three partners rejects often: this seed needs 32 draws,
    # more than twice the 15 the loop draws first, so it tops up repeatedly.
    counting = _CountingRng(np.random.default_rng(8))
    expected = mutation_indices_reference(counting, 5, 3)
    assert counting.calls > 2 * 5 * 3
    rng = np.random.default_rng(8)
    np.testing.assert_array_equal(_mutation_indices(rng, 5, 3), expected)
    assert rng.bit_generator.state == counting.rng.bit_generator.state
    # The replay rests on this: one array draw is the scalar draws' stream.
    bulk, scalar = np.random.default_rng(8), np.random.default_rng(8)
    assert bulk.integers(5, size=40).tolist() == [int(scalar.integers(5))
                                                   for _ in range(40)]
    assert bulk.bit_generator.state == scalar.bit_generator.state


def crossover_draws(seed, shape):
    """The crossover's draws for (..., n, d) populations, taken from one
    generator as DE takes them: every uniform, then one forced column
    per row."""
    rng = np.random.default_rng(seed)
    return rng.random(shape), rng.integers(shape[-1], size=shape[:-1])


class TestCrossover:
    def test_full_crossover_copies_donor(self):
        target, donor = np.zeros((3, 5)), np.arange(15.0).reshape(3, 5)
        np.testing.assert_array_equal(
            binomial_crossover(target, donor, 1.0, *crossover_draws(0, (3, 5))), donor)

    def test_zero_rate_forces_exactly_one_component(self):
        target, donor = np.zeros((50, 6)), np.ones((50, 6))
        uniforms, forced = crossover_draws(0, (50, 6))
        trial = binomial_crossover(target, donor, 0.0, uniforms, forced)
        np.testing.assert_array_equal(trial, np.eye(6)[forced])

    def test_empirical_donor_rate(self):
        d, n, Pc = 5, 20_000, 0.8
        target, donor = np.zeros((n, d)), np.ones((n, d))
        taken = binomial_crossover(target, donor, Pc, *crossover_draws(42, (n, d))).sum()
        rate = taken / (n * d)
        assert rate == pytest.approx(Pc + (1 - Pc) / d, abs=0.01)

    def test_matches_the_generator_drawing_crossover(self):
        # Draws taken ahead give the trial the generator-drawing crossover
        # gives, and one call over stacked runs crosses each run alone.
        rng = np.random.default_rng(3)
        target, donor = rng.normal(size=(2, 3, 12, 5))
        uniforms, forced = crossover_draws(8, (3, 12, 5))
        stacked = binomial_crossover(target, donor, 0.6, uniforms, forced)
        for k in range(3):
            alone = binomial_crossover(target[k], donor[k], 0.6, uniforms[k], forced[k])
            assert stacked[k].tobytes() == alone.tobytes()
        one_run = np.random.default_rng(8)
        reference = oracles.binomial_crossover(target[0], donor[0], 0.6, one_run)
        assert binomial_crossover(target[0], donor[0], 0.6, *crossover_draws(
            8, (12, 5))).tobytes() == reference.tobytes()


def test_reflection_matches_the_per_call_spans():
    rng = np.random.default_rng(5)
    lower, upper = np.array([0.0, -1.0, 2.0]), np.array([1.0, 3.0, 2.5])
    X = rng.uniform(-20.0, 20.0, (40, 3))
    span = upper - lower
    folded = _reflect(X, lower, span, 2.0 * span)
    assert folded.tobytes() == oracles._reflect(X, lower, upper).tobytes()
    assert np.all((folded >= lower) & (folded <= upper))


class TestPsoUpdate:
    def test_hand_arithmetic(self):
        X, V = pso_update(np.array([0.0]), np.array([1.0]), np.array([2.0]),
                          np.array([4.0]), 0.7, 2.0, 2.0, 0.5, 0.5)
        np.testing.assert_allclose(V, [6.7])
        np.testing.assert_allclose(X, [6.7])

    def test_attraction_vanishes_at_consensus(self):
        x = np.array([1.0, 2.0])
        X, V = pso_update(x, np.array([3.0, 4.0]), x, x, 0.7, 2.0, 2.0,
                          0.5, 0.5)
        np.testing.assert_allclose(V, 0.7 * np.array([3.0, 4.0]))

    def test_stationary_particle(self):
        x = np.array([1.0])
        X, V = pso_update(x, np.array([0.0]), x, x, 0.7, 2.0, 2.0, 0.5, 0.5)
        assert V[0] == 0.0 and X[0] == 1.0


class TestRuns:
    @pytest.mark.parametrize("algo", ["de1", "de2", "pso"])
    def test_sphere_reaches_tolerance(self, cube, algo):
        cfg = OptimizerConfig(algorithm=algo, seed=7)
        result = run(cube, cfg, sphere_objective)
        assert -result.best_value <= 1e-6
        assert result.feasible

    def test_constant_objective_keeps_initial_best(self, cube):
        cfg = OptimizerConfig(algorithm="de1", seed=3, max_iter=20)
        rng = np.random.default_rng(3)
        first_pop = cube.lower + rng.random((cfg.pop_size, 5)) \
            * (cube.upper - cube.lower)
        result = run(cube, cfg, constant_objective)
        assert result.best_value == 5.0
        assert np.all(result.history == 5.0)
        assert any(np.array_equal(result.x_best, row) for row in first_pop)

    @pytest.mark.parametrize("algo", ["de1", "de2", "pso"])
    def test_deterministic_given_seed(self, cube, algo):
        cfg = OptimizerConfig(algorithm=algo, seed=99, max_iter=30)
        r1 = run(cube, cfg, sphere_objective)
        r2 = run(cube, cfg, sphere_objective)
        assert np.array_equal(r1.x_best, r2.x_best)
        assert np.array_equal(r1.history, r2.history)
        assert r1.best_fitness == r2.best_fitness

    @pytest.mark.parametrize("algo", ["de1", "pso"])
    def test_every_candidate_respects_bounds(self, cube, algo):
        seen = []

        def recording(X):
            seen.append(np.array(X))
            return sphere_objective(X)

        cfg = OptimizerConfig(algorithm=algo, seed=5, max_iter=40)
        run(cube, cfg, recording)
        allX = np.vstack(seen)
        assert np.all(allX >= cube.lower - 1e-12)
        assert np.all(allX <= cube.upper + 1e-12)

    def test_history_monotone_nondecreasing(self, cube):
        for algo in ("de1", "de2", "pso"):
            cfg = OptimizerConfig(algorithm=algo, seed=2, max_iter=60)
            result = run(cube, cfg, sphere_objective)
            assert np.all(np.diff(result.history) >= 0.0)
            assert len(result.history) == 61

    def test_zero_iterations_returns_initial_best(self, cube):
        for algo in ("de1", "de2", "pso"):
            cfg = OptimizerConfig(algorithm=algo, seed=4, max_iter=0)
            result = run(cube, cfg, sphere_objective)
            assert len(result.history) == 1
            assert result.evaluations == cfg.pop_size

    def test_seed_is_mandatory(self, cube):
        with pytest.raises(ValueError, match="seed is mandatory"):
            run(cube, OptimizerConfig(algorithm="pso"), sphere_objective)
        with pytest.raises(ValueError, match="seed is mandatory"):
            multi_seed_run(cube, OptimizerConfig(algorithm="pso"), sphere_objective, 2)

    def test_run_many_needs_no_config_seed(self, cube):
        # run_many seeds its runs from `seeds` alone.
        config = OptimizerConfig(algorithm="pso", max_iter=5)
        [result] = run_many([cube], config, [1], sphere_objective)
        alone = run(cube, dataclasses.replace(config, seed=1), sphere_objective)
        assert result.seed == 1
        assert np.array_equal(result.x_best, alone.x_best)
        assert np.array_equal(result.history, alone.history)

    @pytest.mark.parametrize("bad", [
        {"max_iter": -1}, {"penalty_double_every": 0}, {"pop_size": "50"},
        {"pop_size": 7.5}, {"pop_size": True}, {"max_iter": "10"}, {"max_iter": 2.5},
        {"penalty_double_every": 2.0}, {"penalty_coefficient": "big"},
        {"penalty_coefficient": float("inf")}, {"Pc": "0.5"}, {"m0": None},
        {"F": float("nan")}, {"c1": True}, {"c2": 10 ** 400},
        {"pop_size": 10 ** 15}, {"max_iter": 10 ** 15},
        {"penalty_coefficient": 0.0}, {"penalty_coefficient": -1.0}])
    def test_out_of_range_schedule_rejected(self, cube, bad):
        with pytest.raises(ValueError):
            run(cube, OptimizerConfig(algorithm="de1", seed=1, **bad),
                sphere_objective)

    @pytest.mark.parametrize("lower, upper", [
        (0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0), (0.0, np.nan)])
    def test_search_box_must_be_finite(self, lower, upper):
        with pytest.raises(ValueError, match="bound"):
            SearchSpace(lower=np.array([lower]), upper=np.array([upper]))

    def test_invalid_candidates_never_abort(self):
        # objective invalid on half the box: treated as fitness -inf
        def patchy(X):
            X = np.atleast_2d(X)
            v = -np.sum(X ** 2, axis=1)
            ok = X[:, 0] <= 0.5
            return np.where(ok, v, np.nan), np.zeros(len(X)), ok

        cube = SearchSpace(lower=-2 * np.ones(3), upper=2 * np.ones(3))
        cfg = OptimizerConfig(algorithm="de1", seed=8, max_iter=50)
        result = run(cube, cfg, patchy)
        assert result.feasible and result.x_best[0] <= 0.5
        assert -result.best_value < 1e-3

    def test_feasibility_preferred_over_raw_value(self):
        # raw value grows with x but everything past 0.5 violates
        def gated(X):
            X = np.atleast_2d(X)
            v = X[:, 0].copy()
            viol = np.maximum(X[:, 0] - 0.5, 0.0)
            return v, viol, np.ones(len(X), dtype=bool)

        cube = SearchSpace(lower=np.zeros(1), upper=np.ones(1))
        cfg = OptimizerConfig(algorithm="pso", seed=6, max_iter=100)
        result = run(cube, cfg, gated)
        assert result.feasible
        assert result.best_violation == 0.0
        assert result.best_value == pytest.approx(0.5, abs=1e-6)


class TestMultiSeed:
    def test_stats_conventions(self):
        def fake(fit):
            return RunResult(algorithm="de1", seed=0, x_best=np.zeros(1),
                             best_value=fit, best_fitness=fit,
                             best_violation=0.0, feasible=True,
                             history=np.array([fit]),
                             history_feasible=np.array([True]),
                             evaluations=1, wall_time_s=0.0)

        mx, mean, std = multi_seed_stats([fake(1.0), fake(2.0), fake(3.0)])
        assert (mx, mean, std) == (3.0, 2.0, 1.0)
        mx, mean, std = multi_seed_stats([fake(2.0), fake(2.0)])
        assert std == 0.0
        with pytest.raises(ValueError):
            multi_seed_stats([fake(1.0)])

    def test_seeds_are_consecutive(self, cube):
        cfg = OptimizerConfig(algorithm="pso", seed=10, max_iter=5)
        results = multi_seed_run(cube, cfg, sphere_objective, 3)
        assert [r.seed for r in results] == [10, 11, 12]


def test_trading_policy_multi_seed_spread(calibration):
    params = calibration.params
    space = default_search_space(params)
    objective = make_batch_objective(params, "cap_trade")
    results = multi_seed_run(space, OptimizerConfig(algorithm="pso", seed=2),
                             objective, 10)
    _, mean, std = multi_seed_stats(results)
    assert std / abs(mean) <= 1e-3


def test_default_search_space_brackets_price_cap():
    p = ModelParameters(v1=0.05, v2=0.05, C_Tax=1.0)
    space = default_search_space(p)
    assert space.upper[4] == p.a / p.b
    assert space.lower[4] == p.W_m
    assert space.dim == 5


def test_history_csv_round_trip(tmp_path):
    consts = {"v1": 0.04, "v2": 0.06, "C_Tax": 2.1}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"parameters": consts, "policy": "tax"}))
    assert main(["--config", str(config), "--out", str(tmp_path), "--seed", "1",
                 "optimize", "--algo", "pso", "--iters", "10"]) == 0
    p = ModelParameters(**consts)
    result = run(default_search_space(p),
                 OptimizerConfig(algorithm="pso", seed=1, max_iter=10),
                 make_batch_objective(p, "tax"))
    lines = (tmp_path / "history_pso_tax_seed1.csv").read_text().splitlines()
    assert lines[0] == "iteration,best_fitness,feasible"
    assert len(lines) == len(result.history) + 1
    fits = [float(line.split(",")[1]) for line in lines[1:]]
    np.testing.assert_array_equal(fits, result.history)
    feasible = [line.split(",")[2] for line in lines[1:]]
    assert feasible == [str(int(f)) for f in result.history_feasible]
    assert not list(tmp_path.glob("*.tmp"))


RUN_FIELDS = ("x_best", "best_value", "best_fitness", "best_violation",
              "feasible", "history", "history_feasible", "evaluations")


#: The doubling schedule the runs of `lockstep_entries` share.
LOCKSTEP_DOUBLE_EVERY = 3


def lockstep_entries():
    """Five (parameter set, search space) pairs, run with seeds 1-5.

    Entry 2 has no emission allowance and little room for green investment,
    so under `limited` it starts infeasible and its coefficient doubles
    until it finds a feasible point.  Entry 3 searches prices past a/b,
    where every row is inadmissible, so its coefficient doubles every
    LOCKSTEP_DOUBLE_EVERY generations to the end.  Entry 4 differs from
    entry 0 in P_r alone, as the levels of a sweep differ in one parameter;
    the lockstep objective passes the slots all five sets share as scalars.
    """
    a = ModelParameters(v1=0.0386, v2=0.0549, C_Tax=2.108, C_CT=2.108)
    b = ModelParameters(v1=0.05, v2=0.03, C_Tax=1.5, C_CT=2.5, U2=90.0)
    capped = a.replace(U2=0.0)
    base = default_search_space(a)
    low_green = SearchSpace(base.lower, np.where(np.arange(5) == 3, 0.5, base.upper))
    cap = b.a / b.b
    no_demand = SearchSpace(np.r_[base.lower[:4], cap + 1.0],
                            np.r_[base.upper[:4], cap + 20.0])
    return [
        (a, base),
        (b, default_search_space(b)),
        (capped, low_green),
        (b, no_demand),
        (a.replace(P_r=2400.0), base),
    ]


class TestLockstep:
    @pytest.mark.parametrize("policy", ["tax", "cap_trade", "limited"])
    @pytest.mark.parametrize("algo", ["de1", "de2", "pso"])
    def test_equals_separate_runs(self, algo, policy):
        entries = lockstep_entries()
        config = OptimizerConfig(algorithm=algo, seed=1, max_iter=40,
                                 penalty_double_every=LOCKSTEP_DOUBLE_EVERY)
        seeds = range(1, 6)
        together = run_many([space for _, space in entries], config, seeds,
                            make_batch_objective([p for p, _ in entries], policy))
        alone = [run(space, dataclasses.replace(config, seed=seed),
                     make_batch_objective(p, policy))
                 for (p, space), seed in zip(entries, seeds)]
        assert len(together) == len(alone) == 5
        for t, a in zip(together, alone):
            for name in RUN_FIELDS:
                assert np.array_equal(getattr(t, name), getattr(a, name)), name
        assert not together[3].feasible and together[3].best_value == -np.inf
        if policy == "limited":
            assert not together[2].history_feasible[0]
            assert together[2].feasible

    @pytest.mark.parametrize("call", [
        lambda cube, config: run_many([cube, cube], config, [1], sphere_objective),
        lambda cube, config: run_many([cube], config, [1, 2], sphere_objective),
        lambda cube, config: run_many([cube, cube], config, [1, None], sphere_objective),
        lambda cube, config: multi_seed_run(
            cube, dataclasses.replace(config, seed=None), sphere_objective, 2),
    ], ids=["seeds_shorter", "seeds_longer", "none_seed", "multi_seed_none"])
    def test_one_integer_seed_per_space(self, cube, call):
        # default_rng(None) would seed from the wall clock
        with pytest.raises(ValueError, match="seed"):
            call(cube, OptimizerConfig(algorithm="de1", seed=1, max_iter=2))

    def test_sweep_makes_one_objective_call_per_generation(self, monkeypatch,
                                                           params):
        calls = []
        build = sensitivity.make_batch_objective

        def counting(*args, **kwargs):
            objective = build(*args, **kwargs)

            def counted(X):
                calls.append(len(X))
                return objective(X)
            return counted

        monkeypatch.setattr(sensitivity, "make_batch_objective", counting)
        iters = 12
        rows = sensitivity.run_sweep(sensitivity.SweepSpec(
            parameter="C_p",
            optimizer=OptimizerConfig(algorithm="pso", seed=1, max_iter=iters)),
            params)
        assert len(rows) == 5 and all(r.feasible for r in rows)
        assert calls == [5 * 50] * (iters + 1)


#: Hypothesis seeds of the lockstep invariance property, one test case each.
LOCKSTEP_PROPERTY_SEEDS = range(3)


@st.composite
def lockstep_case(draw):
    """2-4 parameter sets around the reference constants, each with drawn
    P_r, C_p, theta1 and U2 and with kappa1/kappa2 sometimes at 2.0 or 0.5
    (NumPy's ** squares or roots a scalar exponent there), drawn run
    seeds, and a split of the runs into groups (group ids per run)."""
    base = ModelParameters(v1=0.0386, v2=0.0549, C_Tax=2.108, C_CT=2.108)
    scale = st.floats(0.8, 1.25)
    exponent = st.sampled_from((None, 2.0, 0.5))
    sets = []
    for _ in range(draw(st.integers(2, 4))):
        changes = {"P_r": base.P_r * draw(scale), "C_p": base.C_p * draw(scale),
                   "theta1": base.theta1 * draw(scale),
                   "U2": draw(st.sampled_from((0.0, base.U2)))}
        for name in ("kappa1", "kappa2"):
            value = draw(exponent)
            if value is not None:
                changes[name] = value
        sets.append(base.replace(**changes))
    k = len(sets)
    seeds = draw(st.lists(st.integers(0, 2 ** 31 - 1), min_size=k, max_size=k))
    groups = draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=k))
    return (draw(st.sampled_from(ALGORITHMS)), draw(st.sampled_from(sorted(POLICY_IDS))),
            sets, seeds, groups)


def _check_lockstep_invariance(case):
    algo, policy, sets, seeds, groups = case
    config = OptimizerConfig(algorithm=algo, pop_size=10, max_iter=6,
                             penalty_double_every=2)
    spaces = [default_search_space(p) for p in sets]
    together = run_many(spaces, config, seeds, make_batch_objective(sets, policy))
    split = {}
    for group in sorted(set(groups)):
        members = [k for k, g in enumerate(groups) if g == group]
        found = run_many([spaces[k] for k in members], config,
                         [seeds[k] for k in members],
                         make_batch_objective([sets[k] for k in members], policy))
        split.update(zip(members, found))
    for k, result in enumerate(together):
        for name in RUN_FIELDS + ("seed",):
            assert (np.asarray(getattr(result, name)).tobytes()
                    == np.asarray(getattr(split[k], name)).tobytes()), name
    # One objective over every set gives each set's rows bit for bit.
    X = np.random.default_rng(seeds[0]).uniform(
        spaces[0].lower, spaces[0].upper, (20, 5))
    stacked = make_batch_objective(sets, policy)(np.concatenate([X] * len(sets)))
    for k, p in enumerate(sets):
        for one, many in zip(make_batch_objective(p, policy)(X), stacked):
            assert one.tobytes() == many[20 * k:20 * (k + 1)].tobytes()


@pytest.mark.parametrize("hypothesis_seed", LOCKSTEP_PROPERTY_SEEDS)
def test_lockstep_results_do_not_depend_on_the_split(hypothesis_seed):
    """Any split of K runs into run_many calls gives bit-identical
    RunResults, and one-set and multi-set objectives identical rows."""
    check = given(case=lockstep_case())(_check_lockstep_invariance)
    seed(hypothesis_seed)(settings(max_examples=25, deadline=None,
                                   database=None)(check))()


def scripted_objective(seed):
    """A fresh objective over any box: values from the rows, rounded so
    that ties are common, and validity and violations (feasible slack or
    0, or positive) from a stream seeded with `seed`."""
    rng = np.random.default_rng(seed)

    def objective(X):
        n = len(X)
        valid = rng.random(n) < 0.8
        violations = np.where(rng.random(n) < 0.3, rng.choice([-0.5, 0.0], n),
                              rng.choice([0.25, 1.0, 2.0], n))
        values = np.round(-np.sum(X ** 2, axis=1), 1)
        return (np.where(valid, values, np.nan), np.where(valid, violations, np.nan),
                valid)

    return objective


@st.composite
def reference_case(draw):
    """One run_many call: the algorithm, K = 1-3 runs, 5-12 members, 0-15
    generations, the penalty schedule, the run seeds, and either the
    model's objective (sets that may start infeasible under `limited`) or
    a scripted one on per-run boxes.  Returns (config, spaces, seeds,
    make_objective)."""
    K = draw(st.integers(1, 3))
    config = OptimizerConfig(
        algorithm=draw(st.sampled_from(ALGORITHMS)), pop_size=draw(st.integers(5, 12)),
        max_iter=draw(st.integers(0, 15)),
        penalty_coefficient=draw(st.sampled_from([1e-3, 1.0, 1e6])),
        penalty_double_every=draw(st.integers(1, 5)))
    seeds = draw(st.lists(st.integers(0, 2 ** 63 - 1), min_size=K, max_size=K))
    if draw(st.booleans()):
        base = ModelParameters(v1=0.0386, v2=0.0549, C_Tax=2.108, C_CT=2.108)
        sets = [base.replace(U2=draw(st.sampled_from([0.0, base.U2])),
                             l3=draw(st.sampled_from([1.5, base.l3])))
                for _ in range(K)]
        policy = draw(st.sampled_from(sorted(POLICY_IDS)))
        return (config, [default_search_space(p) for p in sets], seeds,
                lambda: make_batch_objective(sets, policy))
    widths = draw(st.lists(st.sampled_from([0.5, 1.0, 4.0]), min_size=K, max_size=K))
    script = draw(st.integers(0, 2 ** 32 - 1))
    return (config, [SearchSpace(-w * np.ones(3), w * np.ones(3)) for w in widths],
            seeds, lambda: scripted_objective(script))


def _check_reference_loops(case):
    config, spaces, seeds, make_objective = case
    found = run_many(spaces, config, seeds, make_objective())
    expected = run_many_reference(spaces, config, seeds, make_objective())
    for result, reference in zip(found, expected, strict=True):
        for name in RUN_FIELDS + ("seed", "algorithm"):
            assert (np.asarray(getattr(result, name)).tobytes()
                    == np.asarray(getattr(reference, name)).tobytes()), name


#: Hypothesis seeds of the reference-loop property, one test case each.
REFERENCE_PROPERTY_SEEDS = range(3)


@pytest.mark.parametrize("hypothesis_seed", REFERENCE_PROPERTY_SEEDS)
def test_run_many_gives_the_reference_loops_results(hypothesis_seed):
    """One draw pass per generator, one crossover and reflection over the
    stacked runs and preallocated bookkeeping change no number: every
    RunResult field but the wall time equals the reference loops' bit for
    bit."""
    check = given(case=reference_case())(_check_reference_loops)
    seed(hypothesis_seed)(settings(max_examples=40, deadline=None,
                                   database=None)(check))()


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_penalty_coefficient_stops_at_the_largest_float(algo):
    # Doubled every generation from 1e6, the coefficient would pass the
    # largest float after about 1,003 doublings; the rows turn feasible
    # at call 1,011.
    calls = []

    def late_feasible(X):
        calls.append(len(X))
        n = len(X)
        return (-np.sum(X ** 2, axis=1), np.full(n, 0.0 if len(calls) > 1010 else 1.0),
                np.ones(n, dtype=bool))

    config = OptimizerConfig(algorithm=algo, seed=1, pop_size=5, max_iter=1100,
                             penalty_double_every=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run(SearchSpace(-np.ones(2), np.ones(2)), config, late_feasible)
    assert result.feasible and not result.history_feasible[1009]
    assert result.best_fitness == result.best_value
    assert np.isfinite(result.history).all()
    assert np.all(np.diff(result.history) >= 0.0)


@st.composite
def scripted_lockstep(draw):
    """K runs of one config, seeds 0..K-1, over scripted objective streams.

    Values are small integers, so ties are common; violations are either
    feasible (-0.5 or 0) or positive, and invalid rows carry NaN.
    """
    K = draw(st.integers(1, 4))
    iters = draw(st.integers(0, 8))
    config = OptimizerConfig(
        algorithm=draw(st.sampled_from(["de1", "de2", "pso"])), pop_size=5,
        max_iter=iters,
        penalty_coefficient=draw(st.sampled_from([1e-3, 1.0, 1e3])),
        penalty_double_every=draw(st.integers(1, 4)), seed=0)
    p_valid = draw(st.sampled_from([0.0, 0.6, 1.0]))
    p_feasible = draw(st.sampled_from([0.0, 0.04, 0.3]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    streams = []
    for _ in range(iters + 1):
        valid = rng.random(5 * K) < p_valid
        values = rng.integers(-3, 4, 5 * K).astype(float)
        violations = np.where(rng.random(5 * K) < p_feasible,
                              rng.choice([-0.5, 0.0], 5 * K),
                              rng.choice([0.25, 1.0, 2.0], 5 * K))
        streams.append((np.where(valid, values, np.nan),
                        np.where(valid, violations, np.nan), valid))
    return config, K, streams


@settings(max_examples=150, deadline=None)
@given(case=scripted_lockstep())
def test_incumbent_rule_matches_scalar_reference(case):
    config, K, streams = case
    calls = []

    def scripted(X):
        calls.append(X.copy())
        return streams[len(calls) - 1]

    space = SearchSpace(lower=np.zeros(2), upper=np.ones(2))
    results = run_many([space] * K, config, range(K), scripted)
    assert len(calls) == len(streams)
    for k, result in enumerate(results):
        block = slice(5 * k, 5 * k + 5)
        x, value, violation, feasible, history, history_feasible = incumbent_reference(
            [(X[block], *(a[block] for a in stream))
             for X, stream in zip(calls, streams)],
            config.penalty_coefficient, config.penalty_double_every)
        if x is None:   # nothing accepted: the final population's first row
            assert any(np.array_equal(result.x_best, X[5 * k]) for X in calls)
        else:
            assert np.array_equal(result.x_best, x)
        assert (result.best_value, result.best_violation, result.feasible) == (
            value, violation, feasible)
        assert np.array_equal(result.history, history)
        assert np.array_equal(result.history_feasible, history_feasible)
