"""Differential evolution (two mutation schemes) and particle swarm search.

Both optimizers maximize a batch objective ``f(X) -> (values, violations,
valid)`` over a box, with constraint handling by a quadratic exterior
penalty: ``fitness = value - c * violation**2``.  The coefficient doubles
every `penalty_double_every` generations while the incumbent best is still
infeasible.  Candidates the model rejects outright get fitness -inf and
never abort a run.

Determinism: a single PCG64 generator seeded from ``config.seed`` drives
everything; draws happen in a fixed order per generation (DE: mutation
indices row by row, then the per-individual blend factor R, then the
crossover mask and forced column; PSO: the two acceleration factors, per
particle and dimension).  Fitness evaluation is vectorised, so results do
not depend on evaluation scheduling.  Multi-seed helpers use seeds
``seed, seed+1, ...``.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass

import numpy as np

from .model import DECISION_NAMES, DecisionVector
from .params import ModelParameters

DE_DEFAULT_ITERS = 100
PSO_DEFAULT_ITERS = 300


@dataclass(frozen=True)
class SearchSpace:
    """Per-dimension box bounds, in DECISION_NAMES order."""

    lower: np.ndarray
    upper: np.ndarray
    names: tuple = DECISION_NAMES

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=np.float64)
        upper = np.asarray(self.upper, dtype=np.float64)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("bounds must be 1-D arrays of equal length")
        if not np.all(lower < upper):
            raise ValueError("each lower bound must be below its upper bound")

    @property
    def dim(self) -> int:
        return self.lower.size


def default_search_space(params: ModelParameters) -> SearchSpace:
    """Bounds wide enough to bracket every policy optimum with margin.

    The retail price is capped at a/b so demand stays nonnegative on the
    whole box.
    """
    return SearchSpace(
        lower=np.array([1e-3, 0.0, 0.0, 0.01, params.W_m]),
        upper=np.array([2.0, 500.0, 500.0, 50.0, params.a / params.b]))


@dataclass
class OptimizerConfig:
    """Knobs for one optimizer run.

    Defaults: DE uses F = 0.6, Pc = 0.8, 50 members, 100 generations;
    PSO uses c1 = c2 = 2, inertia 0.7, 50 particles, 300 iterations.
    """

    algorithm: str = "pso"            # "de1" | "de2" | "pso"
    seed: int | None = None           # mandatory: no wall-clock seeding
    pop_size: int = 50
    max_iter: int | None = None       # None: 100 for DE, 300 for PSO
    F: float = 0.6                    # DE scale factor
    Pc: float = 0.8                   # DE crossover probability
    c1: float = 2.0                   # PSO cognitive coefficient
    c2: float = 2.0                   # PSO social coefficient
    m0: float = 0.7                   # PSO inertia weight
    inertia_final: float | None = None  # set (e.g. 0.4) for linear decay
    penalty_coefficient: float = 1e6
    penalty_double_every: int = 50

    def resolved_iters(self) -> int:
        if self.max_iter is not None:
            return int(self.max_iter)
        return PSO_DEFAULT_ITERS if self.algorithm == "pso" else DE_DEFAULT_ITERS

    def validate(self) -> None:
        if self.algorithm not in ("de1", "de2", "pso"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.seed is None:
            raise ValueError("seed is mandatory for optimizer runs")
        if self.pop_size < 5:
            raise ValueError("population size must be at least 5")
        if not 0.0 <= self.Pc <= 1.0:
            raise ValueError("crossover probability must lie in [0, 1]")
        if self.penalty_coefficient <= 0:
            raise ValueError("penalty coefficient must be positive")


@dataclass
class RunResult:
    """Outcome of one optimizer run."""

    algorithm: str
    seed: int
    x_best: np.ndarray
    best_value: float            # raw objective at the incumbent
    best_fitness: float          # penalized fitness at the incumbent
    best_violation: float
    feasible: bool
    history: np.ndarray          # best-so-far fitness, one entry per iteration
    history_feasible: np.ndarray  # incumbent feasibility per iteration
    evaluations: int
    wall_time_s: float

    @property
    def decisions(self) -> DecisionVector:
        return DecisionVector.from_array(self.x_best)


def de_mutate_rand_to_best(x_i, x_best, x_a, x_b, F: float, R):
    """Donor vector(s) pulled toward the incumbent best.

    Broadcasts: rows of a population with R as an (n, 1) column.
    """
    x_i = np.asarray(x_i, dtype=np.float64)
    return x_i + R * (np.asarray(x_best) - x_i) + F * (np.asarray(x_a) - np.asarray(x_b))


def de_mutate_current_to_rand(x_i, x_a, x_b, x_c, F: float, R):
    """Donor vector(s) blended toward a random member (broadcasts like above)."""
    x_i = np.asarray(x_i, dtype=np.float64)
    return x_i + R * (np.asarray(x_a) - x_i) + F * (np.asarray(x_b) - np.asarray(x_c))


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


def pso_update(X, V, Pbest, Gbest, m0, c1, c2, r1, r2):
    """One velocity/position update; r1, r2 broadcast over particles."""
    X = np.asarray(X, dtype=np.float64)
    V_new = m0 * np.asarray(V) + c1 * r1 * (np.asarray(Pbest) - X) \
        + c2 * r2 * (np.asarray(Gbest) - X)
    return X + V_new, V_new


def _reflect(X: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Fold out-of-box coordinates back inside (triangle-wave reflection)."""
    span = upper - lower
    y = np.mod(X - lower, 2.0 * span)
    y = np.where(y > span, 2.0 * span - y, y)
    return lower + y


def penalize(values, violations, valid, coeff: float):
    """Quadratic exterior penalty ``value - coeff * violation**2``.

    Equals the value on feasible points; rows marked invalid get -inf.
    """
    if not coeff > 0:
        raise ValueError("penalty coefficient must be positive")
    with np.errstate(invalid="ignore"):
        return np.where(valid, values - coeff * violations ** 2, -math.inf)


class _Incumbent:
    """Best-so-far bookkeeping with feasibility preference.

    A feasible point always outranks every infeasible one; among feasible
    points the raw value decides, among infeasible ones the penalized
    fitness under the current coefficient.  The recorded history is the
    running maximum of the incumbent fitness, so it stays nondecreasing
    across penalty-coefficient updates.
    """

    def __init__(self):
        self.x = None
        self.value = -math.inf
        self.violation = math.inf
        self.feasible = False
        self.history: list[float] = []
        self.history_feasible: list[bool] = []

    def offer(self, X, values, violations, valid, coeff):
        fitness = penalize(values, violations, valid, coeff)
        feas = valid & (violations <= 0.0)
        if np.any(feas):
            i = int(np.argmax(np.where(feas, values, -math.inf)))
            if not self.feasible or values[i] > self.value:
                self.x = X[i].copy()
                self.value = float(values[i])
                self.violation = 0.0
                self.feasible = True
        if not self.feasible:
            i = int(np.argmax(fitness))
            if fitness[i] > self.fitness(coeff):
                self.x = X[i].copy()
                self.value = float(values[i]) if valid[i] else -math.inf
                self.violation = float(violations[i]) if valid[i] else math.inf
        return fitness

    def fitness(self, coeff: float) -> float:
        if self.x is None or not math.isfinite(self.value):
            return -math.inf
        return float(penalize(self.value, self.violation, True, coeff))

    def record(self, coeff: float) -> None:
        fit = self.fitness(coeff)
        if self.history and fit < self.history[-1]:
            fit = self.history[-1]
        self.history.append(fit)
        self.history_feasible.append(self.feasible)

    def result(self, algorithm, seed, evals, start, fallback_x, coeff) -> RunResult:
        return RunResult(
            algorithm=algorithm, seed=seed,
            x_best=self.x if self.x is not None else fallback_x,
            best_value=self.value, best_fitness=self.fitness(coeff),
            best_violation=self.violation, feasible=self.feasible,
            history=np.asarray(self.history),
            history_feasible=np.asarray(self.history_feasible, dtype=bool),
            evaluations=evals, wall_time_s=time.perf_counter() - start)


def de_run(space: SearchSpace, config: OptimizerConfig, objective) -> RunResult:
    """Differential evolution with greedy one-to-one selection."""
    config.validate()
    if config.algorithm not in ("de1", "de2"):
        raise ValueError("de_run requires algorithm 'de1' or 'de2'")
    rng = np.random.default_rng(config.seed)
    NP, d = config.pop_size, space.dim
    iters = config.resolved_iters()
    coeff = config.penalty_coefficient
    start = time.perf_counter()

    X = space.lower + rng.random((NP, d)) * (space.upper - space.lower)
    values, violations, valid = objective(X)
    evals = NP
    best = _Incumbent()
    fitness = best.offer(X, values, violations, valid, coeff)
    best.record(coeff)

    n_aux = 2 if config.algorithm == "de1" else 3
    for gen in range(1, iters + 1):
        if gen % config.penalty_double_every == 0 and not best.feasible:
            coeff *= 2.0
            fitness = penalize(values, violations, valid, coeff)

        idx = np.empty((NP, n_aux), dtype=np.int64)
        for i in range(NP):
            chosen = {i}
            for k in range(n_aux):
                j = int(rng.integers(NP))
                while j in chosen:
                    j = int(rng.integers(NP))
                chosen.add(j)
                idx[i, k] = j
        R = rng.random(NP)[:, None]
        if config.algorithm == "de1":
            donors = de_mutate_rand_to_best(X, X[int(np.argmax(fitness))],
                                            X[idx[:, 0]], X[idx[:, 1]], config.F, R)
        else:
            donors = de_mutate_current_to_rand(X, X[idx[:, 0]], X[idx[:, 1]],
                                               X[idx[:, 2]], config.F, R)
        trials = _reflect(binomial_crossover(X, donors, config.Pc, rng),
                          space.lower, space.upper)

        t_values, t_violations, t_valid = objective(trials)
        evals += NP
        t_fitness = penalize(t_values, t_violations, t_valid, coeff)
        improve = t_fitness >= fitness
        X[improve] = trials[improve]
        values = np.where(improve, t_values, values)
        violations = np.where(improve, t_violations, violations)
        valid = np.where(improve, t_valid, valid)
        fitness = np.where(improve, t_fitness, fitness)

        best.offer(trials, t_values, t_violations, t_valid, coeff)
        best.record(coeff)

    return best.result(config.algorithm, config.seed, evals, start, X[0].copy(), coeff)


def pso_run(space: SearchSpace, config: OptimizerConfig, objective) -> RunResult:
    """Particle swarm with clamp-to-bound and velocity zeroing."""
    config.validate()
    if config.algorithm != "pso":
        raise ValueError("pso_run requires algorithm 'pso'")
    rng = np.random.default_rng(config.seed)
    NP, d = config.pop_size, space.dim
    iters = config.resolved_iters()
    coeff = config.penalty_coefficient
    start = time.perf_counter()

    X = space.lower + rng.random((NP, d)) * (space.upper - space.lower)
    V = np.zeros((NP, d))
    values, violations, valid = objective(X)
    evals = NP
    best = _Incumbent()
    fitness = best.offer(X, values, violations, valid, coeff)
    best.record(coeff)

    pbest_X = X.copy()
    pbest_values = values.copy()
    pbest_violations = violations.copy()
    pbest_valid = valid.copy()
    pbest_fit = fitness.copy()

    for gen in range(1, iters + 1):
        if gen % config.penalty_double_every == 0 and not best.feasible:
            coeff *= 2.0
            pbest_fit = penalize(pbest_values, pbest_violations, pbest_valid, coeff)

        if config.inertia_final is not None:
            w = config.m0 + (config.inertia_final - config.m0) * (gen - 1) / max(iters - 1, 1)
        else:
            w = config.m0
        gbest = pbest_X[int(np.argmax(pbest_fit))]
        r1 = rng.random((NP, d))
        r2 = rng.random((NP, d))
        X_new, V = pso_update(X, V, pbest_X, gbest, w, config.c1, config.c2, r1, r2)
        clipped = (X_new < space.lower) | (X_new > space.upper)
        X = np.clip(X_new, space.lower, space.upper)
        V = np.where(clipped, 0.0, V)

        values, violations, valid = objective(X)
        evals += NP
        fitness = penalize(values, violations, valid, coeff)
        improve = fitness > pbest_fit
        pbest_X[improve] = X[improve]
        pbest_values = np.where(improve, values, pbest_values)
        pbest_violations = np.where(improve, violations, pbest_violations)
        pbest_valid = np.where(improve, valid, pbest_valid)
        pbest_fit = np.where(improve, fitness, pbest_fit)

        best.offer(X, values, violations, valid, coeff)
        best.record(coeff)

    return best.result("pso", config.seed, evals, start, X[0].copy(), coeff)


def run(space: SearchSpace, config: OptimizerConfig, objective) -> RunResult:
    """Dispatch to the configured algorithm."""
    if config.algorithm == "pso":
        return pso_run(space, config, objective)
    return de_run(space, config, objective)


def multi_seed_run(space: SearchSpace, config: OptimizerConfig, objective,
                   n_seeds: int) -> list[RunResult]:
    """Repeat a run with seeds config.seed, config.seed+1, ..."""
    if n_seeds < 1:
        raise ValueError("n_seeds must be positive")
    results = []
    for k in range(n_seeds):
        results.append(run(space, dataclasses.replace(config, seed=config.seed + k),
                           objective))
    return results


def multi_seed_stats(results: list[RunResult]) -> tuple[float, float, float]:
    """(max, mean, sample std with ddof=1) of the best fitness values."""
    if len(results) < 2:
        raise ValueError("need at least two results for statistics")
    vals = np.array([r.best_fitness for r in results], dtype=np.float64)
    return float(vals.max()), float(vals.mean()), float(vals.std(ddof=1))
