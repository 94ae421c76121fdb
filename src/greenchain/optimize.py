"""Differential evolution (two mutation schemes) and particle swarm search.

Both optimizers maximize a batch objective ``f(X) -> (values, violations,
valid)`` over a box, with constraint handling by a quadratic exterior
penalty: ``fitness = value - c * max(violation, 0)**2``.  The coefficient
doubles every `penalty_double_every` generations while the incumbent best
is still infeasible.  Candidates the model rejects outright get fitness
-inf and never abort a run.

Incumbent rule (Deb's feasibility rule): a valid candidate with violation
<= 0 is feasible and beats every infeasible point; among feasible points
the larger value wins, among infeasible ones the larger fitness under the
current coefficient; ties keep the incumbent, then the earlier row.  The
history is the running maximum of the incumbent fitness.

Lockstep: ``run_many(spaces, config, seeds, objective)`` advances K runs
of one optimizer config together and makes one objective call per
generation on their stacked (K*NP, d) populations; ``multi_seed_run``
seeds them ``config.seed, config.seed+1, ...`` and ``run`` is its first.

Determinism: run k has its own PCG64 generator seeded from ``seeds[k]``.
Each generation it takes its draws in one pass, in a fixed order (DE:
mutation indices row by row by rejection, then the per-individual blend
factor R, then the crossover uniforms, then one forced column per row;
PSO: the two acceleration factors, per particle and dimension).  The rest
is elementwise per run (`_Runs`), so a run's result does not depend on
which runs share its call.
"""

from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import dataclass
from itertools import chain

import numpy as np

# DECISION_NAMES stays importable from here for callers of the optimizers.
from .model import DECISION_NAMES, DecisionVector  # noqa: F401
from .params import ModelParameters, ParameterError, to_count, to_real

#: The optimizer names `OptimizerConfig.algorithm` accepts.
ALGORITHMS = ("de1", "de2", "pso")
DE_DEFAULT_ITERS = 100
PSO_DEFAULT_ITERS = 300


@dataclass(frozen=True)
class SearchSpace:
    """Per-dimension box bounds, in DECISION_NAMES order."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=np.float64)
        upper = np.asarray(self.upper, dtype=np.float64)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("bounds must be 1-D arrays of equal length")
        if not np.all(lower < upper):
            raise ValueError("each lower bound must be below its upper bound")
        if not np.all(np.isfinite(lower) & np.isfinite(upper)):
            raise ValueError("search box bounds must be finite")

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


def _memory_bytes() -> int:
    """This machine's physical memory; the address space where the OS
    does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return sys.maxsize


def require_allocatable(name: str, count: int) -> None:
    """ValueError when even one float64 per item of a `count`-row array
    would not fit in this machine's memory: refused before anything is
    allocated, instead of a MemoryError partway."""
    memory = _memory_bytes()
    if 8 * (count + 1) > memory:
        raise ValueError(f"{name} {count} is too large: its arrays would not "
                         f"fit in this machine's {memory / 2 ** 30:.1f} GiB")


@dataclass
class OptimizerConfig:
    """Knobs for one optimizer run.

    Defaults: DE uses F = 0.6, Pc = 0.8, 50 members, 100 generations;
    PSO uses c1 = c2 = 2, inertia 0.7, 50 particles, 300 iterations.
    """

    algorithm: str = "pso"            # one of ALGORITHMS
    seed: int | None = None           # run and multi_seed_run: mandatory
    pop_size: int = 50
    max_iter: int | None = None       # None: 100 for DE, 300 for PSO
    F: float = 0.6                    # DE scale factor
    Pc: float = 0.8                   # DE crossover probability
    c1: float = 2.0                   # PSO cognitive coefficient
    c2: float = 2.0                   # PSO social coefficient
    m0: float = 0.7                   # PSO inertia weight
    penalty_coefficient: float = 1e6
    penalty_double_every: int = 50

    def resolved_iters(self) -> int:
        if self.max_iter is not None:
            return int(self.max_iter)
        return PSO_DEFAULT_ITERS if self.algorithm == "pso" else DE_DEFAULT_ITERS

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        integers = ("pop_size", "penalty_double_every") + (
            () if self.max_iter is None else ("max_iter",))
        reals = ("F", "Pc", "c1", "c2", "m0", "penalty_coefficient")
        wrong = []
        for name in integers + reals:
            try:
                (to_count if name in integers else to_real)(getattr(self, name), name)
            except ParameterError as exc:
                wrong.append(str(exc))
        if wrong:
            raise ValueError("; ".join(wrong))
        if self.pop_size < 5:
            raise ValueError("population size must be at least 5")
        if self.max_iter is not None and self.max_iter < 0:
            raise ValueError("iterations must be nonnegative")
        # A run holds float64 arrays of pop_size rows and of max_iter + 1
        # history rows.
        require_allocatable("pop_size", self.pop_size)
        if self.max_iter is not None:
            require_allocatable("max_iter", self.max_iter)
        if self.penalty_double_every < 1:
            raise ValueError("penalty_double_every must be at least 1")
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
    wall_time_s: float           # of the whole lockstep call

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


def binomial_crossover(target, donor, Pc: float, uniforms, forced):
    """Row-wise binomial crossover of (..., n, d) populations.

    A component comes from the donor where its uniform draw (`uniforms`,
    the populations' shape) is below Pc, and in each row's forced column
    j_rand (`forced`, shape (..., n)).  DE draws them per run: every
    uniform, then one j_rand per row.
    """
    d = np.shape(target)[-1]
    mask = (np.asarray(uniforms) < Pc) | (np.asarray(forced)[..., None] == np.arange(d))
    return np.where(mask, donor, target)


def pso_update(X, V, Pbest, Gbest, m0, c1, c2, r1, r2):
    """One velocity/position update; r1, r2 broadcast over particles."""
    X = np.asarray(X, dtype=np.float64)
    V_new = m0 * np.asarray(V) + c1 * r1 * (np.asarray(Pbest) - X) \
        + c2 * r2 * (np.asarray(Gbest) - X)
    return X + V_new, V_new


def _reflect(X: np.ndarray, lower: np.ndarray, span: np.ndarray,
             period: np.ndarray) -> np.ndarray:
    """Fold out-of-box coordinates back inside (triangle-wave reflection);
    `span` is ``upper - lower`` and `period` is ``2.0 * span``."""
    y = np.mod(X - lower, period)
    np.subtract(period, y, out=y, where=y > span)
    return np.add(lower, y, out=y)


def penalize(values, violations, valid, coeff):
    """Quadratic exterior penalty ``value - coeff * max(violation, 0)**2``.

    Equals the value on feasible points, slack included; invalid rows get
    -inf.  `coeff` is positive: a scalar, or one per run broadcasting
    against the values.  A penalty too large for a float gives -inf,
    which keeps the order.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        return np.where(valid, values - coeff * np.maximum(violations, 0.0) ** 2,
                        -math.inf)


def _mutation_indices(rng: np.random.Generator, NP: int, n_aux: int) -> np.ndarray:
    """Distinct partner indices per member (2 or 3), none the member itself.

    The draw sequence is a rejection loop, row by row: each partner is the
    next ``rng.integers(NP)``, drawn again while it repeats the member or
    an earlier partner (``tests/oracles.py`` keeps that loop as the
    reference).  An array draw is the same stream as that many scalar
    draws, so the loop reads array draws of one value per partner still
    missing: none goes past the loop's last draw, and the indices and the
    generator's final state are the loop's.
    """
    idx = []
    push = idx.append
    draw = chain.from_iterable(iter(
        lambda: rng.integers(NP, size=NP * n_aux - len(idx)).tolist(), None)).__next__
    for i in range(NP):
        a = draw()
        while a == i:
            a = draw()
        push(a)
        b = draw()
        while b == i or b == a:
            b = draw()
        push(b)
        if n_aux == 3:
            c = draw()
            while c == i or c == a or c == b:
                c = draw()
            push(c)
    return np.array(idx, dtype=np.int64).reshape(NP, n_aux)


class _Runs:
    """State of K lockstep runs: bounds, generators, penalties, incumbents
    and the remembered population.

    Populations and bounds are (K, NP, d) arrays; every per-run quantity
    is a (K, ...) array that broadcasts against them, so each run sees
    exactly the elementwise arithmetic it would see alone.  The
    incumbent of run k is ``x[k]``, with its raw ``value``, ``violation``,
    ``feasible`` flag and penalized fitness ``fit`` under ``coeff[k]``.
    Once every incumbent is feasible the runs are ``settled``: no coefficient
    doubles again, and only a better feasible candidate replaces one.
    The remembered population (DE's population, PSO's personal bests) is
    ``kept_X`` and its (K, NP) ``kept_*`` arrays from `evaluate`.
    """

    def __init__(self, spaces, config: OptimizerConfig, seeds):
        config.validate()
        spaces, seeds = list(spaces), list(seeds)
        if not spaces or len(seeds) != len(spaces):
            raise ValueError("need one seed per search space and at least one run")
        # default_rng(None) would seed from the wall clock.
        for seed in seeds:
            to_count(seed, "run seed")
        if any(s.dim != spaces[0].dim for s in spaces):
            raise ValueError("runs in one lockstep call must share the dimension")
        self.config, self.seeds = config, seeds
        self.K, self.NP, self.d = len(seeds), config.pop_size, spaces[0].dim
        self.iters = config.resolved_iters()
        # Bounds repeated per member: against a (K, 1, d) box NumPy loops
        # over rows of d = 5, which makes the clip and the reflection slow.
        self.lower = np.repeat(np.stack([s.lower for s in spaces])[:, None, :],
                               self.NP, axis=1)
        self.upper = np.repeat(np.stack([s.upper for s in spaces])[:, None, :],
                               self.NP, axis=1)
        self.span = self.upper - self.lower
        self.period = 2.0 * self.span
        self.rngs = [np.random.default_rng(seed) for seed in self.seeds]
        # Positive (`validate`) and only ever doubled.
        self.coeff = np.full(self.K, config.penalty_coefficient, dtype=np.float64)
        self.rows = np.arange(self.K)
        self.x = np.zeros((self.K, self.d))
        self.has_x = np.zeros(self.K, dtype=bool)
        self.value = np.full(self.K, -math.inf)
        self.violation = np.full(self.K, math.inf)
        self.feasible = np.zeros(self.K, dtype=bool)
        self.settled = False
        self.fit = np.full(self.K, -math.inf)
        # One row per objective call: the initial population, then each generation.
        self.history = np.empty((self.iters + 1, self.K))
        self.history_feasible = np.empty((self.iters + 1, self.K), dtype=bool)
        self.calls = 0
        self.start = time.perf_counter()

    def initial_population(self, objective) -> np.ndarray:
        """Uniform draws in each box, evaluated and remembered; returns them."""
        draws = np.stack([rng.random((self.NP, self.d)) for rng in self.rngs])
        X = self.lower + draws * self.span
        # The memory is written in place, so it owns its arrays.
        (self.kept_X, self.kept_values, self.kept_violations, self.kept_valid,
         self.kept_fit) = (a.copy() for a in (X, *self.evaluate(objective, X)))
        return X

    def evaluate(self, objective, X: np.ndarray):
        """One objective call on the stacked (K*NP, d) rows, penalized under
        each run's coefficient and offered to its incumbent.  Returns values,
        violations, validity and fitness, each (K, NP)."""
        shape = (self.K, self.NP)
        values, violations, valid = (a.reshape(shape)
                                     for a in objective(X.reshape(-1, self.d)))
        fitness = penalize(values, violations, valid, self.coeff[:, None])
        self._offer(X, values, violations, valid, fitness)
        self.history[self.calls] = self.fit
        self.history_feasible[self.calls] = self.feasible
        self.calls += 1
        return values, violations, valid, fitness

    def _offer(self, X, values, violations, valid, fitness) -> None:
        """Apply the incumbent rule to one generation of every run."""
        rows = self.rows
        best = np.where(valid & (violations <= 0.0), values, -math.inf)
        top = best.argmax(axis=1)
        settled = self.settled
        if settled:
            # Every incumbent is feasible, with violation 0.
            changed = best[rows, top] > self.value
            if not np.count_nonzero(changed):
                return
            pick = top
        else:
            # The value a feasible candidate must beat: -inf while infeasible.
            found = best[rows, top] > np.where(self.feasible, self.value, -math.inf)
            j = fitness.argmax(axis=1)
            fitter = ~(self.feasible | found) & (fitness[rows, j] > self.fit)
            changed = found | fitter
            # A candidate fitter than the incumbent has fitness > -inf: it is valid.
            pick = np.where(found, top, j)
            self.violation = np.where(found, 0.0, np.where(fitter, violations[rows, pick],
                                                           self.violation))
            self.feasible |= found
            self.settled = bool(self.feasible.all())
            self.has_x |= changed
        np.copyto(self.x, X[rows, pick], where=changed[:, None])
        np.copyto(self.value, values[rows, pick], where=changed)
        if settled:     # value - coeff * 0.0**2 is the value, bit for bit
            np.copyto(self.fit, self.value, where=changed)
        else:
            self._rescore(changed)

    def _rescore(self, runs: np.ndarray) -> None:
        """Incumbent fitness of the masked runs; -inf without a finite value."""
        np.copyto(self.fit, penalize(self.value, self.violation, np.isfinite(self.value),
                                     self.coeff), where=runs)

    def keep(self, X: np.ndarray, scored, improve: np.ndarray) -> None:
        """Write the rows of X that `improve` marks, (K, NP), and their
        `evaluate` arrays `scored` over the remembered population."""
        np.copyto(self.kept_X, X, where=improve[:, :, None])
        np.copyto(self.kept_fit, scored[3], where=improve)
        if not self.settled:    # else no doubling reads them
            for kept, new in zip((self.kept_values, self.kept_violations,
                                  self.kept_valid), scored):
                np.copyto(kept, new, where=improve)

    def double_penalties(self, gen: int) -> None:
        """On a doubling generation, double the coefficient of each run still
        infeasible and re-penalize its incumbent and remembered population.
        A coefficient stops at the largest finite float, where a feasible
        row's fitness is still its value."""
        if self.settled or gen % self.config.penalty_double_every:
            return
        due = ~self.feasible
        self.coeff[due] = np.minimum(self.coeff[due], sys.float_info.max / 2.0) * 2.0
        self._rescore(due)
        np.copyto(self.kept_fit, penalize(self.kept_values, self.kept_violations,
                                          self.kept_valid, self.coeff[:, None]),
                  where=due[:, None])

    def results(self, X: np.ndarray) -> list[RunResult]:
        """One result per run; the fallback x_best is the final row 0."""
        history = np.maximum.accumulate(self.history).T.copy()
        history_feasible = self.history_feasible.T.copy()
        x_best = np.where(self.has_x[:, None], self.x, X[:, 0])
        wall_time = time.perf_counter() - self.start
        return [RunResult(algorithm=self.config.algorithm, seed=seed, x_best=x_best[k],
                          best_value=float(self.value[k]), best_fitness=float(self.fit[k]),
                          best_violation=float(self.violation[k]),
                          feasible=bool(self.feasible[k]), history=history[k],
                          history_feasible=history_feasible[k],
                          evaluations=self.NP * self.calls, wall_time_s=wall_time)
                for k, seed in enumerate(self.seeds)]


def _de_run(runs: _Runs, objective) -> list[RunResult]:
    """Differential evolution with greedy one-to-one selection, K runs in lockstep."""
    K, NP, d, rows = runs.K, runs.NP, runs.d, runs.rows
    F, Pc = runs.config.F, runs.config.Pc

    runs.initial_population(objective)
    X, fitness = runs.kept_X, runs.kept_fit     # the population, kept in place

    n_aux = 2 if runs.config.algorithm == "de1" else 3
    # Run k's draws of one generation, in one pass: its partners, then one
    # array draw for R and the crossover uniforms, then the forced columns.
    idx = np.empty((K, NP, n_aux), dtype=np.int64)
    uniforms = np.empty((K, NP * (1 + d)))
    R, crossover = uniforms[:, :NP, None], uniforms[:, NP:].reshape(K, NP, d)
    forced = np.empty((K, NP), dtype=np.int64)
    offsets = NP * rows[:, None, None]      # run k's members are rows k*NP... of X
    for gen in range(1, runs.iters + 1):
        runs.double_penalties(gen)

        for k, rng in enumerate(runs.rngs):
            idx[k] = _mutation_indices(rng, NP, n_aux)
            rng.random(out=uniforms[k])
            forced[k] = rng.integers(d, size=NP)
        picks = np.take(X.reshape(-1, d), idx + offsets, axis=0)   # (K, NP, n_aux, d)
        if n_aux == 2:
            x_best = X[rows, np.argmax(fitness, axis=1)][:, None, :]
            donors = de_mutate_rand_to_best(X, x_best, picks[:, :, 0],
                                            picks[:, :, 1], F, R)
        else:
            donors = de_mutate_current_to_rand(X, picks[:, :, 0], picks[:, :, 1],
                                               picks[:, :, 2], F, R)
        trials = _reflect(binomial_crossover(X, donors, Pc, crossover, forced),
                          runs.lower, runs.span, runs.period)

        scored = runs.evaluate(objective, trials)
        runs.keep(trials, scored, scored[3] >= fitness)

    return runs.results(X)


def _pso_run(runs: _Runs, objective) -> list[RunResult]:
    """Particle swarm with clamp-to-bound and velocity zeroing, K runs in lockstep."""
    K, NP, d, rows = runs.K, runs.NP, runs.d, runs.rows
    w, c1, c2 = runs.config.m0, runs.config.c1, runs.config.c2

    X = runs.initial_population(objective)
    pbest_X, pbest_fit = runs.kept_X, runs.kept_fit     # kept in place
    V = np.zeros((K, NP, d))
    r = np.empty((K, 2, NP, d))
    # r1 then r2 per run: one (2, NP, d) draw is the same stream.
    draws = [(rng.random, r[k]) for k, rng in enumerate(runs.rngs)]

    for gen in range(1, runs.iters + 1):
        runs.double_penalties(gen)

        gbest = pbest_X[rows, pbest_fit.argmax(axis=1)][:, None, :]
        for draw, out in draws:
            draw(out=out)
        X_new, V = pso_update(X, V, pbest_X, gbest, w, c1, c2, r[:, 0], r[:, 1])
        X = np.clip(X_new, runs.lower, runs.upper)
        # A clipped coordinate stops.  `!=` also stops a NaN coordinate,
        # which the bound tests would not; its next velocity and position
        # are NaN from the position alone, so nothing downstream differs.
        np.copyto(V, 0.0, where=X != X_new)

        scored = runs.evaluate(objective, X)
        runs.keep(X, scored, scored[3] > pbest_fit)

    return runs.results(X)


def run_many(spaces, config: OptimizerConfig, seeds, objective) -> list[RunResult]:
    """Advance K independent runs of one config in lockstep, one objective
    call per generation.

    Run k searches `spaces[k]` from a generator seeded with the integer
    `seeds[k]`; `config.seed` seeds no run.  The objective receives the K
    populations stacked as (K*NP, d) rows, run k in block k, and must
    evaluate each row on its own.
    """
    runs = _Runs(spaces, config, seeds)
    return (_pso_run if config.algorithm == "pso" else _de_run)(runs, objective)


def run(space: SearchSpace, config: OptimizerConfig, objective) -> RunResult:
    """One run seeded with `config.seed`."""
    return multi_seed_run(space, config, objective, 1)[0]


def multi_seed_run(space: SearchSpace, config: OptimizerConfig, objective,
                   n_seeds: int) -> list[RunResult]:
    """Seeds config.seed, config.seed+1, ... run in lockstep."""
    seed = config.seed
    if seed is None:
        raise ValueError("seed is mandatory for optimizer runs")
    if n_seeds < 1:
        raise ValueError("n_seeds must be positive")
    require_allocatable("n_seeds", n_seeds)
    # The first run takes config.seed as given, so `run_many` checks it.
    return run_many([space] * n_seeds, config,
                    [seed, *(seed + i for i in range(1, n_seeds))], objective)


def multi_seed_stats(results: list[RunResult]) -> tuple[float, float, float]:
    """(max, mean, sample std with ddof=1) of the best fitness values."""
    if len(results) < 2:
        raise ValueError("need at least two results for statistics")
    vals = np.array([r.best_fitness for r in results], dtype=np.float64)
    return float(vals.max()), float(vals.mean()), float(vals.std(ddof=1))
