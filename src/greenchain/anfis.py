"""Single-input first-order Sugeno fuzzy model with hybrid training.

Five trapezoidal membership functions (very low .. very high) feed five
rules with linear consequents; the output is the firing-strength weighted
average.  Training alternates a linear least-squares solve of the
consequents with one normalised gradient-descent step on the trapezoid
corners, accepting the step only when it lowers the RMSE (otherwise the
step is reverted and the learning rate halves), so the recorded RMSE
history never increases.

The architecture is audited structurally: with five rules the network has
24 nodes (input, 5 fuzzifiers, 5 firing strengths, 5 normalisers, 5
consequents, the two aggregation sums and the output divider), 10 linear
parameters and 20 nonlinear ones.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .model import DECISION_NAMES, DecisionVector, DomainError
from .params import ModelParameters
from .policy import evaluate_policy

LABELS = ("very low", "low", "medium", "high", "very high")


class FuzzySupportError(ValueError):
    """An input fell outside the support of every membership function."""


@dataclass
class TrapezoidMF:
    """Trapezoid with corners a <= b <= c <= d; plateau value 1 on [b, c]."""

    a: float
    b: float
    c: float
    d: float
    label: str = ""

    def __post_init__(self):
        if not self.a <= self.b <= self.c <= self.d:
            raise ValueError(f"corner ordering violated: {self.corners()}")

    def corners(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c, self.d], dtype=np.float64)

    def membership(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        rise = np.maximum(self.b - self.a, 1e-300)
        fall = np.maximum(self.d - self.c, 1e-300)
        mu = np.minimum((x - self.a) / rise, (self.d - x) / fall)
        mu = np.clip(mu, 0.0, 1.0)
        return np.where((x >= self.b) & (x <= self.c), 1.0, mu)

    def corner_gradients(self, x) -> np.ndarray:
        """d(membership)/d(corner) stacked as (4, n); zero off the edges."""
        x = np.asarray(x, dtype=np.float64)
        g = np.zeros((4, x.size))
        rise = self.b - self.a
        if rise > 0:
            on = (x > self.a) & (x < self.b)
            g[0, on] = (x[on] - self.b) / rise ** 2
            g[1, on] = -(x[on] - self.a) / rise ** 2
        fall = self.d - self.c
        if fall > 0:
            on = (x > self.c) & (x < self.d)
            g[2, on] = (self.d - x[on]) / fall ** 2
            g[3, on] = (x[on] - self.c) / fall ** 2
        return g


@dataclass
class AnfisModel:
    """Five fuzzy rules over one input, each with a linear consequent."""

    input_name: str
    domain: tuple
    mfs: list[TrapezoidMF]
    p: np.ndarray = field(default=None)
    q: np.ndarray = field(default=None)

    def __post_init__(self):
        n = len(self.mfs)
        if self.p is None:
            self.p = np.zeros(n)
        if self.q is None:
            self.q = np.zeros(n)
        self.p = np.asarray(self.p, dtype=np.float64)
        self.q = np.asarray(self.q, dtype=np.float64)

    @property
    def n_rules(self) -> int:
        return len(self.mfs)

    def architecture(self) -> dict:
        n = self.n_rules
        return {
            "nodes": 4 * n + 4,
            "rules": n,
            "linear_parameters": 2 * n,
            "nonlinear_parameters": 4 * n,
        }

    def firing_strengths(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        return np.stack([mf.membership(x) for mf in self.mfs])

    def forward(self, x):
        """Weighted-average output; scalar in, scalar out."""
        scalar = np.isscalar(x) or np.ndim(x) == 0
        w = self.firing_strengths(x)
        total = w.sum(axis=0)
        if np.any(total <= 0.0):
            raise FuzzySupportError("input outside fuzzy support")
        xv = np.atleast_1d(np.asarray(x, dtype=np.float64))
        rule_out = self.p[:, None] * xv[None, :] + self.q[:, None]
        y = (w * rule_out).sum(axis=0) / total
        return float(y[0]) if scalar else y

    def to_json(self, indent: int = 2) -> str:
        doc = {
            "input": self.input_name,
            "domain": list(self.domain),
            "mfs": [{"label": mf.label, "corners": mf.corners().tolist()}
                    for mf in self.mfs],
            "consequents": [[float(pi), float(qi)]
                            for pi, qi in zip(self.p, self.q)],
        }
        return json.dumps(doc, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "AnfisModel":
        doc = json.loads(text)
        mfs = [TrapezoidMF(*entry["corners"], label=entry["label"])
               for entry in doc["mfs"]]
        cons = np.asarray(doc["consequents"], dtype=np.float64)
        return cls(input_name=doc["input"], domain=tuple(doc["domain"]),
                   mfs=mfs, p=cons[:, 0], q=cons[:, 1])


def grid_partition(lo: float, hi: float, n: int = 5,
                   input_name: str = "x") -> AnfisModel:
    """Equal-width overlapping trapezoids spanning [lo, hi].

    Neighbouring memberships sum to one between plateaus, so the whole
    domain is covered with positive total firing strength.
    """
    if not hi > lo:
        raise ValueError("empty input domain")
    if n < 2:
        raise ValueError("need at least two membership functions")
    h = (hi - lo) / (n - 1)
    mfs = []
    labels = LABELS if n == len(LABELS) else tuple(f"mf{i}" for i in range(n))
    for k in range(n):
        center = lo + k * h
        mfs.append(TrapezoidMF(center - 0.75 * h, center - 0.25 * h,
                               center + 0.25 * h, center + 0.75 * h,
                               label=labels[k]))
    return AnfisModel(input_name=input_name, domain=(lo, hi), mfs=mfs)


def _normalized_strengths(model: AnfisModel, x: np.ndarray):
    w = model.firing_strengths(x)
    total = w.sum(axis=0)
    if np.any(total <= 1e-12):
        return None, None
    return w / total, w


def fit_consequents(model: AnfisModel, x: np.ndarray, y: np.ndarray,
                    ridge: float = 1e-8) -> None:
    """Least-squares solve of (p, q) at fixed premises, ridge on rank loss."""
    wn, _ = _normalized_strengths(model, x)
    if wn is None:
        raise FuzzySupportError("training grid leaves fuzzy support holes")
    A = np.concatenate([wn * x[None, :], wn]).T   # columns: p_i x, then q_i
    beta, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
    if rank < A.shape[1]:
        n = A.shape[1]
        beta = np.linalg.solve(A.T @ A + ridge * np.eye(n), A.T @ y)
    n = model.n_rules
    model.p = beta[:n]
    model.q = beta[n:]


def _rmse(model: AnfisModel, x: np.ndarray, y: np.ndarray) -> float:
    return float(np.sqrt(np.mean((model.forward(x) - y) ** 2)))


def _premise_gradients(model: AnfisModel, x: np.ndarray, y: np.ndarray
                       ) -> np.ndarray:
    """Analytic d(SSE)/d(corner), shape (n_rules, 4)."""
    w = model.firing_strengths(x)
    total = w.sum(axis=0)
    rule_out = model.p[:, None] * x[None, :] + model.q[:, None]
    y_hat = (w * rule_out).sum(axis=0) / total
    r = y_hat - y
    grads = np.zeros((model.n_rules, 4))
    for k, mf in enumerate(model.mfs):
        dy_dwk = (rule_out[k] - y_hat) / total
        common = 2.0 * r * dy_dwk
        grads[k] = mf.corner_gradients(x) @ common
    return grads


def train_hybrid(model: AnfisModel, x, y, epochs: int = 100,
                 learning_rate: float = 0.01):
    """Hybrid least-squares / gradient-descent training.

    Per epoch the consequents are re-solved exactly, then the corners take
    one step of length ``learning_rate * domain_width`` along the negative
    unit gradient.  A step that raises the RMSE (or tears a hole in the
    fuzzy cover) is reverted and the learning rate halves.  Returns the
    model and the nonincreasing RMSE history (one entry per epoch, after
    the least-squares solve).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size == 0:
        raise ValueError("empty training set")
    if not learning_rate > 0.0:
        raise ValueError(f"learning rate must be positive, got {learning_rate!r}")
    width = model.domain[1] - model.domain[0]
    lr = learning_rate

    fit_consequents(model, x, y)
    rmse = _rmse(model, x, y)
    history = [rmse]

    for _ in range(max(epochs - 1, 0)):
        saved = [mf.corners() for mf in model.mfs]
        saved_pq = (model.p.copy(), model.q.copy())
        grads = _premise_gradients(model, x, y)
        norm = float(np.linalg.norm(grads))
        if norm > 0.0:
            step = -lr * width * grads / norm
            for mf, corners, delta in zip(model.mfs, saved, step):
                a, b, c, d = np.sort(corners + delta)  # projection repair
                mf.a, mf.b, mf.c, mf.d = float(a), float(b), float(c), float(d)
        wn, _ = _normalized_strengths(model, x)
        if wn is None:
            new_rmse = np.inf
        else:
            fit_consequents(model, x, y)
            new_rmse = _rmse(model, x, y)
        if new_rmse > rmse:
            for mf, corners in zip(model.mfs, saved):
                mf.a, mf.b, mf.c, mf.d = (float(v) for v in corners)
            model.p, model.q = saved_pq
            lr *= 0.5
        else:
            rmse = new_rmse
        history.append(rmse)
    return model, history


def generate_dataset(params: ModelParameters, decisions: DecisionVector,
                     sweep_variable: str, n_points: int,
                     bounds: tuple, policy: str = "tax"):
    """Uniform grid of (x, joint policy profit) pairs over `bounds`.

    Grid points the model rejects are skipped with a single warning that
    reports the count.  Returns (x, y, n_skipped).
    """
    if sweep_variable not in DECISION_NAMES:
        raise ValueError(f"unknown decision variable {sweep_variable!r}")
    if n_points < 2:
        raise ValueError("need at least two grid points")
    lo, hi = bounds
    if not hi > lo:
        raise ValueError("empty sweep range")
    grid = np.linspace(lo, hi, n_points)
    xs, ys = [], []
    skipped = 0
    for value in grid:
        candidate = replace(decisions, **{sweep_variable: float(value)})
        try:
            ys.append(evaluate_policy(params, candidate, policy).value)
            xs.append(float(value))
        except DomainError:
            skipped += 1
    if skipped:
        warnings.warn(f"skipped {skipped} inadmissible grid points "
                      f"while sweeping {sweep_variable}", stacklevel=2)
    return np.asarray(xs), np.asarray(ys), skipped
