"""Single-input first-order Sugeno fuzzy model with hybrid training.

Five trapezoidal membership functions (very low .. very high) feed five
rules with linear consequents; the output is the firing-strength weighted
average.  The premises are one (n_rules, 4) array of trapezoid corners
a <= b <= c <= d, evaluated for all rules at once.  Training alternates a
linear least-squares solve of the consequents with one normalised
gradient-descent step on the corners, accepting the step only when it
lowers the RMSE (otherwise the step is dropped and the learning rate
halves), so the recorded RMSE history never increases.

An input is inside the fuzzy support when its total firing strength
exceeds SUPPORT_FLOOR; training and `forward` refuse any other input with
FuzzySupportError.

The architecture is audited structurally: with five rules the network has
24 nodes (input, 5 fuzzifiers, 5 firing strengths, 5 normalisers, 5
consequents, the two aggregation sums and the output divider), 10 linear
parameters and 20 nonlinear ones.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .model import DECISION_NAMES, DecisionVector
from .params import ModelParameters
# `evaluate_policy` is not called here; it stays importable from this
# module for callers that wrap it by attribute.
from .policy import evaluate_policy, make_batch_objective  # noqa: F401

LABELS = ("very low", "low", "medium", "high", "very high")
#: Total firing strength at or below which an input is outside the support.
SUPPORT_FLOOR = 1e-12


class FuzzySupportError(ValueError):
    """An input fell outside the support of every membership function."""


def memberships(corners, x) -> np.ndarray:
    """Trapezoid memberships, shape (n_rules, n); value 1 on [b, c]."""
    x = np.asarray(x, dtype=np.float64)
    a, b, c, d = (corners[:, k, None] for k in range(4))
    mu = np.minimum((x - a) / np.maximum(b - a, 1e-300),
                    (d - x) / np.maximum(d - c, 1e-300))
    return np.where((x >= b) & (x <= c), 1.0, np.clip(mu, 0.0, 1.0))


def corner_gradients(corners, x) -> np.ndarray:
    """d(membership)/d(corner), shape (n_rules, 4, n); zero off the edges."""
    x = np.asarray(x, dtype=np.float64)
    a, b, c, d = (corners[:, k, None] for k in range(4))
    # Squared as Python floats, i.e. by libm's pow: NumPy's square differs
    # from it in the last bit for about one value in 1,200.
    rise2, fall2 = (np.array([v ** 2 for v in width.ravel().tolist()])[:, None]
                    for width in (b - a, d - c))
    g = np.zeros((len(corners), 4, x.size))
    on = (x > a) & (x < b)
    np.divide(x - b, rise2, out=g[:, 0], where=on)
    np.divide(-(x - a), rise2, out=g[:, 1], where=on)
    on = (x > c) & (x < d)
    np.divide(d - x, fall2, out=g[:, 2], where=on)
    np.divide(x - c, fall2, out=g[:, 3], where=on)
    return g


def _solve(corners, x, y, pq=None):
    """(p, q, y_hat, w, total, rule_out) at `corners` from one membership
    evaluation; the last three are its forward pass (rule_out is p x + q).

    The consequents (p, q) are the least-squares fit to `y` (ridge 1e-8 when
    the design matrix loses rank) unless `pq` gives them.
    """
    w = memberships(corners, x)
    total = w.sum(axis=0)
    if np.any(total <= SUPPORT_FLOOR):
        raise FuzzySupportError("input outside fuzzy support")
    if pq is None:
        wn = w / total
        A = np.concatenate([wn * x[None, :], wn]).T   # columns: p_i x, then q_i
        beta, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
        n = len(corners)
        if rank < 2 * n:
            beta = np.linalg.solve(A.T @ A + 1e-8 * np.eye(2 * n), A.T @ y)
        pq = beta[:n], beta[n:]
    p, q = pq
    rule_out = p[:, None] * x[None, :] + q[:, None]
    y_hat = (w * rule_out).sum(axis=0) / total
    return p, q, y_hat, w, total, rule_out


@dataclass
class AnfisModel:
    """Fuzzy rules over one input, each with a linear consequent p x + q.

    Row k of `corners` is rule k's trapezoid (a, b, c, d), labelled
    `labels[k]`.
    """

    input_name: str
    domain: tuple
    corners: np.ndarray
    labels: tuple
    p: np.ndarray = None
    q: np.ndarray = None

    def __post_init__(self):
        self.corners = np.array(self.corners, dtype=np.float64)
        if (self.corners.shape[1:] != (4,)
                or not np.all(self.corners[:, :-1] <= self.corners[:, 1:])):
            raise ValueError(f"corner ordering violated: {self.corners.tolist()}")
        n = self.n_rules
        self.p = np.zeros(n) if self.p is None else np.asarray(self.p, dtype=np.float64)
        self.q = np.zeros(n) if self.q is None else np.asarray(self.q, dtype=np.float64)

    @property
    def n_rules(self) -> int:
        return len(self.corners)

    def architecture(self) -> dict:
        n = self.n_rules
        return {
            "nodes": 4 * n + 4,
            "rules": n,
            "linear_parameters": 2 * n,
            "nonlinear_parameters": 4 * n,
        }

    def forward(self, x):
        """Weighted-average output; scalar in, scalar out."""
        xv = np.atleast_1d(np.asarray(x, dtype=np.float64))
        y = _solve(self.corners, xv, None, (self.p, self.q))[2]
        return float(y[0]) if np.ndim(x) == 0 else y

    def to_json(self, indent: int = 2) -> str:
        doc = {
            "input": self.input_name,
            "domain": list(self.domain),
            "mfs": [{"label": label, "corners": row}
                    for label, row in zip(self.labels, self.corners.tolist())],
            "consequents": [[float(pi), float(qi)]
                            for pi, qi in zip(self.p, self.q)],
        }
        return json.dumps(doc, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "AnfisModel":
        doc = json.loads(text)
        cons = np.asarray(doc["consequents"], dtype=np.float64)
        return cls(input_name=doc["input"], domain=tuple(doc["domain"]),
                   corners=[mf["corners"] for mf in doc["mfs"]],
                   labels=tuple(mf["label"] for mf in doc["mfs"]),
                   p=cons[:, 0], q=cons[:, 1])


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
    centers = lo + np.arange(n) * h
    corners = centers[:, None] + h * np.array([-0.75, -0.25, 0.25, 0.75])
    labels = LABELS if n == len(LABELS) else tuple(f"mf{i}" for i in range(n))
    return AnfisModel(input_name=input_name, domain=(lo, hi), corners=corners,
                      labels=labels)


def _rmse(y_hat: np.ndarray, y: np.ndarray) -> float:
    return float(np.sqrt(np.mean((y_hat - y) ** 2)))


def _premise_gradients(corners: np.ndarray, x: np.ndarray, y: np.ndarray,
                       fit: tuple) -> np.ndarray:
    """Analytic d(SSE)/d(corner), shape (n_rules, 4), from `fit`, the
    ``_solve`` result at `corners`."""
    _, _, y_hat, _, total, rule_out = fit
    common = 2.0 * (y_hat - y) * ((rule_out - y_hat) / total)
    g = corner_gradients(corners, x)
    # one matrix-vector product per rule: a batched matmul may sum in
    # another order
    return np.array([g[k] @ common[k] for k in range(len(corners))])


def train_hybrid(model: AnfisModel, x, y, epochs: int = 100,
                 learning_rate: float = 0.01):
    """Hybrid least-squares / gradient-descent training.

    Per epoch the corners take one trial step of length
    ``learning_rate * domain_width`` along the negative unit gradient,
    sorted back into order, and the consequents are re-solved exactly at
    the trial corners.  A step that raises the RMSE (or leaves an input
    outside the fuzzy support) is dropped and the learning rate halves;
    the gradient is recomputed only after an accepted step, from that
    step's forward pass.  Returns the model and the nonincreasing RMSE
    history (one entry per epoch, after the least-squares solve).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size == 0:
        raise ValueError("empty training set")
    if not learning_rate > 0.0:
        raise ValueError(f"learning rate must be positive, got {learning_rate!r}")
    width = model.domain[1] - model.domain[0]
    lr = learning_rate

    fit = _solve(model.corners, x, y)
    history = [_rmse(fit[2], y)]
    grads = None
    for _ in range(max(epochs - 1, 0)):
        if grads is None:
            grads = _premise_gradients(model.corners, x, y, fit)
            norm = float(np.linalg.norm(grads))
        rmse = history[-1]
        if norm > 0.0:
            trial = np.sort(model.corners - lr * width * grads / norm, axis=1)
            try:
                trial_fit = _solve(trial, x, y)
                trial_rmse = _rmse(trial_fit[2], y)
            except FuzzySupportError:
                trial_rmse = np.inf
            if trial_rmse > rmse:
                lr *= 0.5
            else:
                model.corners, fit = trial, trial_fit
                rmse, grads = trial_rmse, None
        history.append(rmse)
    model.p, model.q = fit[:2]
    return model, history


def generate_dataset(params: ModelParameters, decisions: DecisionVector,
                     sweep_variable: str, n_points: int,
                     bounds: tuple, policy: str = "tax"):
    """Uniform grid of (x, joint policy profit) pairs over `bounds`, in one
    objective call: each profit is ``evaluate_policy``'s for that point.

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
    X = np.tile(decisions.as_array(), (n_points, 1))
    X[:, DECISION_NAMES.index(sweep_variable)] = grid
    values, _, valid = make_batch_objective(params, policy)(X)
    skipped = n_points - int(np.count_nonzero(valid))
    if skipped:
        warnings.warn(f"skipped {skipped} inadmissible grid points "
                      f"while sweeping {sweep_variable}", stacklevel=2)
    return grid[valid], values[valid], skipped
