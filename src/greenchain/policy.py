"""Carbon-regulation objectives over the base profit model.

Three regimes are supported, selected by the string names used throughout
the configuration surface:

* ``"tax"``        - each player pays the carbon price on net emissions.
* ``"cap_trade"``  - net emissions are settled against an allowance U1 at a
  symmetric buy/sell price, so under-emitters earn trading revenue.
* ``"limited"``    - base profits minus the green investment, subject to a
  hard joint emission cap U2; the excess is reported as the constraint
  violation for penalty-based optimizers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels as K
from .model import (CostBreakdown, DecisionVector, DomainError, evaluate_row,
                    term_views)
from .params import ModelParameters

# Kernel policy codes.  Indexed only after `require_policy_price`, which
# refuses any other name.
POLICY_IDS = {
    "tax": K.POLICY_TAX,
    "cap_trade": K.POLICY_CAP_TRADE,
    "limited": K.POLICY_LIMITED,
}


@dataclass(frozen=True)
class GreenReduction:
    """Emission reductions (tonnes/year) bought by the green investment."""

    rho_m: float
    rho_r: float
    rho_G: float


@dataclass(frozen=True)
class PolicyObjective:
    """One policy evaluation: joint value, per-player profits, violation."""

    kind: str
    value: float
    phi_m: float
    phi_r: float
    constraint_violation: float
    diagnostics: CostBreakdown

    @property
    def feasible(self) -> bool:
        return bool(self.constraint_violation <= 0.0)   # not a NumPy bool


def green_reduction(G: float, params: ModelParameters) -> GreenReduction:
    """rho_m, rho_r and rho_G at G by the twin's arithmetic (a one-row
    array, per-row exponents); DomainError(ERR_OVERFLOW) where one is not
    finite."""
    if not 0.0 <= G < math.inf:  # the kernel's test: NaN is refused too
        raise DomainError(K.ERR_BAD_INVESTMENT)
    G = np.array([G], dtype=np.float64)
    kappa1, kappa2 = np.array([params.kappa1]), np.array([params.kappa2])
    with np.errstate(over="ignore", invalid="ignore"):
        rho = [K.abatement(params.omega * G, params.l1, params.l2, kappa1),
               K.abatement((1.0 - params.omega) * G, params.l1, params.l2, kappa1),
               K.abatement(G, params.l3, params.l4, kappa2)]
    if not np.isfinite(rho).all():
        raise DomainError(K.ERR_OVERFLOW)
    return GreenReduction(*np.concatenate(rho).tolist())


def evaluate_policy(params: ModelParameters, decisions: DecisionVector,
                    policy: str) -> PolicyObjective:
    """Joint value, per-player profits and cap violation under `policy`:
    the row the optimizers' objective gives for `decisions`, bit for bit."""
    params.require_policy_price(policy)
    value, violation, phi_m, phi_r, terms = evaluate_row(
        params, decisions, POLICY_IDS[policy])
    return PolicyObjective(kind=policy, value=value, phi_m=phi_m,
                           phi_r=phi_r, constraint_violation=violation,
                           diagnostics=term_views(decisions, terms)[1])


def make_batch_objective(params, policy: str):
    """Vectorised objective for the optimizers.

    Returns ``f(X) -> (values, violations, valid)`` for an (n, 5) decision
    matrix, computed by the NumPy twin ``kernels.evaluate_policy_batch_numpy``.
    `params` is one ModelParameters or a sequence of K; with K sets the rows
    come in K equal blocks (the stacked populations of
    ``optimize.run_many``) and block k is evaluated under set k.  Rows that
    violate the model domain come back invalid; the optimizers treat them
    as unusable rather than aborting.
    """
    sets = [params] if isinstance(params, ModelParameters) else list(params)
    if not sets:
        raise ValueError("need at least one parameter set")
    for p_set in sets:
        p_set.require_policy_price(policy)
    pid = POLICY_IDS[policy]
    vectors = np.array([p_set.as_array() for p_set in sets])   # (K, N_PARAMS)
    n_sets = len(sets)
    layouts = {}   # K.slot_layout per row count

    def objective(X: np.ndarray):
        X = np.asarray(X)
        n = X.shape[0]
        if n not in layouts:
            if n % n_sets:
                raise ValueError(f"{n} rows do not split into {n_sets} equal blocks")
            # Block k gets set k's value in every slot, so each block
            # gets the numbers a separate call would.
            layouts[n] = K.slot_layout(vectors, n)
        return K.evaluate_policy_batch_numpy(pid, X, layouts[n])

    return objective
