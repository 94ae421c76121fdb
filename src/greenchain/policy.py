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

from dataclasses import dataclass

import numpy as np

from . import kernels as K
from .model import (CostBreakdown, DecisionVector, DomainError,
                    _breakdown_from_terms, _terms_or_raise)
from .params import ModelParameters

POLICY_IDS = {
    "tax": K.POLICY_TAX,
    "cap_trade": K.POLICY_CAP_TRADE,
    "limited": K.POLICY_LIMITED,
}


def policy_id(policy: str) -> int:
    try:
        return POLICY_IDS[policy]
    except KeyError:
        raise ValueError(
            f"unknown policy {policy!r}; expected one of {sorted(POLICY_IDS)}"
        ) from None


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
        return self.constraint_violation <= 0.0


def green_reduction(G: float, params: ModelParameters) -> GreenReduction:
    if G < 0:
        raise DomainError(K.ERR_BAD_INVESTMENT)
    rho_m, rho_r, rho_G = K.green_reduction_terms(
        G, params.omega, params.l1, params.l2, params.kappa1,
        params.l3, params.l4, params.kappa2)
    return GreenReduction(rho_m=rho_m, rho_r=rho_r, rho_G=rho_G)


def evaluate_policy(params: ModelParameters, decisions: DecisionVector,
                    policy: str) -> PolicyObjective:
    """Joint value, per-player profits and cap violation under `policy`."""
    params.require_policy_price(policy)
    p = params.as_array()
    terms = _terms_or_raise(p, decisions)
    value, phi_m, phi_r, violation = K.policy_value_from_terms(
        policy_id(policy), decisions.G, p, terms)
    return PolicyObjective(kind=policy, value=value, phi_m=phi_m,
                           phi_r=phi_r, constraint_violation=violation,
                           diagnostics=_breakdown_from_terms(terms))


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
    pid = policy_id(policy)
    vectors = [p_set.as_array() for p_set in sets]

    if len(vectors) == 1:
        # One set stays a 1-D vector that the twin broadcasts: a per-row
        # matrix holds N_PARAMS floats per row (≈40 MB for a 320 × 320 surface).
        p = vectors[0]

        def objective(X: np.ndarray):
            return K.evaluate_policy_batch_numpy(pid, np.asarray(X), p)
    else:
        # (N_PARAMS, n) with column i holding row i's parameters; the twin
        # broadcasts it elementwise, so each block gets the numbers a
        # separate call would.  Built on first use and kept for that n.
        stacked = np.stack(vectors, axis=1)
        n_sets = len(vectors)
        per_row = {}

        def objective(X: np.ndarray):
            X = np.asarray(X)
            n = X.shape[0]
            if n not in per_row:
                if n % n_sets:
                    raise ValueError(
                        f"{n} rows do not split into {n_sets} equal blocks")
                per_row[n] = np.repeat(stacked, n // n_sets, axis=1)
            return K.evaluate_policy_batch_numpy(pid, X, per_row[n])

    return objective
