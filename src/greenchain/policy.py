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
from .model import (CostBreakdown, DecisionVector, DomainError,
                    _breakdown_from_terms, _terms_or_raise, refusing_overflow)
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
    if not 0.0 <= G < math.inf:  # the kernel's test: NaN is refused too
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
    with refusing_overflow():
        value, phi_m, phi_r, violation = K.policy_value_from_terms(
            POLICY_IDS[policy], decisions.G, p, terms)
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
    pid = POLICY_IDS[policy]
    vectors = np.array([p_set.as_array() for p_set in sets])   # (K, N_PARAMS)
    n_sets = len(sets)
    # A slot whose bits are equal in every set is one float64 scalar that
    # the twin broadcasts, so a parameter-only product costs no array call
    # and one set holds per-row copies of the two exponents only.  Compared
    # by bits: NaN prices are shared, -0.0 and 0.0 are not.  Kept as NumPy
    # scalars, whose division by zero follows the errstate scope where a
    # Python float's would raise.  The exponents are never scalars: `**`
    # takes a square, sqrt or reciprocal fast path for a scalar 2.0, 0.5 or
    # -1.0 that a per-row exponent does not, so a set's rows would depend
    # on whether the other sets share its kappa.
    bits = vectors.view(np.int64)
    shared = (bits == bits[0]).all(axis=0)
    shared[[K.P_KAPPA1, K.P_KAPPA2]] = False
    layouts = {}

    def objective(X: np.ndarray):
        X = np.asarray(X)
        n = X.shape[0]
        if n not in layouts:
            if n % n_sets:
                raise ValueError(f"{n} rows do not split into {n_sets} equal blocks")
            # Row i of block k gets set k's value in every other slot, so
            # each block gets the numbers a separate call would.
            layouts[n] = [vectors[0, slot] if shared[slot]
                          else np.repeat(vectors[:, slot], n // n_sets)
                          for slot in range(K.N_PARAMS)]
        return K.evaluate_policy_batch_numpy(pid, X, layouts[n])

    return objective
