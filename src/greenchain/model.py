"""Cycle schedules, inventory trajectories, cost breakdowns and base profits.

This is the readable layer over :mod:`greenchain.kernels`: it validates
decision vectors, raises typed domain errors, and assembles the full
per-component breakdown that the CLI and reports expose.  Optimizer inner
loops bypass it and call the batch kernels directly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, make_dataclass

import numpy as np

from . import kernels as K
from .params import ModelParameters, to_real


class DomainError(ValueError):
    """An inadmissible decision/parameter combination was evaluated."""

    def __init__(self, status: int):
        self.status = status
        super().__init__(K.STATUS_MESSAGES.get(status, f"status {status}"))


@dataclass(frozen=True)
class DecisionVector:
    """The five decision variables; field order is the decision layout."""

    T0: float     # effective production time (years)
    xi1: float    # manufacturer preservation investment ($/year)
    xi2: float    # retailer preservation investment ($/year)
    G: float      # green investment ($/year)
    W_r: float    # retailer selling price ($/unit)

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, k) for k in DECISION_NAMES],
                        dtype=np.float64)

    @classmethod
    def from_array(cls, x) -> "DecisionVector":
        # tolist() yields Python floats directly; iterating the array would
        # allocate a NumPy scalar per element first.
        return cls(*np.asarray(x, dtype=np.float64).tolist())

    def to_dict(self) -> dict:
        return _to_dict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "DecisionVector":
        # Values follow the parameter rule: real numbers, not bools or strings.
        return cls(**{k: to_real(doc[k], k) for k in DECISION_NAMES})


#: Decision names in layout order, as read from the DecisionVector fields.
DECISION_NAMES = tuple(f.name for f in fields(DecisionVector))


def _to_dict(self) -> dict:
    return {k: getattr(self, k) for k in self.__dataclass_fields__}


def _term_dataclass(name: str, doc: str, terms: tuple, extra=()) -> type:
    return make_dataclass(
        name, [(k, float) for k in terms] + list(extra), frozen=True,
        namespace={"__doc__": doc, "__module__": __name__, "to_dict": _to_dict})


# t11_before_t1: the printed backlog-clearing time may precede the
# replenishment time.
CycleSchedule = _term_dataclass(
    "CycleSchedule",
    "Derived rates, cycle times and lot sizes for one decision vector.",
    ("T0",) + K.TERM_NAMES[K.T_T1:K.T_F_WR + 1] + K.TERM_NAMES[K.T_P_E:],
    extra=[("t11_before_t1", bool)])

CostBreakdown = _term_dataclass(
    "CostBreakdown", "Every revenue, cost and emission component of one cycle.",
    K.TERM_NAMES[K.T_SR_M:K.T_CARC_R + 1])

ProfitResult = _term_dataclass(
    "ProfitResult", "Per-cycle-averaged profits before any carbon policy.",
    K.TERM_NAMES[K.T_PHI_M:K.T_PHI_T + 1])


def effective_rates(params: ModelParameters) -> tuple[float, float]:
    """Perfect and defective effective production rates (sum to P)."""
    return K.effective_rates(params.P, params.f_d, params.beta1, params.beta2)


def deterioration_rates(params: ModelParameters, xi1: float, xi2: float
                        ) -> tuple[float, float]:
    """Effective deterioration rates under preservation investments."""
    if xi1 < 0 or xi2 < 0:
        raise DomainError(K.ERR_BAD_INVESTMENT)
    return (K.preserved_rate(params.theta1, params.v1, xi1),
            K.preserved_rate(params.theta2, params.v2, xi2))


def manufacturer_schedule(params: ModelParameters, T0: float, theta_m: float
                          ) -> tuple[float, float, float]:
    """(T1, T2, Q_m) for a production run of length T0."""
    if not T0 > 0:
        raise DomainError(K.ERR_BAD_T0)
    P_e, P_de = effective_rates(params)
    return K.manufacturer_cycle(params.P, P_e, P_de, params.P_r,
                                params.D_r, theta_m, T0)


def manufacturer_inventory(t: float, params: ModelParameters, T0: float,
                           theta_m: float) -> float:
    """Perfect-stock level I(t), 0 <= t <= T2."""
    P_e, P_de = effective_rates(params)
    T1, T2, Q_m = manufacturer_schedule(params, T0, theta_m)
    if not 0.0 <= t <= T2:
        raise ValueError(f"t={t} outside [0, T2={T2}]")
    return K.manufacturer_stock(t, P_e, params.P_r, params.D_r, Q_m,
                                theta_m, T0, T1, T2)


def defective_inventory(t: float, params: ModelParameters, T0: float,
                        theta_m: float) -> float:
    """Defective-stock level I_d(t), 0 <= t <= T1."""
    P_e, P_de = effective_rates(params)
    T1, _, _ = manufacturer_schedule(params, T0, theta_m)
    if not 0.0 <= t <= T1:
        raise ValueError(f"t={t} outside [0, T1={T1}]")
    return K.defective_stock(t, P_de, params.P_r, theta_m, T0, T1)


def retailer_schedule(params: ModelParameters, W_r: float, T1: float,
                      T2: float, theta_r: float):
    """(s, T11, Q_r, T3, B1, B2) for the retailer cycle."""
    fW = params.a - params.b * W_r
    if fW < 0:
        raise DomainError(K.ERR_NEGATIVE_DEMAND)
    if fW == 0.0:
        raise DomainError(K.ERR_ZERO_DEMAND)
    B2 = params.D_r - fW
    s = fW * T1
    if not B2 > 0:
        raise DomainError(K.ERR_NET_REPLENISHMENT)
    if not B2 - s * params.eta > 0:
        raise DomainError(K.ERR_BACKLOG)
    return K.retailer_cycle(fW, params.D_r, params.eta, theta_r, T1, T2)


def _terms_or_raise(p: np.ndarray, decisions: DecisionVector) -> np.ndarray:
    """Term vector for a packed parameter vector `p`; DomainError if rejected."""
    terms = np.empty(K.N_TERMS, dtype=np.float64)
    status = K.evaluate_terms(decisions.T0, decisions.xi1, decisions.xi2,
                              decisions.G, decisions.W_r, p, terms)
    if status != K.OK:
        raise DomainError(status)
    return terms


def compute_schedule(params: ModelParameters, decisions: DecisionVector
                     ) -> CycleSchedule:
    t = _terms_or_raise(params.as_array(), decisions)
    return CycleSchedule(decisions.T0, *t[K.T_T1:K.T_F_WR + 1],
                         *t[K.T_P_E:], bool(t[K.T_T11] < t[K.T_T1]))


def _breakdown_from_terms(t: np.ndarray) -> CostBreakdown:
    return CostBreakdown(*t[K.T_SR_M:K.T_CARC_R + 1])


def compute_breakdown(params: ModelParameters, decisions: DecisionVector
                      ) -> CostBreakdown:
    """All cost and emission components for one decision vector."""
    return _breakdown_from_terms(_terms_or_raise(params.as_array(), decisions))


def base_profits(params: ModelParameters, decisions: DecisionVector
                 ) -> ProfitResult:
    """Cycle-averaged profits before carbon charges."""
    t = _terms_or_raise(params.as_array(), decisions)
    return ProfitResult(*t[K.T_PHI_M:K.T_PHI_T + 1])
