"""Decision vector, term views and domain errors over the scalar kernel.

This is the readable layer over :mod:`greenchain.kernels`: it reads
decision vectors, raises a typed error with the kernel's status for every
input that ``kernels.evaluate_terms`` rejects (the only statement of the
model's domain) or whose arithmetic overflows, and views the term vector
as the schedule, cost breakdown and base profits that the CLI and reports
expose.  The per-step formulas live in the kernels; optimizer inner loops
call the batch twin.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, fields, make_dataclass

import numpy as np

from . import kernels as K
from .params import ModelParameters, ParameterError, to_real


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
        missing = [k for k in DECISION_NAMES if k not in doc]
        if missing:
            raise ParameterError("missing decision components: " + ", ".join(missing))
        # Values follow the parameter rule: finite reals, not bools or strings.
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


@contextmanager
def refusing_overflow():
    """Scope in which a floating-point overflow raises
    DomainError(ERR_OVERFLOW): extreme but admissible inputs are refused,
    not answered with inf or NaN."""
    try:
        with np.errstate(over="raise"):
            yield
    except (FloatingPointError, OverflowError):     # NumPy's, or math's
        raise DomainError(K.ERR_OVERFLOW) from None


def _terms_or_raise(p: np.ndarray, decisions: DecisionVector) -> np.ndarray:
    """Term vector for a packed parameter vector `p`; DomainError if rejected."""
    terms = np.empty(K.N_TERMS, dtype=np.float64)
    with refusing_overflow():
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
