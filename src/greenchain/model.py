"""Decision vector, term views and domain errors over the NumPy twin.

This is the readable layer over :mod:`greenchain.kernels`: it reads
decision vectors, evaluates one at a time as a one-row call of
``kernels.evaluate_terms`` (the twin the optimizers call, so the two
agree by construction), raises a typed error with the twin's status for
every row it refuses (a domain check, or ERR_OVERFLOW where a value or
term is not finite), and views the term vector as the schedule, cost
breakdown and base profits that the CLI and reports expose.
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
        unknown = sorted(set(doc) - set(DECISION_NAMES))
        if unknown:
            raise ParameterError("unknown decision keys: " + ", ".join(unknown))
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


def evaluate_row(params: ModelParameters, decisions: DecisionVector,
                 policy_id=None) -> tuple:
    """(value, violation, phi_m, phi_r, terms) of one decision vector under
    a kernel policy code (None: no carbon policy), from a one-row twin call
    on the parameter vector, which the twin prepares as
    ``policy.make_batch_objective`` does, so the value is the optimizer's
    for that row bit for bit.  DomainError with the twin's status if the
    row is refused."""
    values, violations, _, status, terms, phi_m, phi_r = K.evaluate_terms(
        policy_id, decisions.as_array()[None, :], params.as_array())
    if status[0] != K.OK:
        raise DomainError(int(status[0]))
    return (values[0].item(), violations[0].item(), phi_m[0].item(),
            phi_r[0].item(), terms[:, 0])


def term_views(decisions: DecisionVector, t: np.ndarray) -> tuple:
    """(CycleSchedule, CostBreakdown, ProfitResult) of `decisions` from its
    term column `t`, the last item of `evaluate_row`."""
    return (CycleSchedule(decisions.T0, *t[K.T_T1:K.T_F_WR + 1], *t[K.T_P_E:],
                          bool(t[K.T_T11] < t[K.T_T1])),
            CostBreakdown(*t[K.T_SR_M:K.T_CARC_R + 1]),
            ProfitResult(*t[K.T_PHI_M:K.T_PHI_T + 1]))


def compute_schedule(params: ModelParameters, decisions: DecisionVector
                     ) -> CycleSchedule:
    return term_views(decisions, evaluate_row(params, decisions)[4])[0]


def compute_breakdown(params: ModelParameters, decisions: DecisionVector
                      ) -> CostBreakdown:
    """All cost and emission components for one decision vector."""
    return term_views(decisions, evaluate_row(params, decisions)[4])[1]


def base_profits(params: ModelParameters, decisions: DecisionVector
                 ) -> ProfitResult:
    """Cycle-averaged profits before carbon charges."""
    return term_views(decisions, evaluate_row(params, decisions)[4])[2]
