"""Exogenous model parameters: defaults, validation and the parameter document.

A parameter document is a JSON object of parameter values;
``ModelParameters.from_dict`` is the one way it becomes parameters, for
every command and for calibration.  Four constants carry no published
default and must always be supplied: ``v1`` and ``v2`` (preservation
efficiencies) everywhere, plus the active policy's carbon price
(``C_Tax`` for the tax policy, ``C_CT`` for cap & trade).
``calibrate_missing_defaults`` in :mod:`greenchain.sensitivity` fits them
to a reference operating point.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import sys
import warnings

import numpy as np

from .kernels import PARAM_ORDER


class ParameterError(ValueError):
    """Raised when a parameter document, value set or input value is invalid."""


#: Published default values.  C_op and C_or have no published value either;
#: they default to 0 (the reference operating point reproduces with zero
#: setup costs) and can be overridden like any other field.
TABLE_DEFAULTS = {
    "P": 7500.0, "P_r": 2500.0, "f_d": 0.05, "beta1": 0.04, "beta2": 0.06,
    "theta1": 0.15, "theta2": 0.1,
    "D_r": 400.0, "a": 30.0, "b": 0.1, "eta": 1.6,
    "W_m": 80.0, "C_p": 15.0, "C_r": 5.0, "C_g": 4.0,
    "C_op": 0.0, "C_or": 0.0, "i_c": 4.0,
    "h_p": 5.0, "h_d": 3.0, "h_r": 2.1,
    "d_cp": 1.2, "d_cd": 1.5, "d_cr": 0.05,
    "O_r": 130.0, "C_s": 2.0, "f_r": 0.01,
    "E_p": 0.15, "E_t": 0.11,
    "E_h1": 0.12, "E_h2": 0.1, "E_hr": 0.14,
    "E_d1": 0.13, "E_d2": 0.15, "E_dr": 0.12,
    "d1": 25.0,
    "l1": 15.0, "l2": 3.0, "l3": 100.0, "l4": 2.8,
    "kappa1": 1.45, "kappa2": 0.8, "omega": 0.6,
    "U1": 30.0, "U2": 120.0,
}

#: Fields that have no default anywhere and must come from configuration.
MANDATORY_FIELDS = ("v1", "v2")

#: Carbon price required per policy name.
POLICY_PRICE_FIELD = {"tax": "C_Tax", "cap_trade": "C_CT", "limited": None}

# The carbon prices may stay unset (None); they pack as NaN.
_PRICES = tuple(name for name in POLICY_PRICE_FIELD.values() if name)
_FRACTIONS = ("f_d", "beta1", "beta2", "f_r", "omega")
_POSITIVE = ("D_r", "eta", "v1", "v2", "a", "b")


def _is_real(value) -> bool:
    # bool is an int subclass, but True is not a parameter value.
    return type(value) is float or (
        isinstance(value, numbers.Real) and not isinstance(value, bool))


def to_real(value, name: str) -> float:
    """`value` as a finite float; bools, strings, NaN, ±inf and huge ints are refused."""
    if _is_real(value):
        try:
            real = float(value)
        except OverflowError:
            pass
        else:
            if math.isfinite(real):
                return real
    raise ParameterError(f"{name} must be a finite real number, got {value!r}")


def to_count(value, name: str) -> int:
    """`value` itself if it is an Integral, not a bool, within the float range."""
    if (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max):
        return value
    raise ParameterError(f"{name} must be an integer, got {value!r}")


class _ParameterSet:
    """All exogenous constants of the supply-chain model.

    Units: rates in units/year, times in years, money in $ (per unit /
    per setup / per order / per year as named), emissions factors in
    tonnes per unit or per unit-year, distances in km.

    One keyword-only field per name of ``kernels.PARAM_ORDER``: ``v1`` and
    ``v2`` (preservation efficiencies, 1/$.yr) are required, the carbon
    prices ``C_Tax`` and ``C_CT`` ($/tonne) default to None and every other
    field to its ``TABLE_DEFAULTS`` value.
    """

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Check the structural invariants; raise ParameterError on failure.

        Keeps the packed kernel vector, which `as_array` hands out.
        """
        values = [getattr(self, name) for name in PARAM_ORDER]
        not_real = [name for name, value in zip(PARAM_ORDER, values)
                    if not (_is_real(value) or (value is None and name in _PRICES))]
        if not_real:
            raise ParameterError("not a real number: " + ", ".join(not_real))
        try:
            vector = np.array(values, dtype=np.float64)
        except OverflowError:
            raise ParameterError("a parameter value is too large for a float") from None
        errors = [f"{PARAM_ORDER[i]} must be finite and nonnegative, got {values[i]}"
                  for i in np.flatnonzero(~(np.isfinite(vector) & (vector >= 0.0)))
                  if values[i] is not None]
        if not self.P > self.P_r > 0:
            errors.append(f"require P > P_r > 0, got P={self.P}, P_r={self.P_r}")
        errors += [f"{name} must lie in [0, 1], got {getattr(self, name)}"
                   for name in _FRACTIONS if not 0.0 <= getattr(self, name) <= 1.0]
        errors += [f"{name} must be strictly positive"
                   for name in _POSITIVE if not getattr(self, name) > 0]
        if errors:
            raise ParameterError("; ".join(errors))
        object.__setattr__(self, "_vector", vector)

    def require_policy_price(self, policy: str) -> None:
        """Fail if the carbon price used by `policy` was not supplied."""
        field = POLICY_PRICE_FIELD.get(policy)
        if field is None and policy not in POLICY_PRICE_FIELD:
            raise ParameterError(f"unknown policy {policy!r}")
        if field is not None and getattr(self, field) is None:
            raise ParameterError(
                f"missing mandatory keys for policy {policy!r}: {field}")

    def as_array(self) -> np.ndarray:
        """The kernel parameter vector in PARAM_ORDER (an unset price is NaN)."""
        return self._vector.copy()

    def replace(self, **changes) -> "ModelParameters":
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in PARAM_ORDER}

    @classmethod
    def from_dict(cls, doc: dict, policy: str | None = None) -> "ModelParameters":
        """Build from a parameter document: the one way a document becomes
        parameters.

        Unknown keys are rejected, and a null value counts as absent.  Keys
        absent from the document fall back to the published defaults; the
        keys with no published value (v1, v2 and the active policy's carbon
        price) must be present and are all reported together when missing.
        Warns once, naming the caller, when eta exceeds 1.
        """
        unknown = sorted(set(doc) - set(PARAM_ORDER))
        if unknown:
            raise ParameterError(f"unknown parameter keys: {', '.join(unknown)}")
        missing = [k for k in MANDATORY_FIELDS if doc.get(k) is None]
        if policy is not None:
            price = POLICY_PRICE_FIELD.get(policy)
            if price is not None and doc.get(price) is None:
                missing.append(price)
        if missing:
            raise ParameterError(
                f"missing mandatory keys: {', '.join(missing)}")
        params = cls(**{k: v for k, v in doc.items() if v is not None})
        if params.eta > 1.0:
            warnings.warn(
                f"stock-consumption parameter eta={params.eta} exceeds 1; "
                "accepted, but outside the stated (0, 1] modelling range",
                stacklevel=2)
        return params


def _field(name: str):
    if name in MANDATORY_FIELDS:
        return name, float
    if name in _PRICES:
        return name, float | None, dataclasses.field(default=None)
    return name, float, dataclasses.field(default=TABLE_DEFAULTS[name])


# The generated __init__ calls the inherited __post_init__, so every
# construction and `replace` validates.
ModelParameters = dataclasses.make_dataclass(
    "ModelParameters", [_field(name) for name in PARAM_ORDER],
    bases=(_ParameterSet,), frozen=True, kw_only=True,
    namespace={"__doc__": _ParameterSet.__doc__, "__module__": __name__})
