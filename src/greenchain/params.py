"""Exogenous model parameters: defaults, validation and JSON round-trips.

Four constants carry no published default and must always be supplied:
``v1`` and ``v2`` (preservation efficiencies) everywhere, plus the active
policy's carbon price (``C_Tax`` for the tax policy, ``C_CT`` for cap &
trade).  ``calibrate_missing_defaults`` in :mod:`greenchain.sensitivity`
fits them to a reference operating point.
"""

from __future__ import annotations

import dataclasses
import json
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .kernels import N_PARAMS, PARAM_ORDER


class ParameterError(ValueError):
    """Raised when a parameter document or value set is invalid."""


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


@dataclass(frozen=True)
class ModelParameters:
    """All exogenous constants of the supply-chain model.

    Units: rates in units/year, times in years, money in $ (per unit /
    per setup / per order / per year as named), emissions factors in
    tonnes per unit or per unit-year, distances in km.
    """

    v1: float                    # manufacturer preservation efficiency (1/$.yr)
    v2: float                    # retailer preservation efficiency (1/$.yr)
    C_Tax: float | None = None   # carbon tax price ($/tonne)
    C_CT: float | None = None    # carbon trading price ($/tonne)
    P: float = TABLE_DEFAULTS["P"]
    P_r: float = TABLE_DEFAULTS["P_r"]
    f_d: float = TABLE_DEFAULTS["f_d"]
    beta1: float = TABLE_DEFAULTS["beta1"]
    beta2: float = TABLE_DEFAULTS["beta2"]
    theta1: float = TABLE_DEFAULTS["theta1"]
    theta2: float = TABLE_DEFAULTS["theta2"]
    D_r: float = TABLE_DEFAULTS["D_r"]
    a: float = TABLE_DEFAULTS["a"]
    b: float = TABLE_DEFAULTS["b"]
    eta: float = TABLE_DEFAULTS["eta"]
    W_m: float = TABLE_DEFAULTS["W_m"]
    C_p: float = TABLE_DEFAULTS["C_p"]
    C_r: float = TABLE_DEFAULTS["C_r"]
    C_g: float = TABLE_DEFAULTS["C_g"]
    C_op: float = TABLE_DEFAULTS["C_op"]
    C_or: float = TABLE_DEFAULTS["C_or"]
    i_c: float = TABLE_DEFAULTS["i_c"]
    h_p: float = TABLE_DEFAULTS["h_p"]
    h_d: float = TABLE_DEFAULTS["h_d"]
    h_r: float = TABLE_DEFAULTS["h_r"]
    d_cp: float = TABLE_DEFAULTS["d_cp"]
    d_cd: float = TABLE_DEFAULTS["d_cd"]
    d_cr: float = TABLE_DEFAULTS["d_cr"]
    O_r: float = TABLE_DEFAULTS["O_r"]
    C_s: float = TABLE_DEFAULTS["C_s"]
    f_r: float = TABLE_DEFAULTS["f_r"]
    E_p: float = TABLE_DEFAULTS["E_p"]
    E_t: float = TABLE_DEFAULTS["E_t"]
    E_h1: float = TABLE_DEFAULTS["E_h1"]
    E_h2: float = TABLE_DEFAULTS["E_h2"]
    E_hr: float = TABLE_DEFAULTS["E_hr"]
    E_d1: float = TABLE_DEFAULTS["E_d1"]
    E_d2: float = TABLE_DEFAULTS["E_d2"]
    E_dr: float = TABLE_DEFAULTS["E_dr"]
    d1: float = TABLE_DEFAULTS["d1"]
    l1: float = TABLE_DEFAULTS["l1"]
    l2: float = TABLE_DEFAULTS["l2"]
    l3: float = TABLE_DEFAULTS["l3"]
    l4: float = TABLE_DEFAULTS["l4"]
    kappa1: float = TABLE_DEFAULTS["kappa1"]
    kappa2: float = TABLE_DEFAULTS["kappa2"]
    omega: float = TABLE_DEFAULTS["omega"]
    U1: float = TABLE_DEFAULTS["U1"]
    U2: float = TABLE_DEFAULTS["U2"]

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Check the structural invariants; raise ParameterError on failure."""
        errors = []
        nonneg = [f.name for f in fields(self)
                  if f.name not in ("C_Tax", "C_CT")]
        for name in nonneg:
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0:
                errors.append(f"{name} must be finite and nonnegative, got {value}")
        for name in ("C_Tax", "C_CT"):
            value = getattr(self, name)
            if value is not None and (not np.isfinite(value) or value < 0):
                errors.append(f"{name} must be finite and nonnegative, got {value}")
        if not self.P > self.P_r > 0:
            errors.append(f"require P > P_r > 0, got P={self.P}, P_r={self.P_r}")
        for name in ("f_d", "beta1", "beta2", "f_r", "omega"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                errors.append(f"{name} must lie in [0, 1], got {value}")
        for name in ("eta", "v1", "v2", "a", "b"):
            if not getattr(self, name) > 0:
                errors.append(f"{name} must be strictly positive")
        if errors:
            raise ParameterError("; ".join(errors))
        if self.eta > 1.0:
            warnings.warn(
                f"stock-consumption parameter eta={self.eta} exceeds 1; "
                "accepted, but outside the stated (0, 1] modelling range",
                stacklevel=3)

    def require_policy_price(self, policy: str) -> None:
        """Fail if the carbon price used by `policy` was not supplied."""
        field = POLICY_PRICE_FIELD.get(policy)
        if field is None and policy not in POLICY_PRICE_FIELD:
            raise ParameterError(f"unknown policy {policy!r}")
        if field is not None and getattr(self, field) is None:
            raise ParameterError(
                f"missing mandatory keys for policy {policy!r}: {field}")

    def as_array(self) -> np.ndarray:
        """Pack into the kernel parameter vector (None becomes NaN)."""
        out = np.empty(N_PARAMS, dtype=np.float64)
        for i, name in enumerate(PARAM_ORDER):
            value = getattr(self, name)
            out[i] = np.nan if value is None else float(value)
        return out

    def replace(self, **changes) -> "ModelParameters":
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in PARAM_ORDER}

    @classmethod
    def from_dict(cls, doc: dict, policy: str | None = None) -> "ModelParameters":
        """Build from a plain mapping with strict key checking.

        Unknown keys are rejected.  Keys absent from the document fall back
        to the published defaults; the keys with no published value (v1, v2
        and the active policy's carbon price) must be present and are all
        reported together when missing.
        """
        known = set(PARAM_ORDER)
        unknown = sorted(set(doc) - known)
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
        return cls(**{k: v for k, v in doc.items() if v is not None})

    @classmethod
    def from_json(cls, text: str, policy: str | None = None) -> "ModelParameters":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ParameterError("parameter document must be a JSON object")
        return cls.from_dict(doc, policy=policy)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


# The dataclass must cover the kernel layout exactly.
_dataclass_names = {f.name for f in fields(ModelParameters)}
assert _dataclass_names == set(PARAM_ORDER), (
    "ModelParameters fields out of sync with kernel PARAM_ORDER")
