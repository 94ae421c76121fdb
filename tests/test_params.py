import json
import warnings

import numpy as np
import pytest

from greenchain import ModelParameters, ParameterError
from greenchain.kernels import PARAM_ORDER
from greenchain.params import TABLE_DEFAULTS


def test_published_defaults_load_exactly():
    p = ModelParameters(v1=0.05, v2=0.05)
    assert p.P == 7500 and p.P_r == 2500
    assert p.f_d == 0.05 and p.beta1 == 0.04 and p.beta2 == 0.06
    assert p.eta == 1.6 and (p.a, p.b) == (30, 0.1)
    assert p.omega == 0.6 and p.U1 == 30 and p.U2 == 120
    assert p.theta1 == 0.15 and p.theta2 == 0.1
    assert p.O_r == 130 and p.d_cr == 0.05
    assert (p.l1, p.l2, p.l3, p.l4) == (15, 3, 100, 2.8)
    assert (p.kappa1, p.kappa2) == (1.45, 0.8)
    assert p.C_Tax is None and p.C_CT is None


def test_as_array_follows_kernel_layout():
    p = ModelParameters(v1=0.05, v2=0.06, C_Tax=2.0)
    arr = p.as_array()
    assert arr.shape == (len(PARAM_ORDER),)
    for i, name in enumerate(PARAM_ORDER):
        value = getattr(p, name)
        if value is None:
            assert np.isnan(arr[i])
        else:
            assert arr[i] == value


def test_as_array_is_a_fresh_copy():
    p = ModelParameters(v1=0.05, v2=0.06)
    arr = p.as_array()
    assert arr.dtype == np.float64
    arr[:] = -1.0
    again = p.as_array()
    assert again[PARAM_ORDER.index("P")] == 7500.0 and np.isnan(again[-1])
    assert p.P == 7500.0


def test_numpy_scalars_accepted():
    p = ModelParameters(v1=np.float64(0.05), v2=np.float32(0.25), P=np.int64(8000))
    q = ModelParameters(v1=0.05, v2=0.25, P=8000)
    assert np.array_equal(p.as_array(), q.as_array(), equal_nan=True)


def test_non_numeric_values_all_named():
    with pytest.raises(ParameterError, match="not a real number: f_d, v1, C_CT$"):
        ModelParameters(v1="0.05", v2=0.05, f_d=True, C_CT=[2.0])


def test_json_round_trip():
    p = ModelParameters(v1=0.05, v2=0.06, C_Tax=2.1, C_CT=2.1, P=8000.0)
    q = ModelParameters.from_dict(json.loads(json.dumps(p.to_dict())))
    assert q == p


def test_unknown_keys_rejected():
    doc = {"v1": 0.05, "v2": 0.05, "bogus": 1, "other": 2}
    with pytest.raises(ParameterError, match="bogus.*other|unknown"):
        ModelParameters.from_dict(doc)


def test_missing_mandatory_keys_all_listed():
    with pytest.raises(ParameterError) as err:
        ModelParameters.from_dict({"P": 7000.0}, policy="tax")
    message = str(err.value)
    assert "v1" in message and "v2" in message and "C_Tax" in message


def test_policy_price_required_per_policy():
    p = ModelParameters(v1=0.05, v2=0.05)
    with pytest.raises(ParameterError, match="C_Tax"):
        p.require_policy_price("tax")
    with pytest.raises(ParameterError, match="C_CT"):
        p.require_policy_price("cap_trade")
    p.require_policy_price("limited")  # no price needed


def test_missing_optional_keys_fall_back_to_defaults():
    p = ModelParameters.from_dict({"v1": 0.05, "v2": 0.05})
    assert p.P == TABLE_DEFAULTS["P"]
    assert p.h_r == TABLE_DEFAULTS["h_r"]


@pytest.mark.parametrize("changes", [
    {"P": 100.0},              # violates P > P_r
    {"f_d": 1.5},
    {"beta1": -0.1},
    {"b": 0.0},
    {"eta": 0.0},
    {"C_p": -1.0},
    {"omega": 1.2},
])
def test_invariant_violations_raise(changes):
    with pytest.raises(ParameterError):
        ModelParameters(v1=0.05, v2=0.05, **changes)


def test_v_must_be_positive():
    with pytest.raises(ParameterError):
        ModelParameters(v1=0.0, v2=0.05)


def test_eta_above_one_warns():
    with pytest.warns(UserWarning, match="eta") as record:
        ModelParameters.from_dict({"v1": 0.05, "v2": 0.05, "eta": 1.6})
    assert len(record) == 1 and record[0].filename == __file__
    with pytest.warns(UserWarning, match="eta") as record:
        ModelParameters.from_dict(json.loads('{"v1": 0.05, "v2": 0.05}'))
    assert len(record) == 1 and record[0].filename == __file__
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ModelParameters.from_dict({"v1": 0.05, "v2": 0.05, "eta": 0.9})
        ModelParameters.from_dict(json.loads('{"v1": 0.05, "v2": 0.05, "eta": 0.9}'))
        ModelParameters(v1=0.05, v2=0.05, eta=1.6).replace(eta=1.7)


def test_replace_revalidates():
    p = ModelParameters(v1=0.05, v2=0.05)
    with pytest.raises(ParameterError):
        p.replace(f_d=2.0)
