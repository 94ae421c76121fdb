import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from greenchain import DecisionVector, DomainError, ModelParameters
from greenchain import kernels as K
from greenchain.model import evaluate_row


@pytest.fixture
def params():
    """Published defaults plus arbitrary values for the missing constants."""
    return ModelParameters(v1=0.05, v2=0.05, C_Tax=1.0, C_CT=1.0)


@pytest.fixture(scope="session")
def calibration():
    """Shared calibration of the missing constants (slow, run once)."""
    from greenchain.sensitivity import calibrate_missing_defaults

    return calibrate_missing_defaults()


def sample_admissible(rng: np.random.Generator, n: int):
    """Random admissible (params, decisions) pairs, rejection-sampled."""
    out = []
    while len(out) < n:
        P = rng.uniform(4000, 12000)
        a = rng.uniform(20, 60)
        b = rng.uniform(0.05, 0.2)
        W_m = rng.uniform(40, 120)
        p = ModelParameters(
            v1=rng.uniform(0.005, 0.1), v2=rng.uniform(0.005, 0.1),
            C_Tax=rng.uniform(0.0, 4.0), C_CT=rng.uniform(0.0, 4.0),
            P=P, P_r=P * rng.uniform(0.15, 0.5),
            f_d=rng.uniform(0.0, 0.15),
            beta1=rng.uniform(0.0, 0.1), beta2=rng.uniform(0.0, 0.1),
            theta1=rng.uniform(0.01, 0.4), theta2=rng.uniform(0.01, 0.3),
            D_r=rng.uniform(200, 800), a=a, b=b,
            eta=rng.uniform(0.5, 2.5), W_m=W_m,
            C_p=rng.uniform(5, 30), C_r=rng.uniform(1, 10),
            h_p=rng.uniform(1, 8), h_d=rng.uniform(0.5, 5),
            h_r=rng.uniform(0.5, 5),
            E_p=rng.uniform(0.0, 0.5), E_t=rng.uniform(0.0, 0.5),
            d1=rng.uniform(5, 60))
        price_cap = a / b
        lo = max(W_m, 0.3 * price_cap)
        if lo >= 0.97 * price_cap:
            continue
        d = DecisionVector(
            T0=rng.uniform(0.05, 1.2),
            xi1=rng.uniform(0.0, 300.0), xi2=rng.uniform(0.0, 300.0),
            G=rng.uniform(0.0, 20.0),
            W_r=rng.uniform(lo, 0.97 * price_cap))
        try:
            terms = evaluate_row(p, d)[4]
        except DomainError:
            continue
        # keep clear of the backlog-degeneracy boundary B2 = s*eta
        if terms[K.T_B2] - terms[K.T_S] * p.eta < 0.05 * terms[K.T_B2]:
            continue
        out.append((p, d))
    return out
