"""One set-up in a fresh interpreter, timed by the parent from its spawn.

    python3 probe.py <src-dir>

Imports the CLI, loads the reference parameters through
``ModelParameters.from_dict``, makes one warm-up evaluation of each path,
then prints ``ready``: from then on the first task could start.
"""

import sys

sys.path.insert(0, sys.argv[1])

import numpy as np  # noqa: E402

import greenchain.cli  # noqa: E402,F401
from greenchain import DecisionVector, ModelParameters, evaluate_policy, \
    make_batch_objective  # noqa: E402

params = ModelParameters.from_dict(
    {"v1": 0.0386, "v2": 0.0549, "C_Tax": 2.108, "C_CT": 2.108})
point = DecisionVector(T0=0.6626, xi1=167.8651, xi2=93.6741, G=7.7565, W_r=292.28)
evaluate_policy(params, point, "tax")
make_batch_objective(params, "tax")(np.tile(point.as_array(), (50, 1)))
print("ready", flush=True)
