"""The CLI's exit-code contract over drawn configurations.

Whatever the config and flags, a subcommand exits 0 (success), 2 (invalid
input or domain error) or, for `calibrate`, 3 (calibration failed); never
1, the internal-error code.  Every subcommand checks the shared keys:
decisions that are not an object of decision names, unknown optimizer
options, a policy that is not one or a seed that is not an integer exit
2 under each of them.  A JSON file it writes is JSON: no NaN or Infinity,
which Python's encoder would write unasked; a surface CSV holds finite
numbers only.  Each example starts from a working
invocation and breaks up to two of its layers: the parameter document
(out-of-domain, non-numeric, null and missing values, unknown keys), the
`parameters_file` it may come through, the subcommand's section, the
shared config keys and unknown sections, and the flags (out of range, or
not numbers at all).
"""

import contextlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from greenchain.cli import SECTION_KEYS, main
from greenchain.kernels import PARAM_ORDER
from greenchain.model import DECISION_NAMES
from greenchain.params import TABLE_DEFAULTS

PARAMS = {"v1": 0.0386, "v2": 0.0549, "C_Tax": 2.108, "C_CT": 2.108}
DECISIONS = {"T0": 0.6626, "xi1": 167.8651, "xi2": 93.6741,
             "G": 7.7565, "W_r": 292.28}
TARGET = {"decisions": DECISIONS, "Z_m": 6493.11, "Z_r": 60302.21,
          "phi_T": 66795.32}
REFERENCE = {**TABLE_DEFAULTS, **PARAMS, **DECISIONS}
COMMANDS = ("evaluate", "optimize", "sensitivity", "anfis", "surface", "calibrate")
#: Working sections; `optimize` has none of its own.
SECTIONS = {
    "evaluate": {},
    "sensitivity": {"parameter": "C_p", "levels": [-20.0, 0.0, 20.0]},
    "anfis": {"range": [0.2, 1.0], "n_points": 12, "epochs": 1},
    "surface": {"variables": ["T0", "W_r"], "range1": [0.2, 0.8],
                "range2": [80.0, 300.0], "n1": 2, "n2": 3},
    "calibrate": {},
}
#: The `optimizer` options; `seed` is top-level only.
OPTIMIZER_OPTIONS = ("algorithm", "pop_size", "max_iter", "F", "Pc", "c1", "c2",
                     "m0", "penalty_coefficient", "penalty_double_every")
POLICIES = ("tax", "cap_trade", "limited")
UNKNOWN_KEYS = ("bogus", "v3", "p", "")
LAYERS = ("parameters", "parameters_file", "section", "config", "flags")

#: Values with no business in a numeric slot.
NON_NUMERIC = st.sampled_from(["1.0", "", True, False, [1.0], {"x": 1.0}])
#: Numbers a slot may refuse: signs, zeros, limits, overflow.
EDGE_NUMBERS = st.sampled_from([0, 0.0, -0.0, -1.0, 1e-300, 1e300, 1e308,
                                math.inf, -math.inf, math.nan, 10 ** 400,
                                -(10 ** 400)])


def numbers_around(reference: float):
    """Numbers up to three times `reference` either side of zero, or an edge."""
    scale = abs(reference) or 1.0
    return st.one_of(st.floats(-3.0, 3.0).map(lambda f: f * scale), EDGE_NUMBERS)


def slot(name: str):
    """A value for the numeric slot `name`: its reference value, a number
    around it, a non-number or null."""
    reference = REFERENCE.get(name, 1.0)
    return st.one_of(st.just(reference), numbers_around(reference), NON_NUMERIC,
                     st.none())


@st.composite
def mutated(draw, base: dict, keys, value_for, max_changes: int = 3):
    """`base` with up to `max_changes` of `keys` or unknown keys set by
    `value_for(key)`, then up to two keys dropped."""
    doc = dict(base)
    for key in draw(st.lists(st.sampled_from(tuple(keys) + UNKNOWN_KEYS),
                             max_size=max_changes, unique=True)):
        doc[key] = draw(value_for(key))
    for key in draw(st.lists(st.sampled_from(sorted(doc) or [""]), max_size=2)):
        doc.pop(key, None)
    return doc


def option_value(key: str):
    """A value for an `optimizer` option.  Counts stay small: a working
    run allocates pop_size rows per generation."""
    if key == "algorithm":
        return st.sampled_from(["de1", "de2", "pso", "ga", "", 1, None])
    if key in ("pop_size", "max_iter", "penalty_double_every"):
        return st.one_of(st.integers(-2, 6), NON_NUMERIC, st.none(), EDGE_NUMBERS)
    return st.one_of(numbers_around(1.0), NON_NUMERIC, st.none())


def range_value(low: float, high: float):
    return st.one_of(st.lists(st.one_of(numbers_around(high), EDGE_NUMBERS),
                              min_size=2, max_size=2),
                     st.lists(st.floats(low, high), max_size=3), NON_NUMERIC,
                     st.none())


def section_value(command: str, key: str):
    """A value for `key` of `command`'s section (or an unknown key)."""
    if key == "decisions":
        return mutated(DECISIONS, DECISION_NAMES, slot)
    if key == "target":
        return st.one_of(mutated(TARGET, tuple(TARGET),
                                 lambda k: mutated(DECISIONS, DECISION_NAMES, slot)
                                 if k == "decisions" else numbers_around(TARGET[k])
                                 if k in TARGET else slot(k)),
                         NON_NUMERIC)
    return {
        "parameter": st.sampled_from(PARAM_ORDER + ("bogus", 3)),
        "levels": st.one_of(st.lists(st.one_of(st.sampled_from([-40.0, 0.0, 40.0]),
                                               numbers_around(100.0)), max_size=5),
                            NON_NUMERIC),
        "reoptimize": st.sampled_from([True, False, 0, "no", None]),
        "variable": st.sampled_from(DECISION_NAMES + ("x", 3)),
        "n_points": st.one_of(st.integers(-1, 16), NON_NUMERIC, st.none()),
        "range": range_value(0.05, 1.5),
        "epochs": st.one_of(st.integers(-1, 3), NON_NUMERIC, st.none()),
        "learning_rate": st.one_of(numbers_around(0.01), NON_NUMERIC, st.none()),
        "variables": st.one_of(st.lists(st.sampled_from(DECISION_NAMES + ("x", 1)),
                                        max_size=3), NON_NUMERIC),
        "range1": range_value(0.2, 0.8),
        "range2": range_value(80.0, 300.0),
        "n1": st.one_of(st.integers(-1, 3), NON_NUMERIC, st.none()),
        "n2": st.one_of(st.integers(-1, 3), NON_NUMERIC, st.none()),
    }.get(key, slot(key))


def config_value(key: str):
    """A value for a shared config key, or a section no subcommand reads."""
    return {
        "policy": st.sampled_from(["tax", "cap_trade", "limited", "", "subsidy", 5]),
        "seed": st.sampled_from([0, -1, 2 ** 70, 2.5, True, "7"]),
        "optimizer": st.one_of(mutated({}, OPTIMIZER_OPTIONS + ("seed",),
                                       option_value), NON_NUMERIC),
        "decisions": mutated(DECISIONS, DECISION_NAMES, slot),
        "parameters": NON_NUMERIC,
        "out_dir": NON_NUMERIC,
        "anfis": st.just({"epochs": 1}),
        "surface": st.just({"n1": 1}),
    }.get(key, slot(key))


def flags(command: str, broken: bool):
    """Subcommand flags; when `broken`, with values out of range or not
    numbers at all."""
    def optional(name, values):
        return st.one_of(st.just([]), values.map(lambda v: [name, str(v)]))

    if command == "evaluate":
        values = (lambda name: st.one_of(numbers_around(DECISIONS[name]),
                                         st.just("x"))) if broken else \
            (lambda name: st.just(DECISIONS[name]))
        parts = [optional(f"--{name}", values(name)) for name in DECISION_NAMES]
    elif command in ("optimize", "sensitivity"):
        parts = [st.just(["--pop", "5", "--iters", "1"]),
                 optional("--algo", st.sampled_from(["de1", "de2", "pso"]))]
        if broken:
            parts += [optional("--pop", st.integers(-1, 6)),
                      optional("--iters", st.integers(-1, 2))]
        if command == "optimize":
            parts.append(optional("--seeds", st.integers(-1 if broken else 1, 3)))
        else:
            parts += [optional("--param", st.sampled_from(
                          ["P", "v1", "C_CT", "x"] if broken else ["P", "v1"])),
                      optional("--levels", st.sampled_from(
                          ["-40,0,40", "0", "10,20", "nan,0", "a,0", "-100,0,1e308"]
                          if broken else ["-40,0,40", "0"])),
                      st.sampled_from([[], ["--no-reoptimize"]])]
    elif command == "anfis":
        parts = [optional("--variable", st.sampled_from(
                     DECISION_NAMES + ("x",) * broken)),
                 optional("--points", st.integers(-1 if broken else 10, 16)),
                 optional("--epochs", st.integers(-1 if broken else 1, 2)),
                 st.sampled_from([[], ["--range", "0.1", "1.2"]]
                                 + [["--range", "1", "0.1"], ["--range", "0", "inf"]]
                                 * broken)]
    elif command == "surface":
        counts = st.integers(-1, 3) if broken else st.integers(1, 3)
        parts = [optional("--n1", counts), optional("--n2", counts),
                 st.sampled_from([[], ["--range1", "0.1", "0.9"]]
                                 + [["--range2", "nan", "1"], ["--range1", "1", "1"]]
                                 * broken)]
    else:
        parts = [st.just([])]
    return st.tuples(*parts).map(lambda lists: [flag for part in lists
                                                for flag in part])


@st.composite
def invocations(draw):
    """(command, config document, parameters_file text or None, global
    flags, subcommand flags)."""
    command = draw(st.sampled_from(COMMANDS))
    broken = draw(st.sets(st.sampled_from(LAYERS), max_size=2))
    event(f"breaks {len(broken)} layers")
    parameters = dict(PARAMS)
    if "parameters" in broken:
        parameters = draw(mutated(PARAMS, PARAM_ORDER, slot))
    config = {"parameters": parameters, "policy": "tax", "seed": 7,
              "decisions": DECISIONS}
    if command in SECTIONS:
        config[command] = dict(SECTIONS[command])
        if "section" in broken:
            config[command] = draw(mutated(SECTIONS[command], SECTION_KEYS[command],
                                           lambda key: section_value(command, key),
                                           max_changes=2))
    if "config" in broken:
        config = draw(mutated(config, ("policy", "seed", "optimizer", "decisions",
                                       "parameters", "out_dir", "anfis", "surface"),
                              config_value, max_changes=2))
    # The document through `parameters_file` instead; broken, the file
    # holds JSON of another shape, or no JSON at all.
    file_text = None
    if draw(st.booleans()) and "parameters" in config:
        file_text = json.dumps(config.pop("parameters"))
        if "parameters_file" in broken:
            file_text = draw(st.sampled_from(["[1, 2]", "42", "null", "{", "\xff"]))
    global_flags = draw(st.sampled_from(
        [[], ["--policy", "limited"], ["--policy", "cap_trade"], ["--seed", "3"]]
        + [["--policy", "subsidy"], ["--seed", "-1"], ["--seed", "x"]]
        * ("flags" in broken)))
    return command, config, file_text, global_flags, draw(flags(command,
                                                                "flags" in broken))


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


#: `anfis` warns so when the model refuses points of its sweep range.
SKIPPED_POINTS = r"skipped \d+ inadmissible grid points"


def run_main(argv) -> tuple:
    """(exit code, skipped-points warnings) of `main(argv)`.  Every other
    warning is issued again afterwards, under the suite's own filters."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings(record=True) as caught:
        warnings.filterwarnings("always", SKIPPED_POINTS, UserWarning)
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse refuses a flag
            code = exc.code
    skipped = [w for w in caught if re.match(SKIPPED_POINTS, str(w.message))]
    for w in caught:
        if w not in skipped:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    return code, skipped


def working(command: str, parameters=None, flags=(), **changes):
    """A working invocation of `command`, with `parameters` merged in and
    the config keys of `changes` replaced."""
    config = {"parameters": {**PARAMS, **(parameters or {})}, "policy": "tax",
              "seed": 7, "decisions": DECISIONS}
    if command in SECTIONS:
        config[command] = dict(SECTIONS[command])
    return command, {**config, **changes}, None, [], list(flags)


def refused_shared_keys(command, config, global_flags) -> list:
    """The shared keys of an invocation that every subcommand refuses:
    decisions that are not an object of decision names, unknown optimizer
    options, a policy that is not one, a seed that is not an integer."""
    def not_an_object_of(doc, names):
        return not isinstance(doc, dict) or bool(set(doc) - set(names))

    section = config.get(command) or {}
    refused = [key for key, doc in (("decisions", config.get("decisions")),
                                    (f"{command}.decisions", section.get("decisions")))
               if doc is not None and not_an_object_of(doc, DECISION_NAMES)]
    if isinstance(config.get("optimizer"), dict) \
            and not_an_object_of(config["optimizer"], OPTIMIZER_OPTIONS):
        refused.append("optimizer")
    given = dict(zip(global_flags[::2], global_flags[1::2]))
    policy = "tax" if config.get("policy") is None else config["policy"]
    if given.get("--policy", policy) not in POLICIES:
        refused.append("policy")
    # A `--seed` flag replaces the key; argparse refuses one that is not an int.
    if "--seed" not in given and config.get("seed") is not None \
            and type(config["seed"]) is not int:
        refused.append("seed")
    return refused


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(case=invocations())
# Each of these exited 1 once, on a NumPy floating-point warning from a
# valid but extreme input; the first three wrote -Infinity where the
# warning was not fatal.
@example(case=working("evaluate", {"C_p": 1e308}))
@example(case=working("evaluate", {"C_Tax": 1e308}))
@example(case=working("optimize", {"P": 1e308}, ["--pop", "5", "--iters", "1"]))
@example(case=working("evaluate", {"P": 1e308}))
@example(case=working("evaluate", flags=["--T0", "1e+300"]))
@example(case=working("calibrate", {"i_c": 1e308}))
@example(case=working("anfis", {"W_m": 1e300}))
@example(case=working("optimize", {"a": 1e308}, ["--pop", "5", "--iters", "1"]))
@example(case=working("optimize", {"a": 1e307},
                      ["--pop", "5", "--iters", "3", "--algo", "de1"]))
# Each of these exited 0 once: the command did not read the shared key, or
# (the last) the surface axes overflowed to inf and NaN outside any scope.
@example(case=working("optimize", flags=["--pop", "5", "--iters", "1"],
                      decisions={**DECISIONS, "g": 99}))
@example(case=working("calibrate", decisions={**DECISIONS, "g": 99}))
@example(case=working("sensitivity", flags=["--pop", "5", "--iters", "1"],
                      sensitivity={**SECTIONS["sensitivity"], "decisions": [1]}))
@example(case=working("evaluate", optimizer={"bogus": 1, "pop_size": "five"}))
@example(case=working("anfis", optimizer={"bogus": 1, "pop_size": "five"}))
@example(case=working("surface", optimizer={"bogus": 1, "pop_size": "five"}))
@example(case=working("calibrate", optimizer={"bogus": 1, "pop_size": "five"}))
@example(case=working("calibrate", policy="bogus"))
@example(case=working("evaluate", seed=2.5))
@example(case=working("evaluate", seed="x"))
@example(case=working("evaluate", seed=True))
@example(case=working("surface", seed=2.5))
@example(case=working("surface", seed="x"))
@example(case=working("surface", seed=True))
@example(case=working("surface", surface={**SECTIONS["surface"],
                                          "range1": [-1e308, 1e308]}))
def test_every_config_exits_zero_or_two(case):
    command, config, file_text, global_flags, command_flags = case
    with tempfile.TemporaryDirectory() as tmp:
        if file_text is not None:
            path = Path(tmp) / "parameters.json"
            path.write_text(file_text, encoding="latin-1")
            config["parameters_file"] = str(path)
        config_path = Path(tmp) / "config.json"
        config_path.write_text(json.dumps(config))
        out = Path(tmp) / "out"
        code, skipped = run_main(["--config", str(config_path), "--out", str(out),
                                  *global_flags, command, *command_flags])
        event(f"{command} exits {code}")
        refused = refused_shared_keys(command, config, global_flags)
        allowed = (2,) if refused else (0, 2, 3) if command == "calibrate" else (0, 2)
        assert code in allowed, (command, config, file_text, global_flags,
                                 command_flags, refused)
        assert not skipped or command == "anfis", (command, skipped)
        for written in out.glob("*.json"):
            json.loads(written.read_text(), parse_constant=refuse_constant)
        for written in out.glob("surface_*.csv"):
            assert not re.search("nan|inf", written.read_text()), written.name
