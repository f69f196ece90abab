"""Fuzzing of the config-file parser and of FlowConfig: every text or set of
keyword values either gives a FlowConfig or is refused with a ConfigError,
never another exception; and tiny runs of fuzzed configs end with a known
status or a typed setup error.

The texts mix the real keys with junk keys, and well-formed values with junk
ones (non-finite, huge, empty, wrong type, stray separators); the keyword
values mix numbers with values of the wrong type (strings, None, complex,
lists, bools).  Only the parser and FlowConfig's validation run: no flow,
and no grid is built from a fuzzed grid_n.  The runs are kept tiny (128
nodes, at most 300 steps, stop_tau within 0.05 of the start) and cover
every initial kind and engine, with phi_cut drawn next to the initial outer
boundary b0 / a0.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from krflow.flow import (ConfigError, FlowConfig, FlowSetupError, _FIELD_PARSERS,
                         parse_config_text, run_flow)

_KEYS = st.sampled_from(sorted(_FIELD_PARSERS)) | st.sampled_from(
    ["", "a0 b0", "A0", "grid-n", "snap_taus,"]) | st.text(max_size=6)
_NUMBERS = (st.floats(allow_nan=True, allow_infinity=True).map(repr)
            | st.integers(-10**6, 10**30).map(str)
            | st.sampled_from(["1", "3", "3.1", "10", "0.05", "0.5", "128", "6.5",
                               "-1", "0", "1e-320", "1e308", "1e400", "nan", "-inf",
                               "1_000", "0x10", "True", ""]))
_VALUES = (_NUMBERS
           | st.lists(_NUMBERS, max_size=4).map(", ".join)
           | st.sampled_from(["parabola", "cao_koiso", "cao_koiso_perturbed",
                              "from_file", "unscaled", "dilated", "both", "x.csv"])
           | st.text(max_size=12))
_LINES = st.tuples(_KEYS, st.sampled_from([" = ", "=", " : ", " == "]), _VALUES).map(
    "".join) | st.sampled_from(["", "# comment", "a0 = 1.0  # trailing"])


@settings(max_examples=400, deadline=None, database=None)
@given(st.lists(_LINES, max_size=8), st.booleans())
def test_parse_config_text_accepts_or_raises_config_error(lines, with_class):
    if with_class:                          # a valid Kahler class, so later keys matter
        lines = ["a0 = 1.0", "b0 = 10.0"] + lines
    try:
        cfg = parse_config_text("\n".join(lines))
    except ConfigError:
        return
    assert isinstance(cfg, FlowConfig)


# ---------------------------------------------------------------------------
# FlowConfig built directly, and tiny runs of fuzzed configs
# ---------------------------------------------------------------------------

_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
# ints past the float range too: math.isfinite raises OverflowError on them
_NUMBER = _FLOATS | st.integers() | st.sampled_from([2**1024, -10**400]) | st.booleans()
# values of the wrong type, which only the Python API can pass
_NON_REAL = (st.text(max_size=4) | st.none() | st.complex_numbers()
             | st.lists(_FLOATS, max_size=2) | st.sampled_from([b"1", "1", "nan", ()]))
_VALUE = _NUMBER | _NON_REAL
_OPTIONAL_NUMBERS = ("cfl", "stop_tau", "phi_cut", "grid_n", "record_every", "max_steps")


@settings(max_examples=1500, deadline=None, database=None, derandomize=True)
@given(st.fixed_dictionaries(
    {"a0": _VALUE, "b0": _VALUE},
    optional={**{k: _VALUE for k in _OPTIONAL_NUMBERS},
              "snap_taus": (st.lists(_VALUE, max_size=3).map(tuple)
                            | st.lists(_NUMBER, max_size=3) | _VALUE),
              "initial_kind": st.sampled_from(["parabola", "cao_koiso",
                                               "cao_koiso_perturbed", "from_file", "x"]),
              "engine": st.sampled_from(["unscaled", "dilated", "both", "x"])}))
def test_flow_config_builds_or_raises_config_error(kw):
    try:
        cfg = FlowConfig(**kw)
    except ConfigError:
        return
    assert isinstance(cfg, FlowConfig)


@pytest.mark.parametrize("grid_n", [65_537, 10**6, 10**12, 2**63])
def test_grid_n_past_the_ceiling_is_refused(grid_n):
    with pytest.raises(ConfigError, match="grid_n must lie in"):
        FlowConfig(a0=1.0, b0=10.0, grid_n=grid_n)
    assert FlowConfig(a0=1.0, b0=10.0, grid_n=65_536).grid_n == 65_536
    with pytest.raises(ConfigError, match="grid_n must lie in"):
        parse_config_text(f"a0 = 1\nb0 = 10\ngrid_n = {grid_n}")


_STATUSES = {"completed", "max_steps", "positivity_failure", "substep_limit",
             "remesh_failure"}


@st.composite
def _tiny_runs(draw):
    kind = draw(st.sampled_from(["parabola", "cao_koiso", "cao_koiso_perturbed"]))
    if kind == "parabola":                  # a0 <= 1 keeps stop_tau >= 0 possible
        a0 = draw(st.floats(0.5, 1.0))
        b0 = a0 * draw(st.floats(3.0, 12.0, exclude_min=True))
    else:
        a0 = 1.0
        b0 = 3.0 if kind == "cao_koiso" else draw(st.floats(3.0, 3.4, exclude_min=True))
    return dict(a0=a0, b0=b0, initial_kind=kind, grid_n=128,
                engine=draw(st.sampled_from(["unscaled", "dilated", "both"])),
                max_steps=draw(st.integers(1, 300)),
                stop_tau=-math.log(a0) + draw(st.floats(1e-6, 0.05)),
                phi_cut=b0 / a0 + draw(st.floats(-0.01, 0.01)),
                record_every=draw(st.integers(1, 100)))


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(_tiny_runs())
def test_tiny_runs_end_with_a_known_status(kw):
    try:
        arts = run_flow(FlowConfig(**kw))
    except (ConfigError, FlowSetupError):
        return
    assert arts.status in _STATUSES
    assert arts.manifest["status"] == arts.status
