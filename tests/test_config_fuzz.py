"""Fuzzing of the config-file parser: every text either parses into a
FlowConfig or is refused with a ConfigError, never another exception.

The texts mix the real keys with junk keys, and well-formed values with junk
ones (non-finite, huge, empty, wrong type, stray separators).  Only the
parser and FlowConfig's validation run: no flow, and no grid is built from
a fuzzed grid_n.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from krflow.flow import ConfigError, FlowConfig, _FIELD_PARSERS, parse_config_text

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
