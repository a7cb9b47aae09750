"""The report writer: ``dumps`` against the stdlib encoder of ``_plain``."""

import json
import math
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from nlprob import reports
from nlprob.errors import NonFiniteError


def oracle(payload):
    return json.dumps(reports._plain(payload), indent=2, allow_nan=False)


finite = st.floats(allow_nan=False, allow_infinity=False)
ints = st.integers() | st.integers(min_value=-2**200, max_value=2**200)
texts = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12) \
    | st.sampled_from(['"', "\\", "\n\t\x00\x1f\x7f", "é→😀", "</script>"])
scalars = (st.none() | st.booleans() | ints | texts | finite
           | st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308]))
numpy_scalars = (finite.map(np.float64)
                 | st.integers(-2**63, 2**63 - 1).map(np.int64)
                 | st.booleans().map(np.bool_) | texts.map(np.str_))
arrays = (finite.map(np.array)
          | st.lists(finite, max_size=5).map(lambda v: np.array(v, dtype=float))
          | st.lists(st.integers(-2**63, 2**63 - 1), max_size=5).map(
              lambda v: np.array(v, dtype=np.int64)))
sets = (st.frozensets(st.integers(-5, 5), max_size=4)
        | st.sets(texts, max_size=4))
keys = texts | st.integers(-3, 3) | st.booleans()


def containers(children):
    dicts = st.dictionaries(keys, children, max_size=5)
    return (dicts | dicts.map(MappingProxyType)
            | st.lists(children, max_size=5)
            | st.lists(children, max_size=5).map(tuple))


payloads = st.recursive(scalars | numpy_scalars | arrays | sets, containers,
                        max_leaves=40)


@seed(20261018)
@settings(max_examples=400, deadline=None, database=None)
@given(payloads)
def test_dumps_is_the_stdlib_text_of_plain(payload):
    assert reports.dumps(payload) == oracle(payload)


@pytest.mark.parametrize("payload", [
    {}, [], (), {"a": {}}, {"a": []}, [[], {}, [[]]],
    {1: "int key", "1": "str key after"}, {True: 1, "True": 2, False: 3},
    {"x": -0.0, "y": 5e-324, "z": 1e308, "w": 2**100},
    {"s": "quote \" backslash \\ tab \t nul \x00 é 😀"},
    MappingProxyType({"m": MappingProxyType({"n": np.int64(7)})}),
    {"set": {3, 1, 2}, "array": np.arange(3.0), "0d": np.array(2.5)},
    [np.float64(0.1), np.str_("é"), np.bool_(True), np.int64(-1)],
])
def test_dumps_named_payloads(payload):
    assert reports.dumps(payload) == oracle(payload)


def test_dumps_of_a_report_record():
    record = reports.comparison("c", 1.0, 2.0, 0.0, {"w": np.arange(2)})
    payload = {"checks": [record.as_dict()], "passed": True}
    assert reports.dumps(payload) == oracle(payload)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan,
                                 np.float64(math.inf), np.float64(math.nan),
                                 np.array([1.0, math.nan]), np.array(math.inf)])
@pytest.mark.parametrize("wrap", [lambda v: v, lambda v: {"a": [1, {"b": v}]},
                                  lambda v: (0.5, v),
                                  lambda v: MappingProxyType({"k": v})])
def test_dumps_refuses_non_finite_values(bad, wrap):
    with pytest.raises(NonFiniteError, match="not finite"):
        reports.dumps(wrap(bad))
