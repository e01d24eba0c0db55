"""Fuzzed command-line input: whatever the config document or spec string,
`main` returns 0, 2, 3 or 5, raises nothing, and prints at most one stderr line.
Fuzzed floats: the trace writer's formatter gives json.dumps's text of each.

Sizes stay small (n <= 16, trials <= 4, schedules <= n) so that each run is
cheap; the readers must refuse everything else before any work starts.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicke_sim.cli import main
from dicke_sim.serialize import float_texts

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 20) | st.integers(-(2**70), 2**70) | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)
CAPS = {"n": 16, "trials": 4}  # fields whose value sets the work done

CONFIGS = [
    {
        "input": {"type": "custom", "amps": [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]]},
        "n": 2,
        "phi": 0.4,
        "policy": {"type": "feedback", "delta": 0.8, "theta": 1.2, "initial_phi": 0.1},
        "schedule": {"length": 2, "loss_rate": 0.5, "seed": 1},
        "trials": 3,
        "seed": 5,
        "estimate": True,
    },
    {
        "schema_version": 1,
        "input": {"type": "dicke", "nu": 1},
        "n": 3,
        "phi": 1.1,
        "policy": {"type": "round_robin", "bases": [{"theta": 1.0, "phi": 0.2}, {"theta": 0.3}]},
        "schedule": ["measure", "lose", "measure"],
        "trials": 2,
        "seed": 9,
    },
    {
        "input": {"type": "noon"},
        "n": 4,
        "phi": 0.7,
        "policy": {"type": "fixed", "theta": 0.5, "phi": 0.1},
        "schedule": ["lose", "measure"],
        "trials": 4,
        "seed": 0,
        "estimate": False,
    },
]
STATE_DOCS = [
    {"n": 2, "amps": [[0.6, 0.0], [0.0, 0.8], [0.0, 0.0]]},
    {"n": 1, "alpha": [[[0.5, 0.0], [0.0, 0.1]], [[0.0, -0.1], [0.5, 0.0]]]},
    {"type": "dicke", "n": 3, "nu": 1},
    {"type": "custom", "n": 1, "amps": [[1.0, 0.0], [0.0, 1.0]]},
]
MEASUREMENT_DOCS = [
    {"type": "pvm", "theta": 0.3, "phi": 1.0},
    {"type": "pvm_kappa", "kappa": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
    {"type": "kraus", "matrices": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                                   [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]},
]
# spec values: small integers, floats, or text without decimal digits (int() reads any script's digits)
SPEC_VALUES = (
    st.integers(-3, 16).map(str)
    | st.floats().map(repr)
    | st.text(st.characters(blacklist_categories=("Nd",)), max_size=4)
)
SPECS = st.text(max_size=10) | st.builds(
    lambda kind, values: f"{kind}:{','.join(values)}",
    st.sampled_from(["dicke", "noon", "uniform", "bloch", "computational", "ghz", ""]),
    st.lists(SPEC_VALUES, max_size=3),
)


def _small(value, cap) -> bool:
    """False for any value a reader could take as a number above cap."""
    try:
        return not float(value) > cap
    except (TypeError, ValueError, OverflowError):
        return True


def _paths(doc, prefix=()):
    """Every (container path, key) that holds a field of doc."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix, key
        yield from _paths(value, prefix + (key,))


@st.composite
def fuzzed(draw, bases):
    """A deep copy of one base document with one to three fields replaced or deleted."""
    doc = json.loads(json.dumps(draw(st.sampled_from(bases))))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        prefix, key = draw(st.sampled_from(paths))
        owner = doc
        for step in prefix:
            owner = owner[step]
        if draw(st.booleans()) and isinstance(owner, dict):
            del owner[key]
        else:
            cap = CAPS.get(key) if prefix == () else None
            owner[key] = draw(JSON.filter(lambda v: _small(v, cap)) if cap else JSON)
    # a whole document's "n" of a state file sets its size too
    if isinstance(doc, dict) and not _small(doc.get("n"), CAPS["n"]):
        doc["n"] = CAPS["n"]
    return doc


def _assert_clean_exit(argv):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 2, 3, 5), (argv, rc, err.getvalue())
    assert len(err.getvalue().splitlines()) == (rc != 0), err.getvalue()


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@settings(max_examples=80, deadline=None)
@given(config=fuzzed(CONFIGS))
def test_config_documents(config, doc_path):
    doc_path.write_text(json.dumps(config))
    _assert_clean_exit(["simulate", "--config", str(doc_path)])


@settings(max_examples=150, deadline=None)
@given(state=SPECS, pvm=SPECS)
def test_spec_strings(state, pvm):
    _assert_clean_exit(["measure", f"--state={state}", "--pvm=computational"])
    _assert_clean_exit(["measure", "--state=dicke:3,1", f"--pvm={pvm}"])


@settings(max_examples=100, deadline=None)
@given(state=fuzzed(STATE_DOCS), measurement=fuzzed(MEASUREMENT_DOCS))
def test_state_and_measurement_files(state, measurement, doc_path):
    doc_path.write_text(json.dumps(state))
    _assert_clean_exit(["measure", f"--state=file:{doc_path}", "--pvm=hadamard"])
    doc_path.write_text(json.dumps(measurement))
    _assert_clean_exit(["measure", "--state=uniform:3", f"--pvm=file:{doc_path}"])


EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, 1e-5, -1e-5, 1e300, -1e300, 0.1])
FINITE = st.floats(allow_nan=False, allow_infinity=False) | EDGE_FLOATS


@settings(max_examples=300, deadline=None)
@given(values=st.lists(FINITE, max_size=12), repeats=st.lists(st.integers(0, 11), max_size=6))
def test_float_texts_are_json_texts(values, repeats):
    values = values + [-values[i % len(values)] for i in repeats if values]  # repeated magnitudes
    assert float_texts(np.array(values, dtype=float)).tolist() == [json.dumps(x) for x in values]
