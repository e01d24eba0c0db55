"""Malformed documents and arguments that the spec readers refuse."""

import pytest

from dicke_sim.errors import ConfigError
from dicke_sim.spec import (LossSchedule, input_from_config, measurement_from_json, parse_config,
                            policy_from_config, schedule_from_config, state_from_json)


@pytest.mark.parametrize("call, message", [
    (lambda: LossSchedule.random(5, 1.5, 0), "loss rate must lie in [0, 1], got 1.5"),
    (lambda: state_from_json([1]), "a state document must be an object"),
    (lambda: measurement_from_json({"type": "kraus", "matrices": []}), "kraus measurement needs at least one matrix"),
    (lambda: policy_from_config({"type": "bogus"}), "unknown policy type 'bogus'"),
    (lambda: schedule_from_config("measure", 3), "schedule must be a list of events or a generator object"),
    (lambda: schedule_from_config(["measure"] * 4, 3), "schedule longer than the number of input qubits"),
    (lambda: parse_config([]), "configuration must be a JSON object"),
], ids=["loss-rate-1.5", "state-not-object", "kraus-empty", "policy-unknown", "schedule-string",
        "schedule-too-long", "config-not-object"])
def test_malformed_documents_rejected(call, message):
    _assert_refused(call, message)


def _assert_refused(call, message):
    with pytest.raises(ConfigError) as excinfo:
        call()
    assert str(excinfo.value) == message


# Each reader refuses a field that belongs to another type of its documents, not just one no type has.
AMPS = [[0.6, 0.0], [0.0, 0.8], [0.0, 0.0]]


@pytest.mark.parametrize("doc, message", [
    ({"type": "dicke", "nu": 1, "amps": AMPS}, "unknown dicke input fields: ['amps']"),
    ({"type": "noon", "nu": 9}, "unknown noon input fields: ['nu']"),
    ({"type": "uniform", "theta": 0.1}, "unknown uniform input fields: ['theta']"),
    ({"type": "custom", "amps": AMPS, "nu": 1}, "unknown custom input fields: ['nu']"),
], ids=["dicke-amps", "noon-nu", "uniform-theta", "custom-nu"])
def test_input_refuses_foreign_fields(doc, message):
    _assert_refused(lambda: input_from_config(doc, 2), message)


@pytest.mark.parametrize("doc, message", [
    ({"type": "fixed", "delta": 0.8}, "unknown fixed policy fields: ['delta']"),
    ({"type": "round_robin", "bases": [{"theta": 1.0}], "phi": 0.3}, "unknown round_robin policy fields: ['phi']"),
    ({"type": "feedback", "delta": 0.8, "phi": 0.3}, "unknown feedback policy fields: ['phi']"),
], ids=["fixed-delta", "round-robin-phi", "feedback-phi"])
def test_policy_refuses_foreign_fields(doc, message):
    _assert_refused(lambda: policy_from_config(doc), message)


@pytest.mark.parametrize("doc, message", [
    ({"type": "pvm", "theta": 1.57, "phii": 1.0}, "unknown pvm measurement fields: ['phii']"),
    ({"type": "pvm_kappa", "kappa": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "theta": 0.0},
     "unknown pvm_kappa measurement fields: ['theta']"),
    ({"type": "kraus", "matrices": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]], "kappa": []},
     "unknown kraus measurement fields: ['kappa']"),
], ids=["pvm-phii", "pvm-kappa-theta", "kraus-kappa"])
def test_measurement_refuses_foreign_fields(doc, message):
    _assert_refused(lambda: measurement_from_json(doc), message)


@pytest.mark.parametrize("doc, message", [
    ({"n": 2, "amps": AMPS, "alpha": []}, "unknown density state fields: ['amps']"),
    ({"n": 2, "kind": "density", "amps": AMPS}, "unknown density state fields: ['amps']"),
    ({"n": 2, "kind": "ket", "amps": AMPS, "lost": 1}, "unknown ket state fields: ['lost']"),
    ({"n": 2, "amps": AMPS, "type": "noon"}, "unknown noon input fields: ['amps']"),
    ({"n": 2, "kind": "ket_with_losses", "amps": AMPS, "lost": 1, "seed": 3},
     "unknown ket_with_losses state fields: ['seed']"),
], ids=["amps-and-alpha", "density-amps", "ket-lost", "typed-amps", "trace-line-seed"])
def test_state_refuses_foreign_fields(doc, message):
    _assert_refused(lambda: state_from_json(doc), message)


CONFIG = {"input": {"type": "noon"}, "n": 2, "phi": 0.4, "policy": {"type": "fixed"}, "schedule": ["measure"],
          "trials": 1, "seed": 0}


@pytest.mark.parametrize("version, message", [
    (99, "config 'schema_version' must be 1, got 99"),
    (0, "config 'schema_version' must be 1, got 0"),
    (True, "config 'schema_version' must be 1, got True"),
    (1.0, "config 'schema_version' must be 1, got 1.0"),
    ("1", "config 'schema_version' must be 1, got '1'"),
])
def test_other_schema_version_refused(version, message):
    _assert_refused(lambda: parse_config({**CONFIG, "schema_version": version}), message)
    assert parse_config({**CONFIG, "schema_version": 1})["n"] == 2
