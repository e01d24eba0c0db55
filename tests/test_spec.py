"""Malformed documents and arguments that the spec readers refuse."""

import pytest

from dicke_sim.errors import ConfigError
from dicke_sim.spec import (LossSchedule, measurement_from_json, parse_config, policy_from_config,
                            schedule_from_config, state_from_json)


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
    with pytest.raises(ConfigError) as excinfo:
        call()
    assert str(excinfo.value) == message
