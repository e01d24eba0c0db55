"""Pinned `simulate` reports and trace files of two lossy configs with estimation.

The expected report values were recorded from the batched trial loop before
the deferred losses moved into one split-coefficient product and the forced
replays into one loop; a refactor of either must leave them unchanged.  The
density trace digests were recorded once the final densities became exactly
Hermitian and the trace lines were written from one template per block; they
are checked on the lines rebuilt from today's final kets (density_lines).
"""

import hashlib
import io

import numpy as np
import pytest
from golden_corpus import density_lines

from dicke_sim.harness import run_ensemble


def _custom_input(n: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    return {"type": "custom", "amps": [[z.real, z.imag] for z in amps.tolist()]}


ADAPTIVE = {  # the shape of perfbench's adaptive-estimate workload
    "input": _custom_input(12, 1),
    "n": 12,
    "phi": 1.1,
    "policy": {"type": "feedback", "delta": 0.8},
    "schedule": ["measure", "measure", "lose", "measure", "measure", "measure",
                 "lose", "measure", "measure", "measure", "lose", "measure"],
    "trials": 16,
    "seed": 2024,
    "estimate": True,
}
FIXED_64 = {
    "input": _custom_input(64, 2),
    "n": 64,
    "phi": 0.6,
    "policy": {"type": "fixed", "theta": 1.5707963267948966, "phi": 0.3},
    "schedule": ["measure", "measure", "lose"] * 8,
    "trials": 12,
    "seed": 77,
    "estimate": True,
}

GOLDEN = [
    (
        ADAPTIVE,
        ["000001011", "001101110", "010001101", "010100010", "011000001", "011001100",
         "011010000", "011110100", "011111111", "100100000", "100110000", "101010111",
         "110011100", "111011011", "111101011", "111110011"],
        {"0.3190680039": 1, "0.5338253142": 1, "0.8774370107": 1, "0.9019807033": 1,
         "0.9633399348": 1, "0.9817477042": 1, "1.0553787821": 1, "1.1965050146": 1,
         "1.2455923998": 1, "1.3437671702": 1, "1.4603497101": 1, "2.1046216410": 1,
         "2.2641556429": 1, "3.6324665057": 1, "4.6448938257": 1, "5.6695929920": 1},
        0.5896812683374273,
    ),
    (
        FIXED_64,
        ["0000001000000000", "0000110100000110", "0011000000110101", "0111100000011010",
         "0111111111111111", "1001101110101010", "1010000000000010", "1010011000000010",
         "1100001001110011", "1101101111100011", "1101110010101001", "1111111111111111"],
        {"1.1596894756": 3, "1.9021361770": 1, "2.4789129532": 1, "2.6323110320": 1,
         "2.6384469552": 1, "4.3012821292": 1, "5.6205056068": 2, "5.7800396088": 1,
         "6.2525056914": 1},
        0.24715229545493786,
    ),
]


@pytest.mark.parametrize("config, sequences, estimates, sharpness", GOLDEN, ids=["adaptive-12", "fixed-64"])
def test_pinned_report(config, sequences, estimates, sharpness):
    report = run_ensemble(config)
    trials = config["trials"]
    assert report["outcome_sequences"] == {
        labels: {"count": 1, "frequency": 1 / trials} for labels in sequences
    }
    assert report["estimation"]["estimate_distribution"] == estimates
    assert report["estimation"]["sharpness"] == pytest.approx(sharpness, abs=1e-12)


TRACE_SHA256 = [  # of the whole --trace-out text, and of it with densities as final states
    (ADAPTIVE, "4fb2546aea7ae2072a5598f891c4f8dba509fccedacb8d0de6fb00245359916d",
     "38438b561935458f817eeadfe0d697e1dfa8a66ddf51a9367e8b9c652b7f1552"),
    (FIXED_64, "7b24ada37881177eeeee4f5447f16f07224a14e6b73cc71e27482eb90d6244d9",
     "b7d5a7aefac00cd42065624c110bc3fd99d41003d8d4ef9d00a43456e6fe954c"),
]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("config, digest, density_digest", TRACE_SHA256, ids=["adaptive-12", "fixed-64"])
def test_pinned_trace_digest(config, digest, density_digest, workers):
    sink = io.StringIO()
    run_ensemble(config, workers=workers, trace_sink=sink)
    assert _sha256(sink.getvalue()) == digest
    assert _sha256(density_lines(sink.getvalue())) == density_digest
