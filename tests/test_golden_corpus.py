"""The golden corpus (golden_corpus.py): every pinned digest recomputed from its config or recipe."""

import pytest

import golden_corpus

CORPUS = golden_corpus.load()
CONFIGS = CORPUS["configs"]


@pytest.mark.parametrize("entry", CONFIGS, ids=[entry["name"] for entry in CONFIGS])
def test_config_digests(entry):
    # density_trace_sha256: the trace as written when lossy lines held densities, rebuilt from the kets
    assert golden_corpus.config_digests(entry) == {
        "report_sha256": entry["report_sha256"], "trace_sha256": entry["trace_sha256"],
        "density_trace_sha256": entry["density_trace_sha256"]}


def test_ml_estimate_digest():
    pinned = CORPUS["ml_estimates"]
    got = golden_corpus.estimate_digest(pinned["recipe"])
    assert got == {"traces": pinned["traces"], "fallbacks": pinned["fallbacks"], "sha256": pinned["sha256"]}
    assert got["traces"] >= 800 and got["fallbacks"] >= 20


def test_wide_estimate_digest():
    # pinned by the step-by-step joint replay, before the estimator took its closed form
    pinned = CORPUS["ml_estimates_wide"]
    got = golden_corpus.estimate_digest(pinned["recipe"])
    assert got == {"traces": pinned["traces"], "fallbacks": pinned["fallbacks"], "sha256": pinned["sha256"]}
    assert got["traces"] >= 24 and got["fallbacks"] == 0


def test_corpus_covers_every_kind():
    docs = [entry["config"] for entry in CONFIGS]
    assert {doc["input"]["type"] for doc in docs} == {"dicke", "noon", "uniform", "custom"}
    assert {doc["policy"]["type"] for doc in docs} == {"fixed", "round_robin", "feedback"}
    lists = [doc["schedule"] for doc in docs if isinstance(doc["schedule"], list)]
    assert any("lose" in s for s in lists) and any(s and "lose" not in s for s in lists)
    assert any(isinstance(doc["schedule"], dict) for doc in docs)
    assert {doc.get("estimate", doc["policy"]["type"] == "feedback") for doc in docs} == {True, False}
    assert {doc["n"] for doc in docs} >= {1, 128}
    assert {entry["workers"] for entry in CONFIGS} == {1, 2}
