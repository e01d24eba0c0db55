"""Wire formats and command-line behaviour, including exit codes."""

import json
import math
import os
from dataclasses import asdict

import numpy as np
import pytest

from dicke_sim.cli import build_parser, main
from dicke_sim.errors import (
    EXIT_CONFIG,
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_VERIFY_FAILED,
    ConfigError,
)
from dicke_sim.harness import run_trial
from dicke_sim.measure import SingleQubitPVM, pvm_from_bloch
from dicke_sim.serialize import (_jsonable, _pairs, _pairs_template, dumps_json, float_texts, measurement_to_json,
                                 rows_to_csv, state_to_json)
from dicke_sim.spec import measurement_from_json, parse_config, state_from_json
from dicke_sim.states import SymmetricDensity, SymmetricKet, basis_state, make_ket, to_density
from dicke_sim.verify import SuiteParams, random_kraus_pair, random_symmetric_density


class TestStateJson:
    def test_ket_roundtrip(self):
        ket = make_ket(3, [1, 2j, 0, -1])
        doc = state_to_json(ket)
        back = state_from_json(json.loads(json.dumps(doc)))
        assert np.max(np.abs(back.amps - ket.amps)) < 1e-15

    def test_density_roundtrip(self):
        rho = random_symmetric_density(4, np.random.default_rng(2))
        back = state_from_json(json.loads(json.dumps(state_to_json(rho))))
        assert np.max(np.abs(back.alpha - rho.alpha)) < 1e-15

    def test_precision_survives_json(self):
        ket = make_ket(2, [math.sqrt(1 / 3), math.sqrt(2 / 3), 1e-7])
        back = state_from_json(json.loads(json.dumps(state_to_json(ket))))
        assert np.array_equal(back.amps, ket.amps)  # repr round-trip is exact

    def test_pairs_match_per_element_form(self):
        def per_element(a):
            return [per_element(x) for x in a] if a.ndim > 1 else [[float(z.real), float(z.imag)] for z in a]

        edges = np.array([[-0.0 + 5e-324j, 1e308 - 0.0j], [-5e-324 + 1e308j, complex(0.1, -0.0)]])
        assert json.dumps(_pairs(edges)) == json.dumps(per_element(edges))
        ket = SymmetricKet(2, np.array([1.0 - 0.0j, -0.0 + 5e-324j, complex(-0.0, -5e-324)]))
        assert json.dumps(state_to_json(ket)) == json.dumps({"n": 2, "amps": per_element(ket.amps)})

    def test_bad_documents(self):
        with pytest.raises(ConfigError):
            state_from_json({"amps": [[1, 0]]})
        with pytest.raises(ConfigError):
            state_from_json({"n": 1})


class TestMeasurementJson:
    def test_pvm_from_angles(self):
        pvm = measurement_from_json({"type": "pvm", "theta": 1.0, "phi": 0.5})
        assert isinstance(pvm, SingleQubitPVM)
        assert np.max(np.abs(pvm.kappa - pvm_from_bloch(1.0, 0.5).kappa)) < 1e-15

    def test_kraus_roundtrip(self):
        kraus = random_kraus_pair(np.random.default_rng(3))
        back = measurement_from_json(json.loads(json.dumps(measurement_to_json(kraus))))
        for a, b in zip(kraus, back):
            assert np.max(np.abs(a.matrix - b.matrix)) < 1e-15

    def test_unknown_type(self):
        with pytest.raises(ConfigError):
            measurement_from_json({"type": "teleport"})


class TestCsv:
    def test_float_cells_roundtrip(self):
        rows = [{"a": 0.1 + 0.2, "b": "x"}]
        text = rows_to_csv(rows, ["a", "b"])
        value = text.splitlines()[1].split(",")[0]
        assert float(value) == 0.1 + 0.2


class TestCliSplit:
    def test_worked_example_values(self, tmp_path, capsys):
        assert main(["split", "--n", "3", "--nu", "1", "--k", "1"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["rows"] == [
            {"mu": 0, "xi": math.sqrt(2 / 3)},
            {"mu": 1, "xi": math.sqrt(1 / 3)},
        ]
        assert doc["sum_squares_deviation"] <= 1e-12

    def test_vacuum_single_row(self, capsys):
        assert main(["split", "--n", "5", "--nu", "0", "--k", "2"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["rows"] == [{"mu": 0, "xi": 1.0}]

    def test_csv_format(self, capsys):
        assert main(["split", "--n", "3", "--nu", "1", "--k", "1", "--format", "csv"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "schema_version,mu,xi"
        assert len(lines) == 3

    def test_domain_error_exit_code(self, capsys):
        assert main(["split", "--n", "3", "--nu", "5", "--k", "1"]) == EXIT_DOMAIN

    def test_bad_flag_exit_code(self):
        assert main(["split", "--n", "3"]) == EXIT_CONFIG


class TestCliMeasure:
    def test_dicke_computational(self, capsys):
        assert main(["measure", "--state", "dicke:3,1", "--pvm", "computational"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        probs = {o["label"]: o["probability"] for o in doc["outcomes"]}
        assert probs[0] == pytest.approx(2 / 3, abs=1e-12)
        assert probs[1] == pytest.approx(1 / 3, abs=1e-12)

    def test_state_file_and_kraus_file(self, tmp_path, capsys):
        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps(state_to_json(to_density(basis_state(2, 1)))))
        kraus_path = tmp_path / "kraus.json"
        kraus_path.write_text(json.dumps(measurement_to_json(random_kraus_pair(np.random.default_rng(4)))))
        rc = main(["measure", "--state", f"file:{state_path}", "--pvm", f"file:{kraus_path}"])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert sum(o["probability"] for o in doc["outcomes"]) == pytest.approx(1.0, abs=1e-10)

    def test_unknown_state_spec(self, capsys):
        assert main(["measure", "--state", "ghz:3", "--pvm", "computational"]) == EXIT_CONFIG

    def test_lossy_trace_line_state_file(self, tmp_path, capsys):
        # a trace line's ket_with_losses reads back as the trial's final density
        config = {"input": {"type": "uniform"}, "n": 5, "phi": 0.4, "policy": {"type": "feedback", "delta": 0.6},
                  "schedule": ["measure", "lose", "measure"], "trials": 1, "seed": 12}
        traces = tmp_path / "traces.jsonl"
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert main(["simulate", "--config", str(tmp_path / "config.json"), "--trace-out", str(traces)]) == EXIT_OK
        capsys.readouterr()
        line_state = tmp_path / "line_state.json"
        line_state.write_text(json.dumps(json.loads(traces.read_text())["final_state"]))
        parsed = parse_config(config)
        trial = run_trial(parsed["input"], parsed["channel"], parsed["policy"], parsed["schedule"], 12)
        density = tmp_path / "density.json"
        density.write_text(json.dumps(state_to_json(trial.final_state)))
        outputs = []
        for path in (line_state, density):
            assert main(["measure", "--state", f"file:{path}", "--pvm", "hadamard"]) == EXIT_OK
            outputs.append(json.loads(capsys.readouterr().out)["outcomes"])
        assert outputs[0] == outputs[1]
        assert outputs[0][0]["post_state"]["n"] == 1

    def test_no_format_flag(self):
        assert main(["measure", "--state", "dicke:3,1", "--pvm", "computational", "--format", "json"]) == EXIT_CONFIG


class TestCliSimulate:
    def _write_config(self, tmp_path, **overrides):
        config = {
            "input": {"type": "dicke", "nu": 1},
            "n": 3,
            "phi": 1.1,
            "policy": {"type": "feedback", "delta": 0.8},
            "schedule": ["measure", "lose", "measure"],
            "trials": 6,
            "seed": 99,
        }
        config.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return path

    def test_deterministic_reports(self, tmp_path):
        path = self._write_config(tmp_path)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["simulate", "--config", str(path), "--out", str(out1)]) == EXIT_OK
        assert main(["simulate", "--config", str(path), "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_report(self, tmp_path, capsys):
        path = self._write_config(tmp_path)
        assert main(["simulate", "--config", str(path), "--seed", "1234"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["seed"] == 1234

    def test_unknown_field_rejected(self, tmp_path):
        path = self._write_config(tmp_path, phaser="stun")
        assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG

    def test_missing_file(self):
        assert main(["simulate", "--config", "/nonexistent/cfg.json"]) == EXIT_CONFIG

    def test_schedule_generator_form(self, tmp_path, capsys):
        path = self._write_config(
            tmp_path, schedule={"length": 3, "loss_rate": 0.5, "seed": 5}
        )
        assert main(["simulate", "--config", str(path)]) == EXIT_OK

    def test_trace_out_json_lines(self, tmp_path, capsys):
        path = self._write_config(tmp_path, trials=4)
        traces = tmp_path / "traces.jsonl"
        assert main(["simulate", "--config", str(path), "--trace-out", str(traces)]) == EXIT_OK
        lines = traces.read_text().splitlines()
        assert len(lines) == 4
        first = json.loads(lines[0])
        assert first["trial"] == 0
        assert first["seed"] == 99
        assert [e["kind"] for e in first["events"]] == ["measure", "lose", "measure"]
        assert all(
            0.0 < e["probability"] <= 1.0 for e in first["events"] if e["kind"] == "measure"
        )
        assert first["final_state"]["kind"] == "ket_with_losses"  # the ket before its one loss
        assert (first["final_state"]["n"], first["final_state"]["lost"]) == (1, 1)
        assert isinstance(state_from_json(first["final_state"]), SymmetricDensity)

    def test_workers_flag_same_output(self, tmp_path):
        path = self._write_config(tmp_path, trials=7)
        out1, out2 = tmp_path / "w1.json", tmp_path / "w2.json"
        assert main(["simulate", "--config", str(path), "--out", str(out1)]) == EXIT_OK
        assert main(["simulate", "--config", str(path), "--workers", "2", "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_loss_schedule_leaves_recorded_probabilities_unchanged(self, tmp_path):
        # same input state; losses interleaved vs the bare measurement subsequence
        lossless = self._write_config(tmp_path, n=4, schedule=["measure", "measure"], trials=5)
        t_clean = tmp_path / "clean.jsonl"
        assert main(["simulate", "--config", str(lossless), "--trace-out", str(t_clean)]) == EXIT_OK
        lossy_cfg = tmp_path / "lossy.json"
        doc = json.loads(lossless.read_text())
        doc["schedule"] = ["lose", "measure", "lose", "measure"]
        lossy_cfg.write_text(json.dumps(doc))
        t_lossy = tmp_path / "lossy.jsonl"
        assert main(["simulate", "--config", str(lossy_cfg), "--trace-out", str(t_lossy)]) == EXIT_OK
        for clean_line, lossy_line in zip(t_clean.read_text().splitlines(), t_lossy.read_text().splitlines()):
            clean = [e for e in json.loads(clean_line)["events"] if e["kind"] == "measure"]
            lossy = [e for e in json.loads(lossy_line)["events"] if e["kind"] == "measure"]
            assert [e["label"] for e in clean] == [e["label"] for e in lossy]
            for a, b in zip(clean, lossy):
                assert abs(a["probability"] - b["probability"]) < 1e-10


class TestNonFiniteInputs:
    """NaN and inf exit 3 with a one-line message when the object is built."""

    @pytest.mark.parametrize("pvm", ["bloch:nan,0", "bloch:inf,0"])
    def test_measure_bloch_angles(self, pvm, capsys):
        assert main(["measure", "--state", "dicke:3,1", "--pvm", pvm]) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and "finite" in captured.err

    @pytest.mark.parametrize("field", ["amps", "phi"])
    def test_simulate_config(self, field, tmp_path, capsys):
        config = {
            "input": {"type": "custom", "amps": [[1.0, 0.0], [0.5, 0.0], [0.0, 0.0]]},
            "n": 2,
            "phi": 0.4,
            "policy": {"type": "feedback", "delta": 0.8},
            "schedule": ["measure", "lose"],
            "trials": 2,
            "seed": 3,
        }
        if field == "amps":
            config["input"]["amps"][1] = [math.nan, 0.0]
        else:
            config["phi"] = math.nan
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))  # Python's json writes and reads NaN
        assert main(["simulate", "--config", str(path)]) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and "finite" in captured.err


class TestMalformedInputs:
    """Bad field types and flag values exit 2 with one line, never a traceback."""

    def _simulate(self, tmp_path, **overrides):
        config = {
            "input": {"type": "dicke", "nu": 1},
            "n": 3,
            "phi": 1.1,
            "policy": {"type": "feedback", "delta": 0.8},
            "schedule": ["measure", "lose", "measure"],
            "trials": 6,
            "seed": 99,
        }
        config.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return ["simulate", "--config", str(path)]

    def _assert_config_error(self, argv, capsys):
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1

    def test_n_not_an_integer(self, tmp_path, capsys):
        self._assert_config_error(self._simulate(tmp_path, n="abc"), capsys)

    def test_trials_not_an_integer(self, tmp_path, capsys):
        self._assert_config_error(self._simulate(tmp_path, trials="x"), capsys)

    def test_n_not_integral(self, tmp_path, capsys):
        self._assert_config_error(self._simulate(tmp_path, n=2.5), capsys)

    def test_trials_not_integral(self, tmp_path, capsys):
        self._assert_config_error(self._simulate(tmp_path, trials=3.9), capsys)

    def test_estimate_not_a_boolean(self, tmp_path, capsys):
        self._assert_config_error(self._simulate(tmp_path, estimate="no"), capsys)

    def test_custom_amps_not_pairs(self, tmp_path, capsys):
        argv = self._simulate(tmp_path, input={"type": "custom", "amps": [1, 2]})
        self._assert_config_error(argv, capsys)

    def test_round_robin_bases_not_objects(self, tmp_path, capsys):
        argv = self._simulate(tmp_path, policy={"type": "round_robin", "bases": [1]})
        self._assert_config_error(argv, capsys)

    @pytest.mark.parametrize("overrides", [
        {"policy": {"type": "fixed", "delta": 0.8}},
        {"input": {"type": "noon", "nu": 9}},
        {"schema_version": 99},
    ], ids=["fixed-policy-delta", "noon-input-nu", "schema-version-99"])
    def test_foreign_field_or_schema_version(self, overrides, tmp_path, capsys):
        self._assert_config_error(self._simulate(tmp_path, **overrides), capsys)

    def test_round_robin_basis_unknown_field(self, tmp_path, capsys):
        # "ph" is no basis field: refused, not run with phi = 0
        argv = self._simulate(tmp_path, policy={"type": "round_robin", "bases": [{"theta": 1.2, "ph": 0.3}]})
        self._assert_config_error(argv, capsys)

    def test_bench_zero_reps(self, capsys):
        self._assert_config_error(["bench", "--reps", "0"], capsys)

    def test_bench_size_not_an_integer(self, capsys):
        self._assert_config_error(["bench", "--sizes", "8,abc"], capsys)

    def test_dense_cap_not_an_integer(self, monkeypatch, capsys):
        monkeypatch.setenv("DICKE_SIM_DENSE_CAP", "abc")
        self._assert_config_error(["verify"], capsys)

    @pytest.mark.parametrize("flags", [["--max-n", "2", "--seeds", "0"], ["--max-n", "2", "--seeds", "-3"]])
    def test_verify_seeds_below_one(self, flags, capsys):
        self._assert_config_error(["verify", *flags], capsys)

    @pytest.mark.parametrize("max_n", ["0", "1"])
    def test_verify_max_n_below_two(self, max_n, capsys):
        self._assert_config_error(["verify", "--max-n", max_n], capsys)

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one(self, workers, tmp_path, capsys):
        self._assert_config_error(self._simulate(tmp_path) + ["--workers", workers], capsys)
        self._assert_config_error(["verify", "--max-n", "2", "--seeds", "1", "--workers", workers], capsys)

    def test_bench_seed_below_zero(self, capsys):
        self._assert_config_error(["bench", "--seed", "-1", "--sizes", "8", "--reps", "1"], capsys)


    @pytest.mark.parametrize("flag, doc", [
        ("--state", {"n": "abc", "amps": [[1, 0], [0, 0]]}),
        ("--state", {"n": 1.5, "amps": [[1, 0], [0, 0]]}),
        ("--state", {"n": 1, "amps": 5}),
        ("--state", {"n": 1, "alpha": [[[1, 0], [0, 0]], [[0, 0]]]}),
        ("--pvm", {"type": "pvm", "theta": "x"}),
        ("--pvm", {"type": "pvm_kappa"}),
        ("--pvm", {"type": "kraus", "matrices": 7}),
        ("--pvm", {"type": "pvm", "theta": 1.57, "phii": 1.0}),  # refused, not measured at phi = 0
        ("--state", {"n": 1, "amps": [[1, 0], [0, 0]], "alpha": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}),
        ("--state", {"n": 1, "kind": "density", "amps": [[1, 0], [0, 0]]}),
    ])
    def test_malformed_document(self, flag, doc, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        specs = {"--state": "dicke:3,1", "--pvm": "computational", flag: f"file:{path}"}
        self._assert_config_error(["measure", "--state", specs["--state"], "--pvm", specs["--pvm"]], capsys)

    @pytest.mark.parametrize("doc, message", [
        ({"kind": "ket_plus"}, "unknown state kind 'ket_plus'"),
        ({"kind": "ket_with_losses", "lost": 0.5}, "state 'lost' must be int, got 0.5"),
        ({"kind": "ket_with_losses", "lost": -1}, "state 'lost' must be >= 0, got -1"),
        ({"kind": "ket_with_losses", "lost": 3}, "state 'lost' must be at most n = 2, got 3"),
        ({"kind": "ket_with_losses"}, "state 'lost' must be int, got None"),
    ], ids=["unknown-kind", "lost-non-integral", "lost-negative", "lost-above-n", "lost-missing"])
    def test_malformed_ket_with_losses(self, doc, message, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"n": 2, "amps": [[0.6, 0], [0, 0.8], [0, 0]], **doc}))
        self._assert_config_error(["measure", "--state", f"file:{path}", "--pvm", "computational"], capsys)
        with pytest.raises(ConfigError) as excinfo:
            state_from_json(json.loads(path.read_text()))
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("content", [None, b"\xff\xfe{}", b"[" * 100_000], ids=["directory", "not-utf8", "deep"])
    @pytest.mark.parametrize("flag", ["--state", "--pvm", "--config"])
    def test_unreadable_file(self, flag, content, tmp_path, capsys):
        path = tmp_path
        if content is not None:
            path = tmp_path / "doc.json"
            path.write_bytes(content)
        argv = {
            "--state": ["measure", "--state", f"file:{path}", "--pvm", "computational"],
            "--pvm": ["measure", "--state", "dicke:3,1", "--pvm", f"file:{path}"],
            "--config": ["simulate", "--config", str(path)],
        }[flag]
        self._assert_config_error(argv, capsys)

    @pytest.mark.parametrize("overrides, extra", [
        ({"seed": -1}, []),
        ({"schedule": {"length": 3, "loss_rate": 0.5, "seed": -1}}, []),
        ({}, ["--seed", "-1"]),
        ({"schedule": {"length": -2, "loss_rate": 0.5, "seed": 5}}, []),
        ({"trials": True}, []),
    ])
    def test_config_field_out_of_range(self, overrides, extra, tmp_path, capsys):
        self._assert_config_error(self._simulate(tmp_path, **overrides) + extra, capsys)

    @pytest.mark.parametrize("flag", ["--out", "--trace-out"])
    def test_output_path_is_a_directory(self, flag, tmp_path, capsys):
        self._assert_config_error(self._simulate(tmp_path) + [flag, str(tmp_path)], capsys)

    @pytest.mark.parametrize("flag", ["--sizes=-3", "--sizes=0", "--dense-sizes=0"])
    def test_bench_size_below_one(self, flag, capsys):
        self._assert_config_error(["bench", flag, "--reps", "1"], capsys)

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1e-10"])
    def test_verify_tolerance_not_finite_or_negative(self, tolerance, capsys):
        self._assert_config_error(["verify", f"--tolerance={tolerance}"], capsys)


class TestUnphysicalInputs:
    """Well-typed but unphysical values exit 3 when the object is built."""

    def test_unnormalized_file_ket(self, tmp_path, capsys):
        path = tmp_path / "ket.json"
        path.write_text(json.dumps({"n": 1, "amps": [[1, 0], [1, 0]]}))
        assert main(["measure", "--state", f"file:{path}", "--pvm", "computational"]) == EXIT_DOMAIN
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_weight_above_n(self, capsys):
        assert main(["measure", "--state", "dicke:3,9", "--pvm", "computational"]) == EXIT_DOMAIN
        assert len(capsys.readouterr().err.splitlines()) == 1

    @pytest.mark.parametrize("policy, schedule", [
        ({"type": "feedback", "delta": "inf"}, ["lose", "lose"]),
        ({"type": "round_robin", "bases": [{"theta": "inf"}]}, []),
        ({"type": "fixed", "phi": "nan"}, ["measure"]),
    ])
    def test_non_finite_policy(self, tmp_path, capsys, policy, schedule):
        # refused when the policy is built, even if no measurement would read it
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"input": {"type": "dicke", "nu": 1}, "n": 3, "phi": 1.1, "policy": policy,
                                    "schedule": schedule, "trials": 2, "seed": 5}))
        assert main(["simulate", "--config", str(path)]) == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "must be finite" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_feedback_delta(self, tmp_path, capsys):
        # finite, but the accumulated detector phase overflows at the third measurement
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"input": {"type": "uniform"}, "n": 4, "phi": 0.3,
                                    "policy": {"type": "feedback", "delta": 1.7e308},
                                    "schedule": ["measure"] * 3, "trials": 20, "seed": 1}))
        assert main(["simulate", "--config", str(path)]) == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "feedback policy phase after 2 outcomes must be finite" in err

    @pytest.mark.parametrize("doc", [
        {"type": "pvm_kappa", "kappa": [[[1.3407807929942597e154, 0], [0, 0]], [[0, 0], [1, 0]]]},
        {"type": "kraus", "matrices": [[[[1.3407807929942597e154, 0], [0, 0]], [[0, 0], [0, 0]]],
                                       [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]]},
    ], ids=["pvm_kappa", "kraus"])
    def test_overflowing_measurement_file(self, doc, tmp_path, capsys):
        # the entry's square overflows the orthonormality or completeness product: refused, no warning
        path = tmp_path / "measurement.json"
        path.write_text(json.dumps(doc))
        assert main(["measure", "--state", "uniform:3", "--pvm", f"file:{path}"]) == EXIT_DOMAIN
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_overflowing_file_ket(self, tmp_path, capsys):
        # |amp|^2 overflows to inf, which the norm check refuses without a warning
        path = tmp_path / "ket.json"
        path.write_text(json.dumps({"n": 2, "amps": [[1.3407807929942597e154, 0], [0, 0.8], [0, 0]]}))
        assert main(["measure", "--state", f"file:{path}", "--pvm", "hadamard"]) == EXIT_DOMAIN
        assert len(capsys.readouterr().err.splitlines()) == 1


class TestCliVerify:
    def test_smoke_all_pass(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["verify", "--max-n", "2", "--seeds", "1", "--out", str(out)])
        assert rc == EXIT_OK
        report = json.loads(out.read_text())
        assert report["all_passed"] is True
        assert {p["name"] for p in report["properties"]} >= {
            "worked_example_split",
            "measurement_oracle_equivalence",
            "loss_independence",
        }

    def test_corrupted_xi_names_failing_property(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["verify", "--max-n", "3", "--seeds", "2", "--corrupt-xi", "--out", str(out)])
        assert rc == EXIT_VERIFY_FAILED
        report = json.loads(out.read_text())
        failing = [p["name"] for p in report["properties"] if not p["passed"]]
        assert failing == ["split_reconstruction"]

    def test_raising_property_fails_by_name(self, tmp_path, monkeypatch, capsys):
        import dicke_sim.oracle as oracle

        def unconjugated(matrix, n, position, kraus_mats):  # a broken channel kernel
            t = matrix.reshape(2 ** (n - position), 2, 2 ** (position - 1), 2 ** (n - position), 2,
                               2 ** (position - 1))
            return sum(np.einsum("ac,bd,lcrmds->larmbs", k, k, t) for k in kraus_mats).reshape(matrix.shape)

        monkeypatch.setattr(oracle, "_channel_at", unconjugated)
        out = tmp_path / "report.json"
        rc = main(["verify", "--max-n", "3", "--seeds", "2", "--out", str(out)])
        assert rc == EXIT_VERIFY_FAILED
        report = json.loads(out.read_text())
        assert len(report["properties"]) == 16
        by_name = {p["name"]: p for p in report["properties"]}
        raised = by_name["residual_symmetry_after_channels"]
        assert raised["passed"] is False and raised["cases"] == 0
        assert raised["note"].startswith("raised DomainError") and "trace" in raised["note"]
        assert by_name["worked_example_split"]["passed"] is True
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "residual_symmetry_after_channels" in err

    @staticmethod
    def _failed_entry(tmp_path, monkeypatch, builder) -> dict:
        """The first property's entry of a verify report, read as strict JSON."""
        import dicke_sim.verify as verify

        def refuse(token):
            raise ValueError(f"{token} is not a JSON token")

        monkeypatch.setitem(verify.PROPERTY_BUILDERS, "worked_example_split", builder)
        out = tmp_path / "report.json"
        assert main(["verify", "--max-n", "2", "--seeds", "1", "--out", str(out)]) == EXIT_VERIFY_FAILED
        return json.loads(out.read_text(), parse_constant=refuse)["properties"][0]

    def test_raising_property_writes_null_residual(self, tmp_path, monkeypatch):
        def raises(params):
            raise ConfigError("broken on purpose")

        entry = self._failed_entry(tmp_path, monkeypatch, raises)
        assert entry["worst_residual"] is None and entry["passed"] is False
        assert entry["note"] == "raised ConfigError: broken on purpose"

    def test_nan_residual_writes_null(self, tmp_path, monkeypatch):
        from dicke_sim.verify import PropertyResult

        def nan_residual(params):
            return PropertyResult("worked_example_split", 3, math.nan, 1e-15, math.nan <= 1e-15, "a NaN")

        entry = self._failed_entry(tmp_path, monkeypatch, nan_residual)
        assert entry == {"name": "worked_example_split", "cases": 3, "worst_residual": None,
                         "tolerance": 1e-15, "passed": False, "note": "a NaN"}

    def test_resource_limit_exit_code(self, capsys):
        assert main(["verify", "--max-n", "99", "--seeds", "1"]) == EXIT_RESOURCE

    def test_env_cap_override(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DICKE_SIM_DENSE_CAP", "3")
        assert main(["verify", "--max-n", "4", "--seeds", "1"]) == EXIT_RESOURCE

    def test_parallel_workers(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["verify", "--max-n", "2", "--seeds", "1", "--workers", "2", "--out", str(out)])
        assert rc == EXIT_OK
        assert json.loads(out.read_text())["all_passed"] is True

    # (name, cases) of every property, in suite order, at SuiteParams() and at perfbench's smoke parameters.
    # Case counts are integers that do not depend on the BLAS build.
    PINNED_CASES = {
        (): [("worked_example_split", 4), ("xi_completeness_and_support", 10420), ("split_reconstruction", 58),
             ("basis_characterization", 60), ("residual_symmetry_after_channels", 80),
             ("measurement_oracle_equivalence", 32), ("loss_independence", 125), ("pure_state_sufficiency", 20),
             ("ordering_independence", 20), ("trace_povm_commutation", 40), ("loss_mechanism_irrelevance", 20),
             ("permutation_group_law", 60), ("pvm_update_specialization", 60),
             ("estimator_replay_equivalence", 680), ("batched_trial_equivalence", 80), ("born_rule_sampling", 10)],
        ("--max-n", "3", "--seeds", "2"): [
            ("worked_example_split", 4), ("xi_completeness_and_support", 10420), ("split_reconstruction", 6),
            ("basis_characterization", 6), ("residual_symmetry_after_channels", 8),
            ("measurement_oracle_equivalence", 6), ("loss_independence", 8), ("pure_state_sufficiency", 2),
            ("ordering_independence", 2), ("trace_povm_commutation", 4), ("loss_mechanism_irrelevance", 2),
            ("permutation_group_law", 6), ("pvm_update_specialization", 6), ("estimator_replay_equivalence", 68),
            ("batched_trial_equivalence", 8), ("born_rule_sampling", 1)],
    }

    @pytest.mark.parametrize("flags", list(PINNED_CASES), ids=["defaults", "smoke"])
    def test_case_counts_pinned(self, tmp_path, flags):
        out = tmp_path / "report.json"
        assert main(["verify", *flags, "--out", str(out)]) == EXIT_OK
        properties = json.loads(out.read_text())["properties"]
        assert [(p["name"], p["cases"]) for p in properties] == self.PINNED_CASES[flags]
        assert all(p["passed"] is True for p in properties)

    def test_flag_defaults_are_suite_params(self):
        args = vars(build_parser().parse_args(["verify"]))
        assert {key: args[key] for key in asdict(SuiteParams())} == asdict(SuiteParams())


class TestPoolSize:
    """A pool gets no more processes than tasks or CPUs, whatever --workers asks for.

    Where that leaves one process, no pool starts: builtin map gives the same
    bytes.  The pool is replaced by one that records its size and maps in
    this process: a fork start method would launch every process asked for.
    """

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        import concurrent.futures

        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        return sizes

    @pytest.mark.parametrize("cpus, processes", [(64, 3), (2, 2), (None, 1)])
    def test_simulate(self, tmp_path, monkeypatch, pool_sizes, cpus, processes):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        path = TestCliSimulate()._write_config(tmp_path, trials=3)
        outputs = {}
        for workers in ("1", "4096"):
            report, traces = tmp_path / f"{workers}.json", tmp_path / f"{workers}.jsonl"
            assert main(["simulate", "--config", str(path), "--workers", workers, "--out", str(report),
                         "--trace-out", str(traces)]) == EXIT_OK
            outputs[workers] = report.read_bytes(), traces.read_bytes()
        assert pool_sizes == ([processes] if processes > 1 else [])
        assert outputs["4096"] == outputs["1"]

    def test_one_block_starts_no_pool(self, tmp_path, monkeypatch, pool_sizes):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        path = TestCliSimulate()._write_config(tmp_path, trials=1)
        reports = []
        for workers in ("1", "2"):
            out = tmp_path / f"{workers}.json"
            assert main(["simulate", "--config", str(path), "--workers", workers, "--out", str(out)]) == EXIT_OK
            reports.append(out.read_bytes())
        assert pool_sizes == []
        assert reports[1] == reports[0]

    @pytest.mark.parametrize("cpus, processes", [(64, 16), (2, 2)])
    def test_verify(self, tmp_path, monkeypatch, pool_sizes, cpus, processes):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        reports = []
        for workers in ("1", "4096"):
            out = tmp_path / f"{workers}.json"
            assert main(["verify", "--max-n", "2", "--seeds", "1", "--workers", workers,
                         "--out", str(out)]) == EXIT_OK
            reports.append(out.read_bytes())
        assert pool_sizes == [processes]
        assert reports[1] == reports[0]


class TestSizeLimit:
    """A compact state above MAX_STATE_ENTRIES exits 5 before it is allocated."""

    def _assert_resource_limit(self, argv, capsys):
        assert main(argv) == EXIT_RESOURCE
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_measure_huge_dicke_state(self, capsys):
        self._assert_resource_limit(["measure", "--state", "dicke:1000000000,1", "--pvm", "computational"], capsys)

    def test_split_huge_table(self, capsys):
        self._assert_resource_limit(["split", "--n", "100000000", "--nu", "50000000", "--k", "50000000"], capsys)

    def test_bench_huge_size(self, capsys):
        self._assert_resource_limit(["bench", "--sizes", "8,16777216", "--reps", "1"], capsys)

    def test_simulate_huge_final_density(self, tmp_path, capsys):
        # an ensemble builds no final density: its 19998-qubit density would have 19999**2 entries,
        # but the trial holds 20001 amplitudes and its trace line the 20000 of the pre-loss ket
        config = {
            "input": {"type": "uniform"},
            "n": 20000,
            "phi": 0.3,
            "policy": {"type": "fixed"},
            "schedule": ["measure", "lose"],
            "trials": 1,
            "seed": 1,
        }
        path, traces = tmp_path / "config.json", tmp_path / "traces.jsonl"
        path.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "report.json"),
                     "--trace-out", str(traces)]) == EXIT_OK
        (line,) = traces.read_text().splitlines()
        final = json.loads(line)["final_state"]
        assert (final["kind"], final["n"], final["lost"], len(final["amps"])) == ("ket_with_losses", 19999, 1, 20000)

    def test_simulate_estimator_over_the_cap(self, tmp_path, capsys):
        # a feedback policy estimates by default: the split table of m measured qubits would hold
        # (m + 1) (n + 1) = 1025 * 16384 > 2**24 entries
        config = {"input": {"type": "uniform"}, "n": 16383, "phi": 0.3, "policy": {"type": "feedback", "delta": 0.5},
                  "schedule": ["measure"] * 1024, "trials": 1, "seed": 1}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        self._assert_resource_limit(["simulate", "--config", str(path)], capsys)
        assert parse_config({**config, "schedule": ["measure"] * 1023})["estimate"] is True  # 1024 * 16384 = 2**24 fits
        assert parse_config({**config, "estimate": False})["estimate"] is False

    @pytest.mark.parametrize("measurements", [1, 100])
    def test_simulate_estimator_grid_over_the_cap(self, tmp_path, capsys, measurements):
        # at n = 16384 the grid fallback's 1024 kets would hold 1024 * 16385 > 2**24 entries; 100
        # measurements fall below the floor, where the fallback runs, and the check comes before any trace
        config = {"input": {"type": "uniform"}, "n": 16384, "phi": 0.3, "policy": {"type": "feedback", "delta": 0.5},
                  "schedule": ["measure"] * measurements, "trials": 1, "seed": 1}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        self._assert_resource_limit(["simulate", "--config", str(path)], capsys)
        assert parse_config({**config, "estimate": False})["estimate"] is False

    def test_ket_with_losses_density_over_the_cap(self, tmp_path, capsys):
        path = tmp_path / "state.json"  # the 4999-qubit density after one loss has 25e6 entries
        path.write_text(json.dumps({"kind": "ket_with_losses", "lost": 1, "n": 5000,
                                    "amps": [[1.0, 0.0]] + [[0.0, 0.0]] * 5000}))
        self._assert_resource_limit(["measure", "--state", f"file:{path}", "--pvm", "computational"], capsys)

    def test_large_ket_below_the_cap(self, tmp_path):
        out = tmp_path / "measure.json"
        assert main(["measure", "--state", "uniform:200000", "--pvm", "computational", "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["outcomes"][0]["post_state"]["n"] == 199_999


class TestCliBench:
    def test_csv_schema(self, tmp_path):
        out = tmp_path / "bench.csv"
        rc = main([
            "bench", "--sizes", "32,64", "--reps", "2", "--dense-sizes", "5",
            "--out", str(out),
        ])
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].split(",") == [
            "schema_version", "n", "representation", "wall_time_s",
            "repetitions", "state_complex_entries", "state_bytes",
        ]
        rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
        compact = [r for r in rows if r["representation"] == "compact"]
        dense = [r for r in rows if r["representation"] == "dense"]
        assert [int(r["state_complex_entries"]) for r in compact] == [33, 65]
        assert int(dense[0]["state_complex_entries"]) == 4**5

    def test_json_format(self, capsys):
        rc = main(["bench", "--sizes", "16", "--reps", "1", "--format", "json"])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["rows"][0]["n"] == 16

    def test_dense_above_cap(self, capsys):
        assert main(["bench", "--sizes", "16", "--reps", "1", "--dense-sizes", "13"]) == EXIT_RESOURCE

    def test_compact_beats_dense_by_100x(self):
        from dicke_sim.cli import bench_compact, bench_dense

        compact = bench_compact(10, repetitions=1, seed=3)
        dense = bench_dense(10, repetitions=1, seed=3)
        assert dense["wall_time_s"] >= 100 * compact["wall_time_s"]
        assert dense["state_complex_entries"] == 4**10
        assert compact["state_complex_entries"] == 11


class TestDumpsJson:
    def test_sorted_and_newline_terminated(self):
        text = dumps_json({"b": 1, "a": [1.5, True]})
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')

    def test_numpy_scalars(self):
        text = dumps_json({"x": np.float64(0.25), "y": np.int64(3), "z": np.bool_(True)})
        assert json.loads(text) == {"x": 0.25, "y": 3, "z": True}

    def test_edge_values_and_unicode(self):
        doc = {"z\u00e9\u2603\U0001f600\n\"": [[-0.0, 5e-324], [1e308, math.nan], [math.inf, -math.inf]],
               "empty": [[], {}, (), ""], "ragged": [[1.0], [[2.0]], [3.0, 4]], "np": np.eye(2)}
        assert dumps_json(doc) == json.dumps(doc, sort_keys=True, indent=2, default=_jsonable) + "\n"


class TestFloatTexts:
    def test_signs_shapes_and_repeats(self):
        values = np.array([[-0.0, 0.0, 5e-324], [-5e-324, 0.1, -0.1], [1e16, -1e16, 0.1]])
        assert float_texts(values).tolist() == [[json.dumps(x) for x in row] for row in values.tolist()]
        assert float_texts(np.zeros((2, 0))).shape == (2, 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_raises(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            float_texts([0.5, bad])

    @pytest.mark.parametrize("shape", [(1,), (2,), (65,)])  # the trace lines' kets, N + 1 amplitudes
    def test_pairs_template_fills_to_json_text(self, shape):
        arr = np.arange(1, 1 + math.prod(shape)).reshape(shape) * (0.5 - 0.25j)
        texts = float_texts(arr.view(float))
        assert _pairs_template(*shape) % tuple(texts.ravel().tolist()) == json.dumps(_pairs(arr))
