"""Wire formats and command-line behaviour, including exit codes."""

import json
import math

import numpy as np
import pytest

from dicke_sim.cli import main
from dicke_sim.errors import (
    EXIT_CONFIG,
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_VERIFY_FAILED,
    ConfigError,
)
from dicke_sim.measure import SingleQubitPVM, pvm_from_bloch
from dicke_sim.serialize import (
    dumps_json,
    measurement_from_json,
    measurement_to_json,
    rows_to_csv,
    state_from_json,
    state_to_json,
)
from dicke_sim.states import basis_state, make_ket, to_density
from dicke_sim.verify import random_kraus_pair, random_symmetric_density


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
        assert first["final_state"]["kind"] == "density"

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
