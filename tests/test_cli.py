import json
import math
import os

import numpy as np
import pytest

from landscape.cli import (
    load_dataset_csv,
    main,
    read_run_record,
    write_dataset_csv,
    write_json_atomic,
)
from landscape.errors import DatasetFormatError, LabelDomainError
from landscape.network import Dataset
from landscape.train import gen_gaussian_dataset


def run_cli(*argv):
    return main(list(argv))


def outputs_of(path):
    with open(path) as handle:
        return json.load(handle)["outputs"]


class TestDatasetCsv:
    def test_round_trip(self, tmp_path):
        data = Dataset(X=[[1.5, -2.0], [0.25, 3.0]], y=[1.0, 0.0])
        path = tmp_path / "data.csv"
        write_dataset_csv(path, data)
        loaded = load_dataset_csv(path)
        np.testing.assert_array_equal(loaded.X, data.X)
        np.testing.assert_array_equal(loaded.y, data.y)

    def test_two_sample_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("d0=2,N=2\n1.0,2.0,1\n-0.5,0.25,0\n")
        data = load_dataset_csv(path)
        assert data.d0 == 2 and data.n_samples == 2

    def test_label_domain_error_names_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("d0=1,N=2\n1.0,1\n2.0,2\n")
        with pytest.raises(LabelDomainError, match="line 3"):
            load_dataset_csv(path)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("d0=2,N=2\n1.0,2.0,1\n1.0,0\n")
        with pytest.raises(DatasetFormatError, match="line 3"):
            load_dataset_csv(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
    def test_non_finite_field_names_line(self, tmp_path, bad):
        path = tmp_path / "data.csv"
        path.write_text(f"d0=2,N=2\n1.0,2.0,1\n{bad},0.5,0\n")
        with pytest.raises(DatasetFormatError, match="line 3: non-finite"):
            load_dataset_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("dims=2\n")
        with pytest.raises(DatasetFormatError, match="line 1"):
            load_dataset_csv(path)


class TestConstructCommand:
    def test_synthetic_reports_zero_error(self, tmp_path, capsys):
        out = tmp_path / "construct.json"
        rc = run_cli("construct", "--d0", "20", "--n", "200", "--data-seed", "7",
                     "--seed", "7", "--out", str(out))
        assert rc == 0
        outputs = outputs_of(out)
        assert outputs["mse"] <= 1e-18
        assert outputs["mce"] == 0.0
        assert outputs["min_neural_input"] > 0.0
        data = gen_gaussian_dataset(20, 200, seed=7)
        s_plus = int(np.sum(data.y))
        assert outputs["d1_star"] == 4 * math.ceil(s_plus / 19)
        assert outputs["d1_star"] <= 4 * math.ceil(200 / 38)
        assert 0.0 < outputs["margin"]["sin_alpha"] <= 1.0

    def test_all_negative_labels_succeed(self, tmp_path):
        data = Dataset(X=np.random.default_rng(0).standard_normal((3, 4)), y=np.zeros(4))
        csv_path = tmp_path / "zeros.csv"
        write_dataset_csv(csv_path, data)
        out = tmp_path / "out.json"
        rc = run_cli("construct", "--data", str(csv_path), "--out", str(out))
        assert rc == 0
        outputs = outputs_of(out)
        assert outputs["d1_star"] == 0 and outputs["blocks"] == 0
        assert outputs["mse"] == 0.0

    def test_malformed_csv_exits_one_without_artifact(self, tmp_path, capsys):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text("d0=2,N=2\n1.0,2.0,1\nnot,numeric,values\n")
        out = tmp_path / "never.json"
        rc = run_cli("construct", "--data", str(csv_path), "--out", str(out))
        assert rc == 1
        assert not out.exists()
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_csv_exits_one_naming_line(self, tmp_path, capsys, bad):
        csv_path = tmp_path / f"{bad}.csv"
        csv_path.write_text(f"d0=2,N=3\n1.0,2.0,1\n-0.5,0.25,0\n0.5,{bad},1\n")
        out = tmp_path / "never.json"
        rc = run_cli("construct", "--data", str(csv_path), "--out", str(out))
        assert rc == 1
        assert not out.exists()
        assert "line 4: non-finite" in capsys.readouterr().err

    def test_missing_size_flags(self, capsys):
        assert run_cli("construct") == 1

    def test_data_and_synthetic_flags_exclusive(self, tmp_path, capsys):
        rc = run_cli("construct", "--data", str(tmp_path / "x.csv"), "--d0", "3")
        assert rc == 1
        assert "mutually exclusive" in capsys.readouterr().err

    def test_degenerate_data_exits_two(self, tmp_path, capsys):
        data = Dataset(X=np.array([[1.0, 2.0], [1.0, 2.0]]), y=np.array([1.0, 0.0]))
        csv_path = tmp_path / "degenerate.csv"
        write_dataset_csv(csv_path, data)
        out = tmp_path / "never.json"
        rc = run_cli("construct", "--data", str(csv_path), "--out", str(out))
        assert rc == 2
        assert not out.exists()


class TestTrainCommands:
    def _write_config(self, tmp_path, payload, name="config.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return path

    def test_train_writes_history_and_record(self, tmp_path):
        config = self._write_config(tmp_path, {
            "dataset": {"d0": 5, "n": 12, "seed": 3},
            "d1": 5, "epochs": 4, "lr": 0.01, "seed": 9, "stop_on_zero_mce": False,
        })
        out = tmp_path / "run"
        rc = run_cli("train", "--config", str(config), "--out", str(out))
        assert rc == 0
        outputs = outputs_of(f"{out}.json")
        assert outputs["epochs_run"] == 4
        lines = open(f"{out}.csv").read().splitlines()
        assert lines[0] == "epoch,mse,mce"
        assert len(lines) == 5

    def test_unknown_key_names_it(self, tmp_path, capsys):
        config = self._write_config(tmp_path, {
            "dataset": {"d0": 3, "n": 6}, "learning_rate": 0.1,
        })
        rc = run_cli("train", "--config", str(config), "--out", str(tmp_path / "x"))
        assert rc == 1
        assert "learning_rate" in capsys.readouterr().err

    def test_config_error_leaves_no_artifacts(self, tmp_path):
        config = self._write_config(tmp_path, {"dataset": {"d0": 3, "n": 6}, "bogus": 1})
        out = tmp_path / "ghost"
        assert run_cli("train", "--config", str(config), "--out", str(out)) == 1
        assert not os.path.exists(f"{out}.json") and not os.path.exists(f"{out}.csv")

    def test_scan_row_count(self, tmp_path):
        config = self._write_config(tmp_path, {
            "d_values": [4, 6], "n_factors": [0.5, 2.0], "seeds": 2,
            "epochs": 3, "lr": 0.01, "seed": 5,
        })
        out = tmp_path / "scan"
        rc = run_cli("scan", "--config", str(config), "--out", str(out))
        assert rc == 0
        lines = open(f"{out}.csv").read().splitlines()
        assert lines[0] == "d,N,params_over_N,mce_mean,mce_std"
        assert len(lines) == 5

    def test_diagnostic_rows(self, tmp_path):
        config = self._write_config(tmp_path, {
            "d": 5, "seeds": 2, "epochs": 6, "lr_decay_epochs": 3, "lr": 0.01, "seed": 4,
        })
        out = tmp_path / "diag"
        rc = run_cli("diagnostic", "--config", str(config), "--out", str(out))
        assert rc == 0
        lines = open(f"{out}.csv").read().splitlines()
        assert lines[0] == "seed_index,min_neural_input,final_mse"
        assert len(lines) == 3


class TestVolumeCommands:
    def test_orthant_estimate_and_bound(self, tmp_path):
        out = tmp_path / "orthant.json"
        rc = run_cli("volume", "orthant", "--n", "1", "--m", "1", "--l", "1",
                     "--trials", "20000", "--seed", "1", "--out", str(out))
        assert rc == 0
        outputs = outputs_of(out)
        assert abs(outputs["estimate"]["estimate"] - 0.5) <= 3 * math.sqrt(0.25 / 20000)
        assert outputs["bound"] is None  # alpha = 1 sits outside the bound regime

    def test_orthant_bound_present_when_alpha_above_one(self, tmp_path):
        out = tmp_path / "orthant2.json"
        rc = run_cli("volume", "orthant", "--n", "4", "--m", "2", "--l", "3",
                     "--trials", "500", "--seed", "2", "--out", str(out))
        assert rc == 0
        assert outputs_of(out)["bound"]["log"] < 0

    def test_angular_and_global_and_margin(self, tmp_path):
        for argv in (
            ("volume", "angular", "--d0", "2", "--d1", "1", "--n", "2",
             "--pattern-seed", "3", "--trials", "2000", "--seed", "4"),
            ("volume", "global", "--d0", "3", "--d1star", "1", "--n", "2",
             "--pattern-seed", "5", "--trials", "2000", "--seed", "6"),
            ("volume", "margin", "--d0", "3", "--d1star", "1", "--n", "2",
             "--sin-alpha", "0.1", "--pattern-seed", "7", "--trials", "2000", "--seed", "8"),
            ("volume", "coherence", "--m", "50", "--n", "4", "--eps", "0.5",
             "--trials", "500", "--seed", "9"),
        ):
            assert run_cli(*argv) == 0

    def test_worker_count_does_not_change_outputs(self, tmp_path):
        paths = []
        for w in ("1", "2", "8"):
            out = tmp_path / f"w{w}.json"
            rc = run_cli("volume", "orthant", "--n", "2", "--m", "1", "--l", "1",
                         "--trials", "9999", "--seed", "11", "--workers", w,
                         "--out", str(out))
            assert rc == 0
            paths.append(out)
        results = [json.dumps(outputs_of(p), sort_keys=True) for p in paths]
        assert results[0] == results[1] == results[2]


class TestExitCodes:
    def test_linalg_error_exits_two(self, monkeypatch, capsys):
        from landscape import cli

        def fail(args):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(cli, "cmd_bounds", fail)
        assert run_cli("bounds", "theta-star") == 2
        assert "SVD did not converge" in capsys.readouterr().err

    @pytest.mark.parametrize("command, config", [
        ("train", {"dataset": {"d0": 2, "n": 4}, "epochs": 1}),
        ("scan", {"d_values": [4], "n_factors": [0.5], "seeds": 1, "epochs": 1}),
        ("diagnostic", {"d": 4, "seeds": 1, "epochs": 2, "lr_decay_epochs": 1}),
    ])
    def test_training_commands_take_no_workers_flag(self, tmp_path, capsys, command, config):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "t"
        assert run_cli(command, "--config", str(path), "--out", str(out)) == 0
        rc = run_cli(command, "--config", str(path), "--out", str(out) + "w", "--workers", "64")
        assert rc == 1
        assert not (tmp_path / "tw.json").exists()
        assert "--workers" in capsys.readouterr().err


class TestBoundsCommands:
    def test_delta_value(self, capsys):
        rc = run_cli("bounds", "delta", "--d0", "100", "--n", "10000")
        assert rc == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["delta"] == pytest.approx(0.16386884421315177, rel=1e-12)

    def test_theta_star_reports_true_maximizer(self, capsys):
        rc = run_cli("bounds", "theta-star")
        assert rc == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["theta"] == pytest.approx(21.568877476870362, abs=1e-4)
        assert printed["objective"] == pytest.approx(0.6482507605041875, abs=1e-10)

    def test_orthant_domain_error_exits_one(self, capsys):
        rc = run_cli("bounds", "orthant", "--n", "10", "--m", "2", "--l", "5")
        assert rc == 1
        assert "exceed 1" in capsys.readouterr().err

    def test_beta_requires_matching_argument(self, capsys):
        assert run_cli("bounds", "beta", "--d0", "3", "--which", "lower") == 1

    def test_gamma_eps(self, capsys):
        rc = run_cli("bounds", "gamma-eps", "--epsilon", "0.1", "--rho", "0.0")
        assert rc == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["gamma_epsilon"] == pytest.approx(0.040900426430895224, rel=1e-12)

    def test_dichotomy(self, capsys):
        rc = run_cli("bounds", "dichotomy", "--n", "3", "--d0", "2")
        assert rc == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["schlafli"] == 6 and printed["loose"] == 18.0


class TestRankOracleCommand:
    def test_small_instance(self, tmp_path):
        out = tmp_path / "oracle.json"
        rc = run_cli("rank-oracle", "--d0", "2", "--d1", "2", "--n", "2",
                     "--rho", "0.5", "--seed", "3", "--out", str(out))
        assert rc == 0
        outputs = outputs_of(out)
        assert outputs["holds"] == outputs["full_column_rank"]

    def test_cap_exits_one(self):
        assert run_cli("rank-oracle", "--d0", "2", "--d1", "1", "--n", "23") == 1


class TestReproducibility:
    def test_construct_rerun_bit_identical(self, tmp_path):
        args = ("construct", "--d0", "6", "--n", "30", "--data-seed", "2",
                "--seed", "2")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        assert json.dumps(outputs_of(a), sort_keys=True) == json.dumps(outputs_of(b), sort_keys=True)

    def test_scan_rerun_bit_identical(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "d_values": [4], "n_factors": [1.0], "seeds": 2, "epochs": 3,
            "lr": 0.01, "seed": 13,
        }))
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("scan", "--config", str(config), "--out", str(out)) == 0
        assert open(f"{a}.csv").read() == open(f"{b}.csv").read()
        assert json.dumps(outputs_of(f"{a}.json"), sort_keys=True) == \
            json.dumps(outputs_of(f"{b}.json"), sort_keys=True)

    def test_run_record_round_trip(self, tmp_path):
        out = tmp_path / "record.json"
        assert run_cli("bounds", "delta", "--d0", "10", "--n", "100",
                       "--out", str(out)) == 0
        record = read_run_record(out)
        rewritten = tmp_path / "rewritten.json"
        write_json_atomic(rewritten, {
            "command": record.command, "config": record.config, "seed": record.seed,
            "started": record.started, "finished": record.finished,
            "outputs": record.outputs,
        })
        assert json.load(open(out)) == json.load(open(rewritten))
