import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np
import pytest

from landscape import errors
from landscape.cli import RunRecord, load_dataset_csv, main
from landscape.errors import DatasetFormatError
from landscape.network import Dataset
from landscape.train import gen_gaussian_dataset


def write_dataset_csv(path, data):
    """Write data in the dataset format that load_dataset_csv reads, floats as repr."""
    lines = [f"d0={data.d0},N={data.n_samples}"]
    for x, label in zip(data.X.T, data.y):
        lines.append(",".join([repr(float(v)) for v in x] + [str(int(label))]))
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


# Outputs objects recorded with the if/elif dispatcher these handlers replaced;
# the volume entries are recorded under the per-block Monte Carlo streams.
PINNED_KIND_OUTPUTS = [
    ("volume angular --d0 3 --d1 2 --n 4 --pattern-seed 3 --trials 3000 --seed 4",
     {"bound": None,
      "estimate": {"ci_high": 0.02190440564666782,
                   "ci_low": 0.012665148121147283,
                   "estimate": 0.016666666666666666,
                   "hits": 50,
                   "seed": 4,
                   "trials": 3000}}),
    ("volume global --d0 3 --d1star 2 --d1 3 --n 4 --pattern-seed 5 --trials 3000 --seed 6 "
     "--workers 2",
     {"bound": {"asymptotic_log": -14.644368640303018,
                "lower_exact": 1.4386694263972264e-05,
                "lower_log": -11.149206787988572,
                "sin_alpha": 0.08709741215865166},
      "estimate": {"ci_high": 0.0038958152886360608,
                   "ci_low": 0.0007121039409388158,
                   "estimate": 0.0016666666666666668,
                   "hits": 5,
                   "seed": 6,
                   "trials": 3000}}),
    ("volume orthant --n 4 --m 2 --l 3 --trials 2000 --seed 2",
     {"alpha": 1.5,
      "bound": {"log": -1.7706910715205144},
      "estimate": {"ci_high": 0.007873464296037741,
                   "ci_low": 0.0020282466069651696,
                   "estimate": 0.004,
                   "hits": 8,
                   "seed": 2,
                   "trials": 2000}}),
    ("volume coherence --m 50 --n 4 --eps 0.5 --trials 500 --seed 9",
     {"bound": {"tail": 1.0},
      "estimate": {"ci_high": 0.011240706705146758,
                   "ci_low": 0.00035313639455927456,
                   "estimate": 0.002,
                   "hits": 1,
                   "seed": 9,
                   "trials": 500}}),
    ("volume margin --d0 3 --d1star 1 --n 2 --sin-alpha 0.1 --pattern-seed 7 --trials 2000 "
     "--seed 8",
     {"bound": {"lower": 0.8},
      "estimate": {"ci_high": 0.82129018987769,
                   "ci_low": 0.786542328328027,
                   "estimate": 0.8045,
                   "hits": 1609,
                   "seed": 8,
                   "trials": 2000}}),
    ("bounds theta-star",
     {"objective": 0.6482507605041872,
      "psi": 0.11169386441686743,
      "theta": 21.568877401493197}),
    ("bounds gamma-eps --epsilon 0.1 --rho 0.2 --lim-ratio 0.3",
     {"gamma_epsilon": 0.09323281068168537}),
    ("bounds suboptimal --n 1000 --d0 10 --d1 20 --epsilon 0.1 --rho 0.0",
     {"log": -27.351763645062587, "value": 1.3221477145668885e-12}),
    ("bounds ratio --n 1000 --d0 10 --d1 20 --epsilon 0.1 --rho 0.3 --lim-ratio 0.05",
     {"log": -27.351763645062587, "nlogn_companion": -282.53013659063697}),
    ("bounds global-lower --d0 5 --d1star 3 --sin-alpha 0.2",
     {"asymptotic_log": -24.141568686511505,
      "exact": 2.159999999999999e-10,
      "log": -22.255742708244384}),
    ("bounds delta --d0 100 --n 10000",
     {"delta": 0.16386884421315176}),
    ("bounds dichotomy --n 30 --d0 4",
     {"loose": 1620000.0, "schlafli": 8180}),
    ("bounds coherence-tail --m 2000 --n 5 --eps 0.3",
     {"tail": 0.027654218507391675}),
    ("bounds orthant --n 4 --m 2 --l 3",
     {"log": -1.7706910715205144}),
    ("bounds beta --d0 3 --which lower --angle 0.5",
     {"bound": 0.11492442353296504}),
    ("bounds beta --d0 3 --which upper --u 0.2",
     {"bound": 0.19999999999999987}),
]


BIG = "9" * 401      # a count too large for a float


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
        with pytest.raises(DatasetFormatError, match="line 3"):
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

    @pytest.mark.parametrize("header", ["d0=-1,N=0", "d0=2,N=-1"])
    def test_negative_count_in_header_names_line_1(self, tmp_path, header):
        path = tmp_path / "data.csv"
        path.write_text(header + "\n")
        with pytest.raises(DatasetFormatError, match="line 1: d0 and N must be non-negative"):
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

    def test_d0_below_two_exits_one_naming_d0(self, tmp_path, capsys):
        out = tmp_path / "never.json"
        assert run_cli("construct", "--d0", "1", "--n", "5", "--out", str(out)) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "d0" in err, err

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
        from landscape import bounds

        def fail():
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(bounds, "find_theta_star", fail)
        assert run_cli("bounds", "theta-star") == 2
        assert "SVD did not converge" in capsys.readouterr().err

    @pytest.mark.parametrize("cls", [
        c for c in vars(errors).values()
        if isinstance(c, type) and issubclass(c, errors.LandscapeError)
    ])
    def test_every_package_error_has_one_exit_code(self, monkeypatch, capsys, cls):
        from landscape import bounds

        def fail():
            raise cls(0) if cls is errors.NonFinite else cls("planted")

        monkeypatch.setattr(bounds, "find_theta_star", fail)
        expected = 2 if issubclass(cls, errors.NumericalError) else 1
        assert run_cli("bounds", "theta-star") == expected
        assert capsys.readouterr().err.startswith("error: ")
        if cls is not errors.LandscapeError:
            assert issubclass(cls, (errors.DomainError, errors.NumericalError))

    @pytest.mark.parametrize("argv", [
        pytest.param("volume orthant --n 0 --m 1 --l 1 --trials 10 --seed 1",
                     id="volume-orthant-n0"),
        pytest.param("bounds orthant --n 0 --m 1 --l 1", id="bounds-orthant-n0"),
        pytest.param("bounds ratio --n 10 --d0 2 --d1 2 --epsilon 0.1 --rho 0.3 --lim-ratio nan",
                     id="ratio-lim-ratio-nan"),
        pytest.param("rank-oracle --d0 2 --d1 2 --n 3 --rho 1", id="rank-oracle-rho-one"),
        pytest.param("construct --d0 5 --n 20 --rho inf", id="construct-rho-inf"),
        pytest.param("rank-oracle --d0 3 --d1 2 --n 5 --rho nan", id="rank-oracle-rho-nan"),
        pytest.param("rank-oracle --d0 3 --d1 2 --n 5 --rho inf", id="rank-oracle-rho-inf"),
        pytest.param("bounds gamma-eps --epsilon 0.1 --rho nan", id="gamma-eps-rho-nan"),
        pytest.param("bounds suboptimal --n 10 --d0 3 --d1 3 --epsilon 0.1 --rho inf",
                     id="suboptimal-rho-inf"),
        pytest.param("rank-oracle --d0 0 --d1 2 --n 5", id="rank-oracle-d0-0"),
        pytest.param("rank-oracle --d0 3 --d1 0 --n 5", id="rank-oracle-d1-0"),
        pytest.param("rank-oracle --d0 3 --d1 2 --n 0", id="rank-oracle-n0"),
        pytest.param("construct --d0 5 --n 20 --beta 0.3", id="construct-beta"),
        pytest.param("construct --d0 3 --n 6 --seed -1", id="construct-seed-negative"),
        pytest.param("construct --d0 3 --n 6 --data-seed -1", id="construct-data-seed-negative"),
        pytest.param("rank-oracle --d0 3 --d1 2 --n 5 --seed -3", id="rank-oracle-seed-negative"),
        pytest.param("volume orthant --n 4 --m 2 --l 3 --trials 20 --seed -1",
                     id="volume-seed-negative"),
        pytest.param("volume angular --d0 3 --d1 2 --n 4 --pattern-seed -1 --trials 10 --seed 1",
                     id="volume-pattern-seed-negative"),
        # a count too large for a float
        pytest.param(f"bounds suboptimal --n {BIG} --d0 3 --d1 3 --epsilon 0.1 --rho 0",
                     id="suboptimal-n-huge"),
        pytest.param(f"bounds ratio --n {BIG} --d0 3 --d1 3 --epsilon 0.1 --rho 0",
                     id="ratio-n-huge"),
        pytest.param(f"bounds delta --d0 3 --n {BIG}", id="delta-n-huge"),
        pytest.param(f"bounds coherence-tail --m {BIG} --n 3 --eps 0.5",
                     id="coherence-tail-m-huge"),
        pytest.param(f"bounds orthant --n 4 --m {BIG} --l 3", id="orthant-m-huge"),
        pytest.param(f"bounds global-lower --d0 {BIG} --d1star 2 --sin-alpha 0.5",
                     id="global-lower-d0-huge"),
        pytest.param(f"bounds beta --d0 {BIG} --which upper --u 0.2", id="beta-d0-huge"),
    ])
    def test_bad_flags_exit_one_without_artifact(self, tmp_path, capsys, argv):
        out = tmp_path / "never.json"
        assert run_cli(*argv.split(), "--out", str(out)) == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        pytest.param("volume coherence --m 0 --n 3 --eps 0.5 --trials 10 --seed 1",
                     id="volume-coherence-m0"),
        pytest.param("bounds coherence-tail --m 10 --n 0 --eps 0.5", id="bounds-coherence-tail-n0"),
        pytest.param("volume margin --d0 3 --d1star 1 --n 0 --sin-alpha 0.1 --trials 10 --seed 1",
                     id="volume-margin-n0"),
        pytest.param("volume global --d0 3 --d1star 2 --n 0 --trials 10 --seed 1",
                     id="volume-global-n0"),
        pytest.param("volume angular --d0 0 --d1 2 --n 4 --trials 10 --seed 1",
                     id="volume-angular-d0-0"),
        pytest.param("volume angular --d0 3 --d1 2 --n 0 --trials 10 --seed 1",
                     id="volume-angular-n0"),
    ])
    def test_empty_shape_exits_one_before_any_draw(self, tmp_path, capsys, monkeypatch, argv):
        from landscape import volume

        monkeypatch.setattr(volume, "block_rng", None)   # a Monte Carlo draw would raise TypeError
        out = tmp_path / "never.json"
        assert run_cli(*argv.split(), "--out", str(out)) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and ("at least 1" in err or "N >= 2" in err), err

    def test_global_d0_below_two_exits_one_before_any_draw(self, tmp_path, capsys, monkeypatch):
        from landscape import volume

        monkeypatch.setattr(volume, "block_rng", None)   # a Monte Carlo draw would raise TypeError
        out = tmp_path / "never.json"
        argv = "volume global --d0 1 --d1star 2 --n 4 --trials 10 --seed 1"
        assert run_cli(*argv.split(), "--out", str(out)) == 1
        assert not out.exists()
        assert "d0 must be at least 2" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        pytest.param("volume coherence --m 5 --n 3 --eps nan --trials 10 --seed 1",
                     id="volume-coherence-eps-nan"),
        pytest.param("volume coherence --m 5 --n 3 --eps inf --trials 10 --seed 1",
                     id="volume-coherence-eps-inf"),
        pytest.param("volume margin --d0 3 --d1star 1 --n 4 --sin-alpha nan --trials 10 --seed 1",
                     id="volume-margin-sin-alpha-nan"),
        pytest.param("volume margin --d0 3 --d1star 1 --n 4 --sin-alpha inf --trials 10 --seed 1",
                     id="volume-margin-sin-alpha-inf"),
    ])
    def test_non_finite_threshold_exits_one_before_any_draw(self, tmp_path, capsys, monkeypatch,
                                                            argv):
        from landscape import volume

        monkeypatch.setattr(volume, "block_rng", None)   # a Monte Carlo draw would raise TypeError
        out = tmp_path / "never.json"
        assert run_cli(*argv.split(), "--out", str(out)) == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command, config", [
        pytest.param("train", '{"dataset": {"d0": 0, "n": 4}, "epochs": 1}', id="train-d0-0"),
        pytest.param("train", '{"dataset": {"d0": 3, "n": 4}, "d1": 0, "epochs": 1}',
                     id="train-d1-0"),
        pytest.param("train", '{"dataset": {"d0": "3", "n": 4}, "epochs": 1}',
                     id="train-d0-string"),
        pytest.param("train", '{"dataset": {"d0": 3, "n": 4}, "epochs": 1, "lr": NaN}',
                     id="train-lr-nan"),
        pytest.param("scan", '{"d_values": [0], "n_factors": [1.0], "seeds": 1, "epochs": 1}',
                     id="scan-d-0"),
        pytest.param("scan", '{"d_values": 4, "n_factors": [1.0], "seeds": 1, "epochs": 1}',
                     id="scan-d-values-scalar"),
        pytest.param("scan", '{"d_values": [4], "n_factors": [1.0], "seeds": 0, "epochs": 1}',
                     id="scan-seeds-0"),
        pytest.param("scan", '{"d_values": [4], "n_factors": [-3.0, 0.0], "seeds": 1, "epochs": 1}',
                     id="scan-factors-nonpositive"),
        pytest.param("scan", '{"d_values": [12, -2], "n_factors": [1.0], "seeds": 1, "epochs": 1}',
                     id="scan-d-negative"),
        pytest.param("train", '{"dataset": {"d0": 3, "n": 4}, "epochs": 1, "seed": "3"}',
                     id="train-seed-string"),
        pytest.param("train", '{"dataset": {"d0": 3, "n": 4}, "epochs": 1.5}',
                     id="train-epochs-float"),
        pytest.param("train", '{"dataset": {"d0": 3, "n": 4}, "epochs": 1, "batch": 2.5}',
                     id="train-batch-float"),
        pytest.param("train", '{"dataset": {"d0": 3, "n": 4}, "epochs": 1, "adam_eps": NaN}',
                     id="train-adam-eps-nan"),
        pytest.param("train", '{"dataset": {"d0": 3, "n": 4}, "epochs": 1, "beta1": 0.5}',
                     id="train-beta1"),
        pytest.param("train", "3", id="train-config-number"),
        pytest.param("train", "null", id="train-config-null"),
        pytest.param("train", "[1]", id="train-config-list"),
        pytest.param("train", '"x"', id="train-config-string"),
        pytest.param("scan", '{"d_values": [4], "n_factors": [1.0], "epochs": 1}',
                     id="scan-seeds-missing"),
        pytest.param("diagnostic", '{"d": 4, "seeds": 1, "epochs": 2, "width": 3}',
                     id="diagnostic-unknown-key"),
        pytest.param("train", '{"dataset": {"path": "data.csv", "d0": 3}, "epochs": 1}',
                     id="train-path-and-d0"),
        pytest.param("train", '{"dataset": {"path": 1.5}, "epochs": 1}', id="train-path-number"),
        pytest.param("train", '{"dataset": [3, 4], "epochs": 1}', id="train-dataset-list"),
        pytest.param("train", '{"dataset": {"d0": 3, "n": 4}, "epochs": 1, "seed": -5}',
                     id="train-seed-negative"),
        pytest.param("train", '{"dataset": {"d0": 3, "n": 4, "seed": -1}, "epochs": 1}',
                     id="train-dataset-seed-negative"),
        pytest.param("scan", '{"d_values": [4], "n_factors": [1.0], "seeds": 1, "epochs": 1, '
                     '"seed": -5}', id="scan-seed-negative"),
        pytest.param("diagnostic", '{"d": 4, "seeds": 1, "epochs": 2, "seed": -5}',
                     id="diagnostic-seed-negative"),
        pytest.param("diagnostic", '{"d": 4, "seeds": 0, "epochs": 4, "lr_decay_epochs": 2}',
                     id="diagnostic-seeds-0"),
        pytest.param("scan", f'{{"d_values": [{BIG}], "n_factors": [1.0], "seeds": 1, '
                     '"epochs": 1}', id="scan-d-huge"),
        pytest.param("scan", '{"d_values": [2], "n_factors": [1e308], "seeds": 1, "epochs": 1}',
                     id="scan-factor-huge"),
    ])
    def test_bad_config_exits_one_without_artifact(self, tmp_path, capsys, command, config):
        path = tmp_path / "c.json"
        path.write_text(config)
        out = tmp_path / "never"
        assert run_cli(command, "--config", str(path), "--out", str(out)) == 1
        assert not (tmp_path / "never.json").exists() and not (tmp_path / "never.csv").exists()
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", ["train", "scan", "diagnostic"])
    @pytest.mark.parametrize("config", ["3", "null", "[1]", '"x"', "true"])
    def test_config_that_is_not_an_object_names_json_object(self, tmp_path, capsys, command,
                                                           config):
        path = tmp_path / "c.json"
        path.write_text(config)
        assert run_cli(command, "--config", str(path), "--out", str(tmp_path / "never")) == 1
        assert os.listdir(tmp_path) == ["c.json"]
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "JSON object" in err, err

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

    def test_dichotomy_loose_overflows_to_infinity(self, capsys):
        rc = run_cli("bounds", "dichotomy", "--n", "100000", "--d0", "400")
        assert rc == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["loose"] == math.inf and printed["schlafli"] > 0

    def test_dichotomy_past_the_int_string_limit_exits_one_without_artifact(self, tmp_path,
                                                                            capsys):
        # 2^16000 has 4817 decimal digits, past the default limit of 4300
        out = tmp_path / "never.json"
        assert run_cli("bounds", "dichotomy", "--n", "16000", "--d0", "16000",
                       "--out", str(out)) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{sys.get_int_max_str_digits()} decimal digits" in err

    @pytest.mark.parametrize("d1star", ["0", "-1"])
    def test_global_lower_d1star_below_one_exits_one_without_artifact(self, tmp_path, capsys,
                                                                      d1star):
        out = tmp_path / "never.json"
        assert run_cli("bounds", "global-lower", "--d0", "2", "--d1star", d1star,
                       "--sin-alpha", "0.5", "--out", str(out)) == 1
        assert not out.exists()
        assert "d1_star must be at least 1" in capsys.readouterr().err


class TestPinnedKindOutputs:
    @pytest.mark.parametrize("argv, expected", PINNED_KIND_OUTPUTS)
    def test_outputs_match_recorded(self, tmp_path, argv, expected):
        out = tmp_path / "record.json"
        assert run_cli(*argv.split(), "--out", str(out)) == 0
        record = json.load(open(out))
        group, kind = argv.split()[:2]
        assert record["command"] == f"{group} {kind}"
        assert record["config"]["command"] == group
        assert record["config"][f"{group}_kind"] == kind
        assert record["outputs"] == expected


def argv_from_config(config):
    """The argv a flag-recording command's config describes: command, kind, then every flag."""
    command = config["command"]
    argv = [command] + ([config[f"{command}_kind"]] if f"{command}_kind" in config else [])
    for key, value in config.items():
        if key != "command" and not key.endswith("_kind"):
            argv += ["--" + key.replace("_", "-"), str(value)]
    return argv


class TestArgvRecords:
    @pytest.mark.parametrize("argv, flags", [
        pytest.param("construct --d0 6 --n 30 --data-seed 2 --seed 3",
                     {"d0": 6, "n": 30, "data_seed": 2, "seed": 3, "rho": 0.0},
                     id="construct-synthetic"),
        pytest.param("construct --d0 4 --n 12 --rho 0.25 --target-d1 40",
                     {"d0": 4, "n": 12, "data_seed": 0, "seed": 0, "rho": 0.25, "target_d1": 40},
                     id="construct-padded"),
        pytest.param("rank-oracle --d0 3 --d1 4 --n 9 --seed 12",
                     {"d0": 3, "d1": 4, "n": 9, "rho": 0.5, "seed": 12},
                     id="rank-oracle"),
    ])
    def test_record_carries_command_and_flags(self, tmp_path, capsys, argv, flags):
        out = tmp_path / "record.json"
        assert run_cli(*argv.split(), "--out", str(out)) == 0
        record = json.load(open(out))
        assert record["command"] == argv.split()[0]
        assert record["config"] == {"command": argv.split()[0], **flags}
        assert record["seed"] == flags["seed"]

    def test_construct_from_csv_records_its_path(self, tmp_path, capsys):
        csv_path = tmp_path / "data.csv"
        write_dataset_csv(csv_path, gen_gaussian_dataset(3, 10, seed=1))
        out = tmp_path / "record.json"
        assert run_cli("construct", "--data", str(csv_path), "--seed", "4", "--out", str(out)) == 0
        record = json.load(open(out))
        assert record["config"] == {"command": "construct", "data": str(csv_path),
                                    "data_seed": 0, "rho": 0.0, "seed": 4}
        replay = tmp_path / "replay.json"
        assert run_cli(*argv_from_config(record["config"]), "--out", str(replay)) == 0
        assert json.dumps(outputs_of(replay)) == json.dumps(record["outputs"])

    @pytest.mark.parametrize("argv", [
        "construct --d0 6 --n 30 --data-seed 2 --seed 3",
        "construct --d0 4 --n 12 --rho 0.25 --target-d1 40",
        "construct --d0 3 --n 8 --data-seed 5",
        "rank-oracle --d0 3 --d1 4 --n 9 --seed 12",
        "rank-oracle --d0 2 --d1 3 --n 7 --rho -0.5",
        *(argv for argv, _ in PINNED_KIND_OUTPUTS),
    ])
    def test_rerun_from_config_reproduces_outputs(self, tmp_path, capsys, argv):
        first = tmp_path / "first.json"
        assert run_cli(*argv.split(), "--out", str(first)) == 0
        printed = capsys.readouterr().out
        record = json.load(open(first))
        replay = tmp_path / "replay.json"
        assert run_cli(*argv_from_config(record["config"]), "--out", str(replay)) == 0
        assert capsys.readouterr().out == printed
        replayed = json.load(open(replay))
        assert replayed["config"] == record["config"]
        assert json.dumps(replayed["outputs"]) == json.dumps(record["outputs"])


class TestJsonRecords:
    @pytest.mark.parametrize("command, config", [
        pytest.param("train", {"dataset": {"d0": 4, "n": 10, "seed": 6}, "epochs": 5, "seed": 2,
                               "stop_on_zero_mce": False}, id="train-synthetic"),
        pytest.param("train", {"epochs": 4, "dataset": {"n": 9, "d0": 3}, "lr": 0.02},
                     id="train-defaults-filled"),
        pytest.param("train", {"dataset": {"path": "data.csv"}, "d1": 6, "epochs": 5, "seed": 3},
                     id="train-csv"),
        pytest.param("scan", {"d_values": [4], "n_factors": [1, 0.5], "seeds": 2, "epochs": 3,
                              "seed": 7}, id="scan"),
        pytest.param("diagnostic", {"d": 4, "seeds": 2, "epochs": 4, "lr_decay_epochs": 2,
                                    "seed": 5}, id="diagnostic"),
    ])
    def test_rerun_from_recorded_config_reproduces_outputs(self, tmp_path, capsys, monkeypatch,
                                                           command, config):
        monkeypatch.chdir(tmp_path)
        write_dataset_csv(tmp_path / "data.csv", gen_gaussian_dataset(3, 12, seed=1))
        first_config, replay_config = tmp_path / "first.cfg", tmp_path / "replay.cfg"
        first_config.write_text(json.dumps(config))
        first, replay = tmp_path / "first", tmp_path / "replay"
        assert run_cli(command, "--config", str(first_config), "--out", str(first)) == 0
        printed = capsys.readouterr().out
        record = json.load(open(f"{first}.json"))
        replay_config.write_text(json.dumps(record["config"]))
        assert run_cli(command, "--config", str(replay_config), "--out", str(replay)) == 0
        assert capsys.readouterr().out == printed
        replayed = json.load(open(f"{replay}.json"))
        assert replayed["config"] == record["config"]
        assert json.dumps(replayed["outputs"]) == json.dumps(record["outputs"])
        assert open(f"{replay}.csv").read() == open(f"{first}.csv").read()


class TestRankOracleCommand:
    def test_small_instance(self, tmp_path):
        out = tmp_path / "oracle.json"
        rc = run_cli("rank-oracle", "--d0", "2", "--d1", "2", "--n", "2",
                     "--rho", "0.5", "--seed", "3", "--out", str(out))
        assert rc == 0
        outputs = outputs_of(out)
        assert outputs["holds"] == outputs["full_column_rank"]

    def test_cap_exits_one(self):
        assert run_cli("rank-oracle", "--d0", "2", "--d1", "1", "--n", "257") == 1


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
        written = json.load(open(out))
        assert asdict(RunRecord(**written)) == written
