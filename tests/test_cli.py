"""Command-line surface: subcommands, config parsing, and exit codes."""

import csv
import math

import numpy as np
import pytest

from mlpriv.accountant import epsilon_for, sigma_for
from mlpriv.cli import (
    EXIT_CRITERION,
    EXIT_OK,
    EXIT_VALIDATION,
    SYNTH_SCHEMA,
    ConfigError,
    main,
    read_config,
)


def write_config(path, **kwargs):
    path.write_text("".join(f"{k} = {v}\n" for k, v in kwargs.items()))
    return str(path)


@pytest.fixture()
def synth_dir(tmp_path):
    """A lambda = 1 synthetic dataset generated through the CLI itself."""
    cfg = write_config(
        tmp_path / "synth.cfg",
        num_languages=3, tuples=12, dim=4, classes=2, compression=1.0, seed=0,
    )
    out = tmp_path / "data"
    assert main(["synth", "--config", cfg, "--out", str(out)]) == EXIT_OK
    return out


class TestConfigParsing:
    def test_flat_key_value_with_comments(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# header\nseed = 3\ncompression = 0.5  # inline\n\n")
        values = read_config(path, SYNTH_SCHEMA)
        assert values == {"seed": 3, "compression": 0.5}

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("bogus = 1\n")
        with pytest.raises(ConfigError):
            read_config(path, SYNTH_SCHEMA)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("seed = notanint\n")
        with pytest.raises(ConfigError):
            read_config(path, SYNTH_SCHEMA)

    def test_inf_parses_for_floats(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("compression = inf\n")
        assert read_config(path, SYNTH_SCHEMA)["compression"] == math.inf


class TestSynthCommand:
    def test_outputs_manifest_and_dataset(self, synth_dir):
        assert (synth_dir / "manifest.tsv").exists()
        assert (synth_dir / "features.emb").exists()
        assert (synth_dir / "labels.tsv").exists()
        assert sorted(p.name for p in synth_dir.glob("L*.emb")) == [
            "L00.emb", "L01.emb", "L02.emb",
        ]

    def test_bad_config_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "bad.cfg", num_languages=1, tuples=4, dim=4)
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_VALIDATION

    def test_relative_out_feeds_metrics(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "synth.cfg", num_languages=2, tuples=6, dim=3, seed=0)
        assert main(["synth", "--config", cfg, "--out", "data/"]) == EXIT_OK
        assert main(["metrics", "--manifest", "data/manifest.tsv", "--metrics", "cka",
                     "--out", "m.csv"]) == EXIT_OK


class TestMetricsCommand:
    def test_identity_sets_give_aggregate_one(self, synth_dir, tmp_path):
        out = tmp_path / "metrics.csv"
        code = main([
            "metrics", "--manifest", str(synth_dir / "manifest.tsv"),
            "--metrics", "retrieval", "--out", str(out),
        ])
        assert code == EXIT_OK
        rows = list(csv.DictReader(out.open()))
        pair_rows = [r for r in rows if r["lang_a"] != "ALL"]
        all_rows = [r for r in rows if r["lang_a"] == "ALL"]
        assert len(pair_rows) == 6 and len(all_rows) == 1  # |L| = 3 ordered pairs
        assert float(all_rows[0]["value"]) == 1.0

    def test_multiple_metrics_split_files(self, synth_dir, tmp_path):
        out = tmp_path / "m.csv"
        code = main([
            "metrics", "--manifest", str(synth_dir / "manifest.tsv"),
            "--metrics", "cka,rsa", "--out", str(out),
        ])
        assert code == EXIT_OK
        assert (tmp_path / "m_cka.csv").exists()
        assert (tmp_path / "m_rsa.csv").exists()

    def test_missing_manifest_exits_2(self, tmp_path):
        code = main([
            "metrics", "--manifest", str(tmp_path / "nope.tsv"),
            "--out", str(tmp_path / "out.csv"),
        ])
        assert code == EXIT_VALIDATION


class TestTrainCommand:
    def run_train(self, synth_dir, tmp_path, **overrides):
        params = dict(base_lr=0.1, total_steps=120, batch_size=8, seed=0)
        params.update(overrides)
        cfg = write_config(tmp_path / "train.cfg", **params)
        out = tmp_path / "run"
        code = main(["train", "--config", cfg, "--data", str(synth_dir), "--out", str(out)])
        return code, out

    def test_writes_checkpoints_log_and_eval(self, synth_dir, tmp_path):
        code, out = self.run_train(synth_dir, tmp_path)
        assert code == EXIT_OK
        assert (out / "ckpt_000100.ckpt").exists()
        assert (out / "train_log.csv").exists()
        eval_rows = dict(
            (r["key"], r["value"]) for r in csv.DictReader((out / "eval.csv").open())
        )
        assert float(eval_rows["sigma"]) == 0.0
        assert "fairness_variance" in eval_rows

    def test_infinite_target_epsilon_logs_sigma_zero(self, synth_dir, tmp_path):
        code, out = self.run_train(synth_dir, tmp_path, target_epsilon="inf")
        assert code == EXIT_OK
        eval_rows = dict(
            (r["key"], r["value"]) for r in csv.DictReader((out / "eval.csv").open())
        )
        assert float(eval_rows["sigma"]) == 0.0

    def test_target_epsilon_routes_through_accountant(self, synth_dir, tmp_path):
        code, out = self.run_train(
            synth_dir, tmp_path, target_epsilon=8.0, delta=1e-6,
            total_steps=60, batch_size=6,
        )
        assert code == EXIT_OK
        eval_rows = dict(
            (r["key"], r["value"]) for r in csv.DictReader((out / "eval.csv").open())
        )
        expected = sigma_for(8.0, q=6 / 36, steps=60, delta=1e-6)
        assert float(eval_rows["sigma"]) == expected
        assert epsilon_for(6 / 36, expected, 60, 1e-6).epsilon <= 8.0 * (1 + 1e-6)

    def test_rerun_is_byte_identical(self, synth_dir, tmp_path):
        _, out_a = self.run_train(synth_dir, tmp_path)
        (tmp_path / "second").mkdir()
        _, out_b = self.run_train(synth_dir, tmp_path / "second")
        for name in ("ckpt_000100.ckpt", "train_log.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_unknown_config_key_exits_2(self, synth_dir, tmp_path):
        cfg = write_config(tmp_path / "train.cfg", base_lr=0.1, total_steps=10,
                           batch_size=4, seed=0, bogus=1)
        code = main(["train", "--config", cfg, "--data", str(synth_dir),
                     "--out", str(tmp_path / "run")])
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("overrides", [
        dict(checkpoint_interval=0),
        dict(num_classes=1),  # the lambda = 1 set has labels 0 and 1
    ], ids=["checkpoint_interval_0", "num_classes_below_labels"])
    def test_malformed_config_exits_2(self, synth_dir, tmp_path, capsys, overrides):
        code, _ = self.run_train(synth_dir, tmp_path, **overrides)
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error:")


class TestInfluenceCommand:
    def test_lambda_one_infu_rows_are_one(self, synth_dir, tmp_path):
        cfg = write_config(tmp_path / "train.cfg", base_lr=0.1, total_steps=300,
                           batch_size=8, seed=0)
        run = tmp_path / "run"
        assert main(["train", "--config", cfg, "--data", str(synth_dir),
                     "--out", str(run)]) == EXIT_OK
        out = tmp_path / "influence.csv"
        code = main(["influence", "--checkpoints", str(run), "--data", str(synth_dir),
                     "--out", str(out)])
        assert code == EXIT_OK
        infu_values = [
            float(r["score"]) for r in csv.DictReader(out.open())
            if r["anchor_lang"] == "ALL"
        ]
        assert len(infu_values) == 12
        assert all(abs(v - 1.0) <= 1e-9 for v in infu_values)

    def test_single_checkpoint_accepted(self, synth_dir, tmp_path):
        cfg = write_config(tmp_path / "train.cfg", base_lr=0.1, total_steps=100,
                           batch_size=8, seed=0)
        run = tmp_path / "run"
        main(["train", "--config", cfg, "--data", str(synth_dir), "--out", str(run)])
        assert len(list(run.glob("*.ckpt"))) == 1
        code = main(["influence", "--checkpoints", str(run), "--data", str(synth_dir),
                     "--out", str(tmp_path / "influence.csv"), "--last", "1"])
        assert code == EXIT_OK

    def test_last_zero_exits_2(self, synth_dir, tmp_path):
        cfg = write_config(tmp_path / "train.cfg", base_lr=0.1, total_steps=200,
                           batch_size=8, seed=0)
        run = tmp_path / "run"
        assert main(["train", "--config", cfg, "--data", str(synth_dir),
                     "--out", str(run)]) == EXIT_OK
        code = main(["influence", "--checkpoints", str(run), "--data", str(synth_dir),
                     "--out", str(tmp_path / "influence.csv"), "--last", "0"])
        assert code == EXIT_VALIDATION
        assert not (tmp_path / "influence.csv").exists()

    def test_empty_checkpoint_dir_exits_2(self, synth_dir, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(["influence", "--checkpoints", str(empty), "--data", str(synth_dir),
                     "--out", str(tmp_path / "influence.csv")])
        assert code == EXIT_VALIDATION


class TestAccountantCommand:
    def test_epsilon_output(self, capsys):
        assert main(["accountant", "--q", "1.0", "--sigma", "4.0",
                     "--steps", "1", "--delta", "1e-5"]) == EXIT_OK
        eps, order = capsys.readouterr().out.strip().split(",")
        spending = epsilon_for(1.0, 4.0, 1, 1e-5)
        assert float(eps) == spending.epsilon
        assert int(order) == spending.best_order

    def test_sigma_output(self, capsys):
        assert main(["accountant", "--q", "0.1", "--epsilon", "3.0",
                     "--steps", "100", "--delta", "1e-5"]) == EXIT_OK
        assert float(capsys.readouterr().out.strip()) == sigma_for(3.0, 0.1, 100, 1e-5)

    def test_both_or_neither_flag_exits_2(self):
        assert main(["accountant", "--q", "0.1", "--steps", "10",
                     "--delta", "1e-5"]) == EXIT_VALIDATION
        assert main(["accountant", "--q", "0.1", "--sigma", "1.0", "--epsilon", "3.0",
                     "--steps", "10", "--delta", "1e-5"]) == EXIT_VALIDATION

    def test_invalid_domain_exits_2(self):
        assert main(["accountant", "--q", "2.0", "--sigma", "1.0",
                     "--steps", "10", "--delta", "1e-5"]) == EXIT_VALIDATION


class TestExperimentCommand:
    def test_theorem2_passes_and_writes_csv(self, tmp_path):
        cfg = write_config(tmp_path / "exp.cfg", tuples=20, total_steps=120)
        out = tmp_path / "exp"
        code = main(["experiment", "theorem2", "--config", cfg, "--out", str(out)])
        assert code == EXIT_OK
        summary = dict(
            (r["key"], r["value"])
            for r in csv.DictReader((out / "theorem2.summary.csv").open())
        )
        assert summary["verdict"] == "pass"
        assert float(summary["loss_variance"]) == 0.0

    @pytest.mark.parametrize("name, key", [
        ("theorem2", "batch_size = 16"),
        ("theorem1", "seed = 3"),
    ])
    def test_key_the_experiment_does_not_take_exits_2(self, tmp_path, capsys, name, key):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(key + "\n")
        code = main(["experiment", name, "--config", str(cfg), "--out", str(tmp_path / "exp")])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_name_exits_2(self, tmp_path):
        code = main(["experiment", "nonsense", "--out", str(tmp_path / "exp")])
        assert code == EXIT_VALIDATION

    def test_failed_criterion_exits_4(self, tmp_path, monkeypatch):
        from mlpriv import experiments

        def fake(name, **kwargs):
            return experiments.ExperimentResult(name, False, {"x": 1.0}, [])

        monkeypatch.setattr(experiments, "run_experiment", fake)
        code = main(["experiment", "theorem2", "--out", str(tmp_path / "exp")])
        assert code == EXIT_CRITERION
