"""Command-line surface: subcommands, config parsing, and exit codes."""

import contextlib
import csv
import functools
import inspect
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlpriv import cli, experiments, synth
from mlpriv.accountant import epsilon_for, sigma_for
from mlpriv.cli import (
    EXIT_CRITERION,
    EXIT_DIVERGENCE,
    EXIT_OK,
    EXIT_VALIDATION,
    SYNTH_SCHEMA,
    TRAIN_SCHEMA,
    ConfigError,
    main,
    read_config,
)
from mlpriv.influence import CheckpointSet, influence_profiles
from mlpriv.metrics import linguistic_fairness_gap, pairwise_report
from mlpriv.repr_store import Manifest, load_set, read_embeddings, write_embeddings
from mlpriv.synth import gen_classification_data, gen_parallel_set
from mlpriv.trainer import (
    Checkpoint,
    LabeledDataset,
    ModelSpec,
    TrainConfig,
    evaluate,
    read_checkpoint,
    train,
    write_checkpoint,
)


# every key some experiment takes: the union of the experiments' own key tables
EXPERIMENT_KEYS = set().union(*map(cli._schema, experiments.EXPERIMENTS.values()))


def write_config(path, **kwargs):
    path.write_text("".join(f"{k} = {v}\n" for k, v in kwargs.items()))
    return str(path)


EDGE_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 2.2250738585072014e-308,
               1e300, -1e300, 1.0]


def fuzz_floats(lo, hi):
    """Half the time a float in (lo, hi], else an edge value or any float at all."""
    return st.one_of(st.floats(lo, hi, exclude_min=True), st.sampled_from(EDGE_FLOATS) | st.floats())


# malformed or edge-case config values: a fuzzed config holds at most one
BAD_VALUES = st.sampled_from(["", "x", "1.5", "-0", "-1", "0", "1e400", "nan", "inf", "-inf",
                              "5e-324", "1e300", "-1e300", "true"]) | st.floats().map(repr)


def fuzz_config(data, fields, required=(), bad_keys=None, may_drop_required=True):
    """Draw a config over `fields` (key -> strategy of well-formed values):
    the required keys plus any of the others, or, if may_drop_required, any
    subset at all; then at most one key of `bad_keys` (default: the fields)
    gets a bad value."""
    optional = {k: v for k, v in fields.items() if k not in required}
    configs = st.fixed_dictionaries({k: fields[k] for k in required}, optional=optional)
    if may_drop_required:
        configs |= st.fixed_dictionaries({}, optional=fields)
    values = data.draw(configs, label="values")
    bad = data.draw(st.none() | st.sampled_from(sorted(bad_keys or fields)), label="bad key")
    if bad is not None:
        values[bad] = data.draw(BAD_VALUES, label="bad value")
    return values


def as_text(strategy):
    return strategy.map(repr)


def run_quietly(argv):
    """main(argv) with stdout and stderr captured; returns (code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


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
        for text in ("inf", "Infinity", "INF"):
            path.write_text(f"compression = {text}\n")
            assert read_config(path, SYNTH_SCHEMA)["compression"] == math.inf

    def test_repeated_synth_key_exits_2_naming_both_lines(self, tmp_path, capsys):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("num_languages = 2\ntuples = 6\ndim = 3\nseed = 0\n# again\nseed = 5\n")
        out = tmp_path / "o"
        capsys.readouterr()
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {cfg}:6: 'seed' is already set on line 4\n"
        assert not out.exists()

    def test_repeated_train_key_exits_2_before_the_out_directory(self, synth_dir, tmp_path,
                                                                 capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("base_lr = 0.1\ntotal_steps = 60\nbatch_size = 4\nseed = 0\n"
                       "base_lr = 0.2\n")
        out = tmp_path / "run"
        capsys.readouterr()
        code = main(["train", "--config", str(cfg), "--data", str(synth_dir), "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {cfg}:5: 'base_lr' is already set on line 1\n"
        assert not out.exists()

    def test_repeated_experiment_key_exits_2_naming_both_lines(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("seeds = 0\ntuples = 6\nseeds = 1\n")
        out = tmp_path / "exp"
        capsys.readouterr()
        code = main(["experiment", "theorem1", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {cfg}:3: 'seeds' is already set on line 1\n"
        assert not out.exists()


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

    def test_non_finite_noise_scale_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "synth.cfg", num_languages=2, tuples=6, dim=3,
                           compression=1.0, noise_scale="nan")
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
        assert "noise_scale" in capsys.readouterr().err

    SYNTH_FUZZ = {
        "num_languages": as_text(st.integers(2, 5)),
        "tuples": as_text(st.integers(2, 30)),
        "dim": as_text(st.integers(2, 8)),
        "classes": as_text(st.integers(2, 5)),
        "compression": as_text(st.floats(0.0, 1.0)),
        "noise_scale": as_text(st.floats(0.0, 1.0)),
        "seed": as_text(st.integers(0, 2**64)),
    }

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_fuzzed_config_exits_0_or_2(self, tmp_path_factory, data):
        assert self.SYNTH_FUZZ.keys() == SYNTH_SCHEMA.keys()
        values = fuzz_config(data, self.SYNTH_FUZZ, required=("num_languages", "tuples", "dim"))
        cfg = write_config(tmp_path_factory.mktemp("synth") / "synth.cfg", **values)
        code, err = run_quietly(["synth", "--config", cfg, "--out", str(Path(cfg).parent / "out")])
        assert code in (EXIT_OK, EXIT_VALIDATION)
        assert (code == EXIT_OK) == (err == "")

    def test_builds_its_parallel_set_once(self, tmp_path, monkeypatch):
        """The language files and the flattened dataset come from one
        parallel set, and the dataset is gen_classification_data's."""
        specs = []

        def counted(spec):
            specs.append(spec)
            return gen_parallel_set(spec)

        monkeypatch.setattr(cli, "gen_parallel_set", counted)
        monkeypatch.setattr(synth, "gen_parallel_set", counted)
        cfg = write_config(tmp_path / "synth.cfg", num_languages=3, tuples=12, dim=4,
                           compression=0.5, seed=5)
        out = tmp_path / "data"
        assert main(["synth", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert len(specs) == 1
        monkeypatch.undo()
        write_embeddings(tmp_path / "expected.emb", gen_classification_data(specs[0]).features)
        assert (out / "features.emb").read_bytes() == (tmp_path / "expected.emb").read_bytes()

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

    def test_multiple_metrics_split_files(self, synth_dir, tmp_path, capsys):
        for requested, names in [("cka,rsa", ["cka", "rsa"]),
                                 ("retrieval, cka", ["retrieval", "cka"])]:
            out = tmp_path / names[0] / "m.csv"
            out.parent.mkdir()
            capsys.readouterr()
            code = main([
                "metrics", "--manifest", str(synth_dir / "manifest.tsv"),
                "--metrics", requested, "--out", str(out),
            ])
            assert code == EXIT_OK
            assert sorted(p.name for p in out.parent.iterdir()) == sorted(
                f"m_{name}.csv" for name in names)
            printed = capsys.readouterr().out.splitlines()
            assert [line.split(": ")[0] for line in printed] == names

    @pytest.mark.parametrize("requested, bad", [("retrieval,rsa,bogus", "'bogus'"),
                                                ("cka,", "''")])
    def test_unknown_metric_exits_2_before_any_work(self, synth_dir, tmp_path, capsys,
                                                     requested, bad):
        out = tmp_path / "out" / "m.csv"
        out.parent.mkdir()
        capsys.readouterr()
        code = main([
            "metrics", "--manifest", str(synth_dir / "manifest.tsv"),
            "--metrics", requested, "--out", str(out),
        ])
        assert code == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: unknown metric {bad}")
        assert list(out.parent.iterdir()) == []

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
        dict(noise_multiplier="nan"),
        dict(delta=7.0),
        dict(target_epsilon="nan"),
        dict(total_steps=4294967296),  # one past CKPT1's u32 step
    ], ids=["checkpoint_interval_0", "num_classes_below_labels", "noise_multiplier_nan",
            "delta_7", "target_epsilon_nan", "total_steps_2_32"])
    def test_malformed_config_exits_2(self, synth_dir, tmp_path, capsys, overrides):
        capsys.readouterr()
        code, out = self.run_train(synth_dir, tmp_path, **overrides)
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    def test_config_is_checked_before_the_data(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "train.cfg", base_lr=-1, total_steps=10, batch_size=4, seed=0)
        out = tmp_path / "run"
        capsys.readouterr()
        code = main(["train", "--config", cfg, "--data", str(tmp_path / "missing"),
                     "--out", str(out)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: base_lr") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flags", [[], ["-W", "error"]], ids=["default", "warnings_as_errors"])
    def test_diverging_run_prints_one_error_line(self, synth_dir, tmp_path, flags):
        """A run whose parameters overflow exits 3 with its error line alone:
        no numpy RuntimeWarning, and no traceback when warnings are errors."""
        cfg = write_config(tmp_path / "train.cfg", base_lr=1e300, total_steps=20, warmup_steps=0,
                           batch_size=4, seed=0)
        src = str(Path(cli.__file__).parent.parent)
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "mlpriv.cli", "train", "--config", cfg,
             "--data", str(synth_dir), "--out", str(tmp_path / "run")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == EXIT_DIVERGENCE
        assert proc.stderr.startswith("error: training diverged") and proc.stderr.count("\n") == 1

    def test_label_line_without_a_tab_exits_2_naming_the_line(self, synth_dir, tmp_path, capsys):
        rows = (synth_dir / "labels.tsv").read_text().splitlines()
        rows[1] = rows[1].replace("\t", " ")
        (synth_dir / "labels.tsv").write_text("".join(row + "\n" for row in rows))
        capsys.readouterr()
        code, _ = self.run_train(synth_dir, tmp_path)
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "labels.tsv:2: " in err

    def test_label_count_differing_from_feature_rows_exits_2_naming_both(self, synth_dir, tmp_path,
                                                                         capsys):
        rows = (synth_dir / "labels.tsv").read_text().splitlines()
        (synth_dir / "labels.tsv").write_text("".join(row + "\n" for row in rows[:5]))
        capsys.readouterr()
        code, _ = self.run_train(synth_dir, tmp_path)
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "labels.tsv holds 5 labels" in err and f"features.emb has {len(rows)} rows" in err

    @pytest.mark.parametrize("key", ["adam_beta1", "adam_eps", "noise_seed"])
    def test_library_constant_is_an_unknown_key(self, synth_dir, tmp_path, capsys, key):
        code, _ = self.run_train(synth_dir, tmp_path, **{key: 1})
        assert code == EXIT_VALIDATION
        assert f"unknown key {key!r}" in capsys.readouterr().err

    TRAIN_FUZZ = {
        "base_lr": as_text(st.floats(1e-3, 1.0)),
        "total_steps": as_text(st.integers(1, 30)),
        "batch_size": as_text(st.integers(1, 36)),  # the fuzz dataset holds 36 examples
        "seed": as_text(st.integers(0, 2**64)),
        "warmup_steps": as_text(st.integers(0, 5)),
        "clip_threshold": as_text(st.floats(1e-3, 10.0)),
        "noise_multiplier": as_text(st.floats(0.0, 5.0)),
        "weight_decay": as_text(st.floats(0.0, 0.5)),
        "optimizer": st.sampled_from(["sgd", "adamw"]),
        "checkpoint_interval": as_text(st.integers(1, 30)),
        "target_epsilon": as_text(st.floats(0.1, 16.0)) | st.just("inf"),
        "delta": as_text(st.floats(1e-8, 0.1)),
        "hidden_dim": as_text(st.integers(0, 8)),
        "num_classes": as_text(st.integers(2, 5)),
    }

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # a diverging run overflows first
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_fuzzed_config_exit_code_is_documented(self, fuzz_data, data):
        assert self.TRAIN_FUZZ.keys() == TRAIN_SCHEMA.keys()
        values = fuzz_config(data, self.TRAIN_FUZZ,
                             required=("base_lr", "total_steps", "batch_size", "seed", "warmup_steps"))
        cfg = write_config(fuzz_data / "train.cfg", **values)
        code, err = run_quietly(["train", "--config", cfg, "--data", str(fuzz_data / "data"),
                                 "--out", str(fuzz_data / "run")])
        assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_DIVERGENCE)
        assert (code == EXIT_OK) == (err == "")


@pytest.fixture(scope="module")
def fuzz_data(tmp_path_factory):
    """A directory holding a lambda = 0.5 dataset (3 languages x 12 tuples) in data/."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = write_config(root / "synth.cfg", num_languages=3, tuples=12, dim=4, classes=2,
                       compression=0.5, seed=0)
    assert main(["synth", "--config", cfg, "--out", str(root / "data")]) == EXIT_OK
    return root


@pytest.mark.parametrize("command", ["synth", "train", "experiment"])
def test_negative_seed_exits_2_naming_the_field(synth_dir, tmp_path, capsys, command):
    out = str(tmp_path / "out")
    if command == "synth":
        cfg = write_config(tmp_path / "c.cfg", num_languages=3, tuples=12, dim=4, seed=-1)
        argv = ["synth", "--config", cfg, "--out", out]
    elif command == "train":
        cfg = write_config(tmp_path / "c.cfg", base_lr=0.1, total_steps=10, batch_size=4,
                           warmup_steps=0, seed=-1)
        argv = ["train", "--config", cfg, "--data", str(synth_dir), "--out", out]
    else:
        cfg = write_config(tmp_path / "c.cfg", tuples=12, total_steps=10, seed=-1)
        argv = ["experiment", "theorem2", "--config", cfg, "--out", out]
    capsys.readouterr()
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: seed must be a nonnegative integer, got -1\n"


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

    def test_non_finite_checkpoint_exits_2(self, synth_dir, tmp_path):
        cfg = write_config(tmp_path / "train.cfg", base_lr=0.1, total_steps=200,
                           batch_size=8, seed=0)
        run = tmp_path / "run"
        assert main(["train", "--config", cfg, "--data", str(synth_dir),
                     "--out", str(run)]) == EXIT_OK
        last = sorted(run.glob("*.ckpt"))[-1]
        ckpt = read_checkpoint(last)
        theta = ckpt.theta.copy()
        theta[0] = math.nan
        write_checkpoint(last, Checkpoint(step=ckpt.step, theta=theta, eta=ckpt.eta))
        code = main(["influence", "--checkpoints", str(run), "--data", str(synth_dir),
                     "--out", str(tmp_path / "influence.csv")])
        assert code == EXIT_VALIDATION
        assert not (tmp_path / "influence.csv").exists()

    def test_language_major_labels_exit_2(self, synth_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "train.cfg", base_lr=0.1, total_steps=200,
                           batch_size=8, seed=0)
        run = tmp_path / "run"
        assert main(["train", "--config", cfg, "--data", str(synth_dir),
                     "--out", str(run)]) == EXIT_OK
        # the same examples, reordered: every L00 row, then every L01 row, ...
        rows = (synth_dir / "labels.tsv").read_text().splitlines()
        order = sorted(range(len(rows)), key=lambda r: rows[r].split("\t")[1])
        data = tmp_path / "language_major"
        data.mkdir()
        write_embeddings(data / "features.emb", read_embeddings(synth_dir / "features.emb")[order])
        (data / "labels.tsv").write_text("".join(rows[r] + "\n" for r in order))
        capsys.readouterr()
        code = main(["influence", "--checkpoints", str(run), "--data", str(data),
                     "--out", str(tmp_path / "influence.csv")])
        assert code == EXIT_VALIDATION
        assert "tuple-major" in capsys.readouterr().err
        assert not (tmp_path / "influence.csv").exists()

    def test_model_with_more_classes_than_labels(self, synth_dir, tmp_path):
        """The class count comes from the checkpoint, not from the labels."""
        cfg = write_config(tmp_path / "train.cfg", base_lr=0.1, total_steps=200,
                           batch_size=8, seed=0, num_classes=3)
        run = tmp_path / "run"
        assert main(["train", "--config", cfg, "--data", str(synth_dir),
                     "--out", str(run)]) == EXIT_OK  # the lambda = 1 set has labels 0 and 1
        assert read_checkpoint(sorted(run.glob("*.ckpt"))[-1]).theta.size == 3 * (4 + 1)
        out = tmp_path / "influence.csv"
        code = main(["influence", "--checkpoints", str(run), "--data", str(synth_dir),
                     "--out", str(out)])
        assert code == EXIT_OK
        assert sum(r["anchor_lang"] == "ALL" for r in csv.DictReader(out.open())) == 12

    @pytest.mark.parametrize("extra", [[], ["--hidden-dim", "2"], ["--hidden-dim", "-1"]],
                             ids=["omitted", "other", "negative"])
    def test_hidden_dim_disagreeing_with_the_trained_model_exits_2(self, synth_dir, tmp_path,
                                                                   capsys, extra):
        """A tanh model with hidden_dim = d has (d + 1) | P, so P alone cannot expose
        a forgotten --hidden-dim; the model record that train writes does."""
        cfg = write_config(tmp_path / "train.cfg", base_lr=0.1, total_steps=200,
                           batch_size=8, seed=0, hidden_dim=4)
        run = tmp_path / "run"
        assert main(["train", "--config", cfg, "--data", str(synth_dir),
                     "--out", str(run)]) == EXIT_OK  # 4 * 5 + 2 * 5 = 30 parameters
        assert (run / "model.cfg").read_text() == "hidden_dim = 4\nnum_classes = 2\n"
        capsys.readouterr()
        out = tmp_path / "influence.csv"
        code = main(["influence", "--checkpoints", str(run), "--data", str(synth_dir),
                     "--out", str(out), *extra])
        assert code == EXIT_VALIDATION
        assert "does not match the trained model" in capsys.readouterr().err
        assert not out.exists()
        assert main(["influence", "--checkpoints", str(run), "--data", str(synth_dir),
                     "--out", str(out), "--hidden-dim", "4"]) == EXIT_OK

    @pytest.mark.parametrize("train_keys", [{"num_classes": 3}, {"hidden_dim": 4}],
                             ids=["more_classes", "hidden_dim_d"])
    def test_checkpoints_without_model_record_need_the_label_model(self, synth_dir, tmp_path,
                                                                    capsys, train_keys):
        """Without a record the model has labels.max() + 1 classes and --hidden-dim
        hidden units, and the parameter count must match it."""
        cfg = write_config(tmp_path / "train.cfg", base_lr=0.1, total_steps=200,
                           batch_size=8, seed=0, **train_keys)
        run = tmp_path / "run"
        assert main(["train", "--config", cfg, "--data", str(synth_dir),
                     "--out", str(run)]) == EXIT_OK
        (run / "model.cfg").unlink()
        capsys.readouterr()
        out = tmp_path / "influence.csv"
        code = main(["influence", "--checkpoints", str(run), "--data", str(synth_dir),
                     "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert "parameter count" in capsys.readouterr().err
        assert not out.exists()

    def test_incomplete_model_record_exits_2(self, synth_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "train.cfg", base_lr=0.1, total_steps=200,
                           batch_size=8, seed=0)
        run = tmp_path / "run"
        assert main(["train", "--config", cfg, "--data", str(synth_dir),
                     "--out", str(run)]) == EXIT_OK
        (run / "model.cfg").write_text("hidden_dim = 0\n")
        capsys.readouterr()
        code = main(["influence", "--checkpoints", str(run), "--data", str(synth_dir),
                     "--out", str(tmp_path / "influence.csv")])
        assert code == EXIT_VALIDATION
        assert "must set hidden_dim and num_classes" in capsys.readouterr().err

    @pytest.mark.parametrize("last", [2, 1])
    def test_checkpoints_are_ordered_by_recorded_step(self, synth_dir, tmp_path, last):
        """Past step 999,999 train's `ckpt_{step:06d}` names sort out of step
        order: `ckpt_1000000.ckpt` before `ckpt_999900.ckpt`. --last K takes
        the K checkpoints of the highest recorded steps."""
        rng = np.random.default_rng(0)
        run = tmp_path / "run"
        run.mkdir()
        checkpoints = [Checkpoint(step=step, theta=rng.standard_normal(2 * 4 + 2), eta=eta)
                       for step, eta in [(999_900, 0.02), (1_000_000, 0.01)]]
        for ckpt in checkpoints:
            write_checkpoint(run / f"ckpt_{ckpt.step:06d}.ckpt", ckpt)
        assert sorted(p.name for p in run.glob("*.ckpt")) == ["ckpt_1000000.ckpt",
                                                              "ckpt_999900.ckpt"]
        out = tmp_path / "influence.csv"
        assert main(["influence", "--checkpoints", str(run), "--data", str(synth_dir),
                     "--out", str(out), "--last", str(last)]) == EXIT_OK
        features = read_embeddings(synth_dir / "features.emb")
        labels, tags = zip(*(line.split("\t")
                             for line in (synth_dir / "labels.tsv").read_text().splitlines()))
        dataset = LabeledDataset(features=features, labels=np.array([int(v) for v in labels]),
                                 languages=tags)
        model = ModelSpec(input_dim=4, hidden_dim=0, num_classes=2)
        languages = ["L00", "L01", "L02"]
        rows = []
        for prof in influence_profiles(dataset, CheckpointSet(checkpoints[-last:]), model):
            rows += [[prof.tuple_index, anchor, target, g17(prof.scores[k, j])]
                     for k, anchor in enumerate(languages) for j, target in enumerate(languages)]
            rows.append([prof.tuple_index, "ALL", "ALL", g17(prof.infu)])
        assert out.read_bytes() == csv_bytes(["tuple_index", "anchor_lang", "target_lang", "score"],
                                             rows)

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

    def test_invalid_domain_exits_2(self, capsys):
        for argv in (["--q", "2.0", "--sigma", "1.0", "--steps", "10", "--delta", "1e-5"],
                     # an infinite target still checks q, steps and delta
                     ["--q", "5", "--epsilon", "inf", "--steps", "0", "--delta", "7"]):
            assert main(["accountant", *argv]) == EXIT_VALIDATION
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: sampling rate q ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("flag, value, message", [
        ("--epsilon", "nan", "target epsilon must be > 0"),
        ("--epsilon", "-inf", "target epsilon must be > 0"),
        ("--sigma", "nan", "sigma must be > 0"),
    ])
    def test_nan_or_negative_infinite_input_exits_2(self, capsys, flag, value, message):
        code = main(["accountant", "--q", "0.1", f"{flag}={value}", "--steps", "100", "--delta", "1e-5"])
        assert code == EXIT_VALIDATION
        assert message in capsys.readouterr().err

    def test_sigma_whose_square_overflows_gives_finite_epsilon(self, capsys):
        assert main(["accountant", "--q", "0.1", "--sigma", "1e300",
                     "--steps", "100", "--delta", "1e-5"]) == EXIT_OK
        eps, _ = capsys.readouterr().out.strip().split(",")
        assert math.isfinite(float(eps))

    @pytest.mark.parametrize("argv, named", [
        (["accountant", "--q", "0.1", "--sigma", "1", "--steps", "1e3", "--delta", "1e-5"],
         "argument --steps: invalid int value: '1e3'"),
        (["accountant", "--q", "abc", "--sigma", "1", "--steps", "10", "--delta", "1e-5"],
         "argument --q: invalid float value: 'abc'"),
        (["accountant", "--q", "0.1", "--sigma", "1", "--steps", "10"],
         "the following arguments are required: --delta"),
        (["nonsense", "--q", "0.1"], "invalid choice: 'nonsense'"),
    ], ids=["steps-1e3", "q-abc", "no-delta", "unknown-command"])
    def test_malformed_flags_exit_2_with_one_error_line(self, capsys, argv, named):
        assert main(argv) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: mlpriv") and captured.err.count("\n") == 1
        assert named in captured.err

    @pytest.mark.parametrize("argv", [["--help"], ["accountant", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: mlpriv")

    def test_one_parser_serves_every_call(self, capsys, monkeypatch):
        """main builds its parser once per process; a malformed command line
        in between leaves it parsing as before."""
        parsers = []
        parse_args = cli._Parser.parse_args

        def recording_parse_args(self, *args, **kwargs):
            parsers.append(self)
            return parse_args(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "parse_args", recording_parse_args)
        argv = ["accountant", "--q", "1.0", "--sigma", "4.0", "--steps", "1", "--delta", "1e-5"]
        assert main(argv) == EXIT_OK
        assert main(["accountant", "--q", "abc", "--steps", "1", "--delta", "1e-5"]) == EXIT_VALIDATION
        assert main(argv) == EXIT_OK
        assert len(parsers) == 3 and parsers[0] is parsers[1] is parsers[2]
        captured = capsys.readouterr()
        first, second = captured.out.splitlines()
        assert first == second
        assert captured.err.startswith("error: mlpriv") and captured.err.count("\n") == 1

    def test_steps_beyond_float_range_exits_2(self):
        assert main(["accountant", "--q", "0.1", "--sigma", "1.0",
                     "--steps", str(10**400), "--delta", "1e-5"]) == EXIT_VALIDATION

    @settings(max_examples=100, deadline=None)
    @given(
        q=fuzz_floats(0.0, 1.0),
        noise_flag=st.sampled_from(["--sigma", "--epsilon"]),
        noise=fuzz_floats(1e-3, 1e3),
        delta=fuzz_floats(0.0, 1.0),
        steps=st.integers(-1, 10**4) | st.just(10**400),
    )
    def test_fuzzed_inputs_exit_0_or_2(self, q, noise_flag, noise, delta, steps):
        argv = ["accountant", f"--q={q!r}", f"{noise_flag}={noise!r}",
                f"--steps={steps}", f"--delta={delta!r}"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (EXIT_OK, EXIT_VALIDATION)
        if code == EXIT_OK:
            assert len(out.getvalue().splitlines()) == 1


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

    @pytest.mark.parametrize("name, text, named", [
        ("theorem2", "tol = 1e-6", "unknown key 'tol'"),
        ("fig2-correlation", "threshold = 0.5", "unknown key 'threshold'"),
        ("theorem1", "loo_noise_seeds = 2", "unknown key 'loo_noise_seeds'"),
        ("theorem1", "seeds = 1,,2", "exp.cfg:1: bad value for seeds"),
        ("theorem1", "seeds = 0\nmagnitude = nan", "magnitude"),
        ("theorem1", "seeds = 0\nmagnitude = inf", "magnitude"),
        ("theorem2", "total_steps = 40", "total_steps = 40"),  # inside the trainer's warmup
        ("theorem2", "total_steps = 80", "total_steps = 80"),  # before the first checkpoint
        # at the first checkpoint, whose learning rate is 0: all-zero influence
        ("theorem2", "total_steps = 100", "total_steps = 100 must run past the first checkpoint"),
        # a repeated seed would count its rows twice in the summary
        ("theorem1", "seeds = 3,1,3", "error: seed 3 is repeated in seeds\n"),
        ("fig2-correlation", "seeds = 3,1,3", "error: seed 3 is repeated in seeds\n"),
        # an empty value is the empty list, which the experiment itself rejects
        ("theorem1", "seeds =", "error: need at least one seed\n"),
        ("fig2-correlation", "seeds = ", "error: need at least one seed\n"),
        ("theorem1", "seeds = 0,,1", "exp.cfg:1: bad value for seeds: item 2 of '0,,1' is empty\n"),
        ("theorem1", "seeds = 0,", "exp.cfg:1: bad value for seeds: item 2 of '0,' is empty\n"),
    ], ids=["tol", "threshold", "loo_noise_seeds", "empty_seed", "magnitude_nan", "magnitude_inf",
            "total_steps_40", "total_steps_80", "total_steps_100", "repeated_seed_theorem1",
            "repeated_seed_fig2", "no_seeds_theorem1", "no_seeds_fig2", "empty_middle_seed",
            "empty_last_seed"])
    def test_malformed_config_exits_2_naming_the_key(self, tmp_path, capsys, name, text, named):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text + "\n")
        code = main(["experiment", name, "--config", str(cfg), "--out", str(tmp_path / "exp")])
        assert code == EXIT_VALIDATION
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("name, text, examples, batch", [
        ("theorem2", "tuples = 5\nnum_languages = 2", 10, 32),
        ("theorem1", "seeds = 0\ntuples = 3", 12, 16),
    ], ids=["theorem2", "theorem1"])
    def test_batch_larger_than_dataset_exits_2_naming_both_sizes(self, tmp_path, capsys, name,
                                                                   text, examples, batch):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text + "\n")
        code = main(["experiment", name, "--config", str(cfg), "--out", str(tmp_path / "exp")])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"error: the batch size {batch} exceeds the {examples} examples of "
            "tuples x num_languages\n"
        )

    @staticmethod
    def theorem1_summary(rows):
        """The verdict and summary of theorem1 from its CSV rows: per sigma, the
        median margin and, when the rows have epsilon_i, the median of its
        non-empty cells (nan when none); the margins must fall as sigma grows."""
        summary = {}
        for key in ("margin", "epsilon_i"):
            if key in rows[0]:
                for sigma in experiments.THEOREM1_SIGMAS:
                    cells = [float(r[key]) for r in rows if float(r["sigma"]) == sigma and r[key]]
                    summary[f"median_{key}_sigma_{sigma}"] = (
                        float(np.median(cells)) if cells else math.nan)
        margins = [summary[f"median_margin_sigma_{s}"] for s in experiments.THEOREM1_SIGMAS]
        return all(a > b for a, b in zip(margins, margins[1:])), summary

    @staticmethod
    def fig2_summary(rows):
        """The verdict and summary of fig2-correlation from its CSV rows: the
        Pearson r of retrieval and infu over every row, and the row count."""
        r = float(np.corrcoef([float(row["retrieval"]) for row in rows],
                              [float(row["infu"]) for row in rows])[0, 1])
        return r >= experiments.FIG2_THRESHOLD, {"pearson_r": r, "points": len(rows)}

    @pytest.mark.parametrize("name, config", [
        ("theorem1", dict(seeds="0,1", tuples=8, total_steps=120)),
        ("theorem1", dict(seeds="0,1", tuples=8, total_steps=120, include_loo="false")),
        # seed 5's sigma = 2 cell has no epsilon_i, so that median is nan
        ("theorem1", dict(seeds="5", tuples=8, total_steps=120)),
        ("fig2-correlation", dict(seeds="0")),
    ], ids=["theorem1", "theorem1-no-loo", "theorem1-undefined-epsilon_i", "fig2-correlation"])
    def test_summary_is_a_function_of_the_written_rows(self, tmp_path, name, config):
        """Every value in <name>.summary.csv, verdict included, equals the one
        recomputed from the rows in <name>.csv alone, written as str()."""
        cfg = write_config(tmp_path / "exp.cfg", **config)
        out = tmp_path / "exp"
        code = main(["experiment", name, "--config", cfg, "--out", str(out)])
        with (out / f"{name}.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        with (out / f"{name}.summary.csv").open(newline="") as fh:
            written = list(csv.reader(fh))
        recompute = self.theorem1_summary if name == "theorem1" else self.fig2_summary
        passed, summary = recompute(rows)
        assert code == (EXIT_OK if passed else EXIT_CRITERION)
        assert written == [["key", "value"], ["verdict", "pass" if passed else "fail"],
                           *([key, str(value)] for key, value in summary.items())]

    # a sample config value of each experiment parameter, and the value it parses to
    EXPERIMENT_VALUES = {
        "seeds": ("4,5", [4, 5]),
        "num_languages": ("3", 3),
        "tuples": ("7", 7),
        "dim": ("5", 5),
        "classes": ("4", 4),
        "magnitude": ("2.5", 2.5),
        "total_steps": ("150", 150),
        "batch_size": ("8", 8),
        "base_lr": ("0.25", 0.25),
        "seed": ("9", 9),
        "include_loo": ("false", False),
    }

    @staticmethod
    def record_calls(monkeypatch, name):
        """Swap the experiment for a recorder with its signature; returns the
        list of keyword dicts it is called with."""
        run, calls = experiments.EXPERIMENTS[name], []

        @functools.wraps(run)
        def recorder(**kwargs):
            calls.append(kwargs)
            return experiments.ExperimentResult(name, True, {}, [])

        monkeypatch.setitem(experiments.EXPERIMENTS, name, recorder)
        return calls

    @pytest.mark.parametrize("name, key", [
        (name, key) for name, run in experiments.EXPERIMENTS.items()
        for key in inspect.signature(run).parameters
    ])
    def test_own_parameter_is_passed_through_typed(self, tmp_path, monkeypatch, name, key):
        calls = self.record_calls(monkeypatch, name)
        text, value = self.EXPERIMENT_VALUES[key]
        cfg = write_config(tmp_path / "exp.cfg", **{key: text})
        assert main(["experiment", name, "--config", cfg, "--out", str(tmp_path / "exp")]) == EXIT_OK
        assert calls == [{key: value}]
        assert type(calls[0][key]) is type(value)

    @pytest.mark.parametrize("name, key", [
        (name, key) for name, run in experiments.EXPERIMENTS.items()
        for key in EXPERIMENT_KEYS - inspect.signature(run).parameters.keys()
    ])
    def test_parameter_of_another_experiment_is_an_unknown_key(self, tmp_path, capsys,
                                                               monkeypatch, name, key):
        """Each experiment's config is read against its own parameters alone."""
        calls = self.record_calls(monkeypatch, name)
        cfg = write_config(tmp_path / "exp.cfg", **{key: self.EXPERIMENT_VALUES[key][0]})
        capsys.readouterr()
        code = main(["experiment", name, "--config", cfg, "--out", str(tmp_path / "exp")])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {cfg}:1: unknown key {key!r}\n"
        assert calls == [] and not (tmp_path / "exp").exists()

    EXPERIMENT_FUZZ = {
        "seeds": st.sampled_from(["0", "1", "2,3"]),
        "num_languages": as_text(st.integers(2, 4)),
        "tuples": as_text(st.integers(6, 12)),
        "dim": as_text(st.integers(2, 6)),
        "classes": as_text(st.integers(2, 4)),
        "magnitude": as_text(st.floats(0.0, 10.0)),
        # past the trainer's default warmup (50 steps) and first checkpoint (100)
        "total_steps": as_text(st.integers(101, 130)),
        "batch_size": as_text(st.integers(1, 40)),
        "base_lr": as_text(st.floats(1e-3, 1.0)),
        "seed": as_text(st.integers(0, 2**64)),
        "include_loo": st.sampled_from(["true", "false"]),
    }

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # constant or diverging series
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_fuzzed_config_exit_code_is_documented(self, tmp_path_factory, data):
        assert self.EXPERIMENT_FUZZ.keys() == EXPERIMENT_KEYS == self.EXPERIMENT_VALUES.keys()
        name = data.draw(st.sampled_from(list(experiments.EXPERIMENTS)), label="name")
        accepted = inspect.signature(experiments.EXPERIMENTS[name]).parameters
        fields = {k: v for k, v in self.EXPERIMENT_FUZZ.items() if k in accepted}
        # the default seeds, sizes and step counts take seconds: always set them
        values = fuzz_config(data, fields, required=[k for k in ("seeds", "tuples", "total_steps")
                                                     if k in fields],
                             bad_keys=EXPERIMENT_KEYS, may_drop_required=False)
        cfg = write_config(tmp_path_factory.mktemp("exp") / "exp.cfg", **values)
        code, err = run_quietly(["experiment", name, "--config", cfg,
                                 "--out", str(Path(cfg).parent / "out")])
        assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_DIVERGENCE, EXIT_CRITERION)
        assert (code in (EXIT_OK, EXIT_CRITERION)) == (err == "")

    def test_unknown_name_exits_2(self, tmp_path, capsys):
        code = main(["experiment", "nonsense", "--out", str(tmp_path / "exp")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "'nonsense'" in err
        assert "choose from ('theorem1', 'theorem2', 'fig2-correlation')" in err

    def test_failed_criterion_exits_4(self, tmp_path, monkeypatch):
        def fake(**kwargs):
            return experiments.ExperimentResult("theorem2", False, {"x": 1.0}, [])

        monkeypatch.setitem(experiments.EXPERIMENTS, "theorem2", fake)
        out = tmp_path / "exp"
        code = main(["experiment", "theorem2", "--out", str(out)])
        assert code == EXIT_CRITERION
        assert (out / "theorem2.csv").read_bytes() == b""  # no rows: an empty table
        assert (out / "theorem2.summary.csv").read_bytes() == \
            b"key,value\r\nverdict,fail\r\nx,1.0\r\n"


def csv_bytes(header, rows):
    """A text table as the CLI writes it: comma-joined fields, CRLF line ends."""
    return "".join(",".join(map(str, line)) + "\r\n" for line in [header, *rows]).encode()


def g17(value):
    return format(value, ".17g")


class TestTextTables:
    def test_pipeline_tables_are_byte_exact(self, tmp_path):
        """synth -> metrics -> train -> influence -> experiment theorem2: each CSV
        equals the table built here from the library's own results, floats as
        .17g and experiment rows and summaries as str()."""
        cfg = write_config(tmp_path / "synth.cfg", num_languages=3, tuples=8, dim=4, classes=2,
                           compression=0.5, seed=1)
        data = tmp_path / "data"
        assert main(["synth", "--config", cfg, "--out", str(data)]) == EXIT_OK
        features = read_embeddings(data / "features.emb")
        labels, tags = zip(*(line.split("\t")
                             for line in (data / "labels.tsv").read_text().splitlines()))
        dataset = LabeledDataset(features=features, labels=np.array([int(v) for v in labels]),
                                 languages=tags)
        languages = ["L00", "L01", "L02"]

        # metrics, from a manifest moved to layer 2
        manifest = data / "manifest.tsv"
        manifest.write_text(manifest.read_text().replace("\t0\t", "\t2\t"))
        assert main(["metrics", "--manifest", str(manifest), "--layer", "2",
                     "--out", str(tmp_path / "m.csv")]) == EXIT_OK
        embedding_set = load_set(Manifest.read(manifest), 2)
        for name in ("retrieval", "cka", "rsa", "isoscore"):
            report = pairwise_report(embedding_set, name)
            rows = [[name, a, b, 2, g17(v)] for (a, b), v in sorted(report.per_pair.items())]
            rows.append([name, "ALL", "ALL", 2, g17(report.aggregate)])
            assert (tmp_path / f"m_{name}.csv").read_bytes() == csv_bytes(
                ["metric", "lang_a", "lang_b", "layer", "value"], rows)

        # train: the per-step log and the evaluation
        cfg = write_config(tmp_path / "train.cfg", base_lr=0.1, total_steps=300, batch_size=8,
                           seed=0, noise_multiplier=0.5, hidden_dim=2)
        run = tmp_path / "run"
        assert main(["train", "--config", cfg, "--data", str(data), "--out", str(run)]) == EXIT_OK
        model = ModelSpec(input_dim=4, hidden_dim=2, num_classes=2)
        result = train(dataset, model, TrainConfig(base_lr=0.1, total_steps=300, batch_size=8,
                                                   seed=0, noise_multiplier=0.5))
        assert (run / "train_log.csv").read_bytes() == csv_bytes(
            ["step", "lr", "loss", "accuracy"],
            [[step, g17(lr), g17(loss), g17(acc)] for step, (lr, loss, acc)
             in enumerate(zip(result.lrs, result.losses, result.accuracies), 1)])
        accuracy, per_language = evaluate(result.theta, model, dataset)
        variance, gap = linguistic_fairness_gap(per_language)
        assert list(per_language) == languages
        assert (run / "eval.csv").read_bytes() == csv_bytes(["key", "value"], [
            ["sigma", "0.5"], ["accuracy", g17(accuracy)],
            *([f"loss_{lang}", g17(loss)] for lang, loss in per_language.items()),
            ["fairness_variance", g17(variance)], ["fairness_gap", g17(gap)],
        ])

        # influence over the last two of the three checkpoints
        out = tmp_path / "influence.csv"
        assert main(["influence", "--checkpoints", str(run), "--data", str(data), "--out", str(out),
                     "--last", "2", "--hidden-dim", "2"]) == EXIT_OK
        rows = []
        for prof in influence_profiles(dataset, CheckpointSet.last_k(result.checkpoints, 2), model):
            rows += [[prof.tuple_index, anchor, target, g17(prof.scores[k, j])]
                     for k, anchor in enumerate(languages) for j, target in enumerate(languages)]
            rows.append([prof.tuple_index, "ALL", "ALL", g17(prof.infu)])
        assert out.read_bytes() == csv_bytes(["tuple_index", "anchor_lang", "target_lang", "score"],
                                             rows)

        # experiment: rows and summary values as str(), so sigma = 0.0 stays 0.0
        cfg = write_config(tmp_path / "exp.cfg", tuples=20, total_steps=120)
        assert main(["experiment", "theorem2", "--config", cfg,
                     "--out", str(tmp_path / "exp")]) == EXIT_OK
        outcome = experiments.run_theorem2(tuples=20, total_steps=120)
        header = list(outcome.rows[0])
        assert (tmp_path / "exp" / "theorem2.csv").read_bytes() == csv_bytes(
            header, [[str(row[key]) for key in header] for row in outcome.rows])
        summary = (tmp_path / "exp" / "theorem2.summary.csv").read_bytes()
        assert summary == csv_bytes(["key", "value"], [
            ["verdict", "pass"], *([key, str(value)] for key, value in outcome.summary.items())])
        assert b"\r\nloss_variance,0.0\r\n" in summary
