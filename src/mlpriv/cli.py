"""Command-line surface: metrics, train, influence, accountant, synth, experiment.

Exit codes: 0 success, 2 validation error, 3 training divergence,
4 experiment criterion failed. Config files are flat ``key = value`` text;
unknown keys are rejected.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import inspect
import math
import sys
from pathlib import Path

import numpy as np

from . import accountant, experiments, metrics
from .errors import DivergenceError, MlprivError
from .influence import CheckpointSet, influence_profiles, write_influence_csv
from .repr_store import Manifest, load_set, read_embeddings, write_embeddings
from .synth import SynthSpec, gen_classification_data, gen_parallel_set
from .trainer import (
    LabeledDataset,
    ModelSpec,
    TrainConfig,
    evaluate,
    read_checkpoint,
    train,
    write_checkpoint,
    write_training_log,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DIVERGENCE = 3
EXIT_CRITERION = 4


class ConfigError(MlprivError):
    pass


def _parse_value(raw: str, target_type):
    raw = raw.strip()
    if target_type is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"cannot parse {raw!r} as bool")
    if target_type is float:
        if raw.lower() in ("inf", "infinity"):
            return math.inf
        return float(raw)
    return target_type(raw)


def read_config(path: Path | str, schema: dict[str, type]) -> dict:
    """Parse a flat key = value config file against a typed key schema."""
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in schema:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _parse_value(value, schema[key])
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _from_config(cls, values: dict, path):
    """cls(**values), once every field without a default is set."""
    missing = [f.name for f in dataclasses.fields(cls)
               if f.default is dataclasses.MISSING and f.name not in values]
    if missing:
        raise ConfigError(f"{path}: must set {', '.join(missing)}")
    return cls(**values)


TRAIN_SCHEMA = {
    "base_lr": float,
    "total_steps": int,
    "batch_size": int,
    "seed": int,
    "warmup_steps": int,
    "clip_threshold": float,
    "noise_multiplier": float,
    "weight_decay": float,
    "optimizer": str,
    "checkpoint_interval": int,
    "target_epsilon": float,
    "delta": float,
    "hidden_dim": int,
    "num_classes": int,
}

SYNTH_SCHEMA = {
    "num_languages": int,
    "tuples": int,
    "dim": int,
    "classes": int,
    "compression": float,
    "noise_scale": float,
    "seed": int,
}

EXPERIMENT_SCHEMA = {
    "seeds": str,  # comma-separated list
    "num_languages": int,
    "tuples": int,
    "dim": int,
    "classes": int,
    "magnitude": float,
    "total_steps": int,
    "batch_size": int,
    "base_lr": float,
    "seed": int,
    "include_loo": bool,
}

# `mlpriv train` records the model it trained next to its checkpoints, so
# `mlpriv influence` need not guess the class count from the labels
MODEL_FILE = "model.cfg"
MODEL_SCHEMA = {
    "hidden_dim": int,
    "num_classes": int,
}


def _write_labels(path: Path, dataset: LabeledDataset) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for label, lang in zip(dataset.labels, dataset.languages):
            fh.write(f"{label}\t{lang}\n")


def _read_labels(path: Path) -> tuple[np.ndarray, tuple[str, ...]]:
    labels = []
    tags = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        label, tag = line.split("\t")
        labels.append(int(label))
        tags.append(tag)
    return np.array(labels, dtype=np.int64), tuple(tags)


def _load_dataset(data_dir: Path) -> LabeledDataset:
    features = read_embeddings(data_dir / "features.emb")
    labels, tags = _read_labels(data_dir / "labels.tsv")
    return LabeledDataset(features=features, labels=labels, languages=tags)


def cmd_metrics(args) -> int:
    manifest = Manifest.read(args.manifest)
    embedding_set = load_set(manifest, args.layer)
    out = Path(args.out)
    requested = args.metrics.split(",")
    for name in requested:
        report = metrics.pairwise_report(embedding_set, name.strip())
        target = out if len(requested) == 1 else out.with_name(f"{out.stem}_{name}{out.suffix}")
        report.write_csv(target)
        print(f"{name}: aggregate = {report.aggregate:.6f} -> {target}")
    return EXIT_OK


def cmd_synth(args) -> int:
    values = read_config(args.config, SYNTH_SCHEMA)
    spec = _from_config(SynthSpec, values, args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    embedding_set, _ = gen_parallel_set(spec)
    manifest = Manifest()
    for lang, matrix in zip(embedding_set.languages, embedding_set.matrices):
        write_embeddings(out / f"{lang}.emb", matrix)
        manifest.add(lang, embedding_set.layer, f"{lang}.emb")  # relative to the manifest
    manifest.write(out / "manifest.tsv")
    dataset = gen_classification_data(spec)
    write_embeddings(out / "features.emb", dataset.features)
    _write_labels(out / "labels.tsv", dataset)
    print(f"wrote {len(embedding_set.languages)} languages, {len(dataset)} examples -> {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    values = read_config(args.config, TRAIN_SCHEMA)
    hidden_dim = values.pop("hidden_dim", 0)
    num_classes = values.pop("num_classes", None)
    data_dir = Path(args.data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataset = _load_dataset(data_dir)
    if num_classes is None:
        num_classes = int(dataset.labels.max()) + 1
    model = ModelSpec(
        input_dim=dataset.features.shape[1], hidden_dim=hidden_dim, num_classes=num_classes
    )
    config = _from_config(TrainConfig, values, args.config)
    result = train(dataset, model, config)
    print(f"sigma = {result.sigma}")
    for ckpt in result.checkpoints:
        write_checkpoint(out / f"ckpt_{ckpt.step:06d}.ckpt", ckpt)
    (out / MODEL_FILE).write_text(
        "".join(f"{key} = {getattr(model, key)}\n" for key in MODEL_SCHEMA), encoding="utf-8"
    )
    write_training_log(out / "train_log.csv", result.log)
    accuracy, per_language = evaluate(result.theta, model, dataset)
    variance, gap = metrics.linguistic_fairness_gap(per_language)
    with open(out / "eval.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["key", "value"])
        writer.writerow(["sigma", format(result.sigma, ".17g")])
        writer.writerow(["accuracy", format(accuracy, ".17g")])
        for lang, loss in per_language.items():
            writer.writerow([f"loss_{lang}", format(loss, ".17g")])
        writer.writerow(["fairness_variance", format(variance, ".17g")])
        writer.writerow(["fairness_gap", format(gap, ".17g")])
    print(f"accuracy = {accuracy:.4f}, fairness gap = {gap:.6f} -> {out}")
    return EXIT_OK


def cmd_influence(args) -> int:
    ckpt_paths = sorted(Path(args.checkpoints).glob("*.ckpt"))
    if not ckpt_paths:
        raise ConfigError(f"no checkpoints in {args.checkpoints}")
    checkpoints = [read_checkpoint(p) for p in ckpt_paths]
    cks = CheckpointSet.last_k(checkpoints, args.last)
    dataset = _load_dataset(Path(args.data))
    num_classes = int(dataset.labels.max()) + 1
    record = Path(args.checkpoints) / MODEL_FILE
    if record.exists():
        trained = read_config(record, MODEL_SCHEMA)
        if trained.keys() != MODEL_SCHEMA.keys():
            raise ConfigError(f"{record}: must set {' and '.join(MODEL_SCHEMA)}")
        if trained["hidden_dim"] != args.hidden_dim:
            raise ConfigError(
                f"--hidden-dim {args.hidden_dim} does not match the trained model's "
                f"hidden_dim {trained['hidden_dim']} ({record})"
            )
        num_classes = trained["num_classes"]
    model = ModelSpec(
        input_dim=dataset.features.shape[1], hidden_dim=args.hidden_dim, num_classes=num_classes
    )
    if cks.checkpoints[0].theta.size != model.num_params:
        raise ConfigError("checkpoint parameter count does not match the dataset model")
    profiles = influence_profiles(dataset, cks, model)
    write_influence_csv(args.out, profiles, list(dict.fromkeys(dataset.languages)))
    print(f"wrote {len(profiles)} influence profiles -> {args.out}")
    return EXIT_OK


def cmd_accountant(args) -> int:
    if (args.sigma is None) == (args.epsilon is None):
        raise ConfigError("pass exactly one of --sigma or --epsilon")
    if args.sigma is not None:
        spending = accountant.epsilon_for(args.q, args.sigma, args.steps, args.delta)
        print(f"{spending.epsilon},{spending.best_order}")
    else:
        sigma = accountant.sigma_for(args.epsilon, args.q, args.steps, args.delta)
        print(sigma)
    return EXIT_OK


def cmd_experiment(args) -> int:
    if args.name not in experiments.EXPERIMENT_NAMES:
        raise ConfigError(f"unknown experiment {args.name!r}; choose from {experiments.EXPERIMENT_NAMES}")
    kwargs = {}
    if args.config:
        values = read_config(args.config, EXPERIMENT_SCHEMA)
        accepted = inspect.signature(experiments.EXPERIMENTS[args.name]).parameters
        unknown = [key for key in values if key not in accepted]
        if unknown:
            raise ConfigError(f"{args.config}: {args.name} does not take {', '.join(unknown)}")
        if "seeds" in values:
            values["seeds"] = [int(s) for s in values["seeds"].split(",")]
        kwargs = values
    result = experiments.run_experiment(args.name, **kwargs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result.write_csv(out / f"{args.name}.csv")
    print(f"{args.name}: {'pass' if result.passed else 'fail'}")
    for key, value in result.summary.items():
        print(f"  {key} = {value}")
    return EXIT_OK if result.passed else EXIT_CRITERION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlpriv",
        description="Multilingual compression metrics, DP training, and influence analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("metrics", help="compute compression metrics from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--layer", type=int, default=0)
    p.add_argument("--metrics", default="retrieval,cka,rsa,isoscore",
                   help="comma-separated: retrieval,cka,rsa,isoscore")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("synth", help="generate a synthetic parallel dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train the desk-scale classifier with DP-SGD mechanics")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("influence", help="influence profiles from saved checkpoints")
    p.add_argument("--checkpoints", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--last", type=int, default=3, help="use the last K checkpoints")
    p.add_argument("--hidden-dim", type=int, default=0, dest="hidden_dim")
    p.set_defaults(func=cmd_influence)

    p = sub.add_parser("accountant", help="Renyi-DP accounting for subsampled Gaussians")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--sigma", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.set_defaults(func=cmd_accountant)

    p = sub.add_parser("experiment", help="run a named acceptance experiment")
    p.add_argument("name")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (MlprivError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
