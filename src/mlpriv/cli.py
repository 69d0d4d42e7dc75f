"""Command-line surface: metrics, train, influence, accountant, synth, experiment.

Exit codes: 0 success, 2 validation error (a malformed command line
included), 3 training divergence, 4 experiment criterion failed. Config
files are flat ``key = value`` text; unknown keys are rejected. A train
config's keys are ``TrainConfig``'s fields plus the model keys, a synth
config's are ``SynthSpec``'s fields, and an experiment config's are the
experiment function's parameters.

This module owns the text formats: the library computes, and every CSV table
the commands write goes through ``_write_csv``, floats as ``.17g``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import inspect
import sys
import typing
from pathlib import Path

import numpy as np

from . import accountant, experiments, metrics
from .errors import DivergenceError, FormatError, MlprivError, UnknownNameError
from .influence import CheckpointSet, influence_profiles
from .repr_store import Manifest, load_set, read_embeddings, write_embeddings
from .synth import SynthSpec, _flatten, gen_parallel_set
from .trainer import (
    LabeledDataset,
    ModelSpec,
    TrainConfig,
    evaluate,
    read_checkpoint,
    train,
    write_checkpoint,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DIVERGENCE = 3
EXIT_CRITERION = 4


class ConfigError(MlprivError):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a malformed command line as a
    ConfigError, so ``main`` prints one ``error:`` line and exits 2."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _parse_value(raw: str, target_type):
    raw = raw.strip()
    if target_type is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"cannot parse {raw!r} as bool")
    if typing.get_origin(target_type) is list:  # comma-separated; an empty value is []
        item_type, = typing.get_args(target_type)
        items = raw.split(",") if raw else []
        for k, item in enumerate(items, 1):
            if not item.strip():
                raise ConfigError(f"item {k} of {raw!r} is empty")
        return [_parse_value(item, item_type) for item in items]
    return target_type(raw)


def read_config(path: Path | str, schema: dict[str, type]) -> dict:
    """Parse a flat key = value config file, each key set once, against a typed key schema."""
    values: dict = {}
    set_on: dict[str, int] = {}
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
        if key in set_on:
            raise ConfigError(f"{path}:{lineno}: {key!r} is already set on line {set_on[key]}")
        set_on[key] = lineno
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


def _schema(source) -> dict[str, type]:
    """Config key -> type, read from the annotations of source's parameters:
    a dataclass's fields or a function's; ``T | None`` reads as T."""
    hints = typing.get_type_hints(source)
    schema: dict[str, type] = {}
    for name in inspect.signature(source).parameters:
        kind = hints[name]
        if type(None) in typing.get_args(kind):
            kind, = [arg for arg in typing.get_args(kind) if arg is not type(None)]
        schema[name] = kind
    return schema


# `mlpriv train` records the model it trained next to its checkpoints, so
# `mlpriv influence` need not guess the class count from the labels
MODEL_FILE = "model.cfg"
MODEL_SCHEMA = {
    "hidden_dim": int,
    "num_classes": int,
}

TRAIN_SCHEMA = {**_schema(TrainConfig), **MODEL_SCHEMA}
SYNTH_SCHEMA = _schema(SynthSpec)


def _write_csv(path: Path | str, header: list[str], rows) -> None:
    """A CSV table: the header line (none when it is empty), then one line per
    row; a float field is written as ``.17g``, which round-trips exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow(header)
        writer.writerows([format(v, ".17g") if isinstance(v, float) else v for v in row]
                         for row in rows)


def _write_labels(path: Path, dataset: LabeledDataset) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for label, lang in zip(dataset.labels, dataset.languages):
            fh.write(f"{label}\t{lang}\n")


def _read_labels(path: Path) -> tuple[np.ndarray, tuple[str, ...]]:
    labels = []
    tags = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            label, tag = line.split("\t")
            labels.append(int(label))
        except ValueError:
            raise FormatError(
                f"{path}:{lineno}: expected an integer label, a tab and a language"
            ) from None
        tags.append(tag)
    return np.array(labels, dtype=np.int64), tuple(tags)


def _load_dataset(data_dir: Path) -> LabeledDataset:
    features_path, labels_path = data_dir / "features.emb", data_dir / "labels.tsv"
    features = read_embeddings(features_path)
    labels, tags = _read_labels(labels_path)
    if len(labels) != len(features):
        raise FormatError(
            f"{labels_path} holds {len(labels)} labels but {features_path} has {len(features)} rows"
        )
    return LabeledDataset(features=features, labels=labels, languages=tags)


def cmd_metrics(args) -> int:
    requested = [name.strip() for name in args.metrics.split(",")]
    for name in requested:  # every name, before any file is read or written
        if name not in metrics.METRIC_NAMES:
            raise UnknownNameError(f"unknown metric {name!r}; choose from {metrics.METRIC_NAMES}")
    manifest = Manifest.read(args.manifest)
    embedding_set = load_set(manifest, args.layer)
    out = Path(args.out)
    for name in requested:
        report = metrics.pairwise_report(embedding_set, name)
        target = out if len(requested) == 1 else out.with_name(f"{out.stem}_{name}{out.suffix}")
        rows = [[name, a, b, report.layer, v] for (a, b), v in sorted(report.per_pair.items())]
        rows.append([name, "ALL", "ALL", report.layer, report.aggregate])
        _write_csv(target, ["metric", "lang_a", "lang_b", "layer", "value"], rows)
        print(f"{name}: aggregate = {report.aggregate:.6f} -> {target}")
    return EXIT_OK


def cmd_synth(args) -> int:
    values = read_config(args.config, SYNTH_SCHEMA)
    spec = _from_config(SynthSpec, values, args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    embedding_set, labels = gen_parallel_set(spec)
    manifest = Manifest()
    for lang, matrix in zip(embedding_set.languages, embedding_set.matrices):
        write_embeddings(out / f"{lang}.emb", matrix)
        manifest.add(lang, embedding_set.layer, f"{lang}.emb")  # relative to the manifest
    manifest.write(out / "manifest.tsv")
    dataset = _flatten(embedding_set, labels)
    write_embeddings(out / "features.emb", dataset.features)
    _write_labels(out / "labels.tsv", dataset)
    print(f"wrote {len(embedding_set.languages)} languages, {len(dataset)} examples -> {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    values = read_config(args.config, TRAIN_SCHEMA)
    hidden_dim = values.pop("hidden_dim", 0)
    num_classes = values.pop("num_classes", None)
    config = _from_config(TrainConfig, values, args.config)  # before any file is read
    dataset = _load_dataset(Path(args.data))
    if num_classes is None:
        num_classes = int(dataset.labels.max()) + 1
    model = ModelSpec(
        input_dim=dataset.features.shape[1], hidden_dim=hidden_dim, num_classes=num_classes
    )
    result = train(dataset, model, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # only once training succeeded
    print(f"sigma = {result.sigma}")
    for ckpt in result.checkpoints:
        write_checkpoint(out / f"ckpt_{ckpt.step:06d}.ckpt", ckpt)
    (out / MODEL_FILE).write_text(
        "".join(f"{key} = {getattr(model, key)}\n" for key in MODEL_SCHEMA), encoding="utf-8"
    )
    _write_csv(out / "train_log.csv", ["step", "lr", "loss", "accuracy"], zip(
        range(1, len(result.lrs) + 1), result.lrs,
        result.losses.tolist(), result.accuracies.tolist(),
    ))
    accuracy, per_language = evaluate(result.theta, model, dataset)
    variance, gap = metrics.linguistic_fairness_gap(per_language)
    _write_csv(out / "eval.csv", ["key", "value"], [
        ["sigma", result.sigma],
        ["accuracy", accuracy],
        *([f"loss_{lang}", loss] for lang, loss in per_language.items()),
        ["fairness_variance", variance],
        ["fairness_gap", gap],
    ])
    print(f"accuracy = {accuracy:.4f}, fairness gap = {gap:.6f} -> {out}")
    return EXIT_OK


def cmd_influence(args) -> int:
    # in recorded step order, names breaking ties: `ckpt_1000000` sorts before `ckpt_999900`
    checkpoints = sorted(map(read_checkpoint, sorted(Path(args.checkpoints).glob("*.ckpt"))),
                         key=lambda ckpt: ckpt.step)
    if not checkpoints:
        raise ConfigError(f"no checkpoints in {args.checkpoints}")
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
    languages = list(dict.fromkeys(dataset.languages))
    rows = []
    for prof in profiles:  # per (anchor, target) score rows, then the tuple's InfU
        rows += [[prof.tuple_index, anchor, target, prof.scores[k, j]]
                 for k, anchor in enumerate(languages) for j, target in enumerate(languages)]
        rows.append([prof.tuple_index, "ALL", "ALL", prof.infu])
    _write_csv(args.out, ["tuple_index", "anchor_lang", "target_lang", "score"], rows)
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
    if args.name not in experiments.EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {args.name!r}; choose from {tuple(experiments.EXPERIMENTS)}"
        )
    run = experiments.EXPERIMENTS[args.name]
    result = run(**(read_config(args.config, _schema(run)) if args.config else {}))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # rows arrive formatted, and summary values are written as str(), not .17g
    header = list(result.rows[0]) if result.rows else []
    _write_csv(out / f"{args.name}.csv", header,
               [[str(row[key]) for key in header] for row in result.rows])
    _write_csv(out / f"{args.name}.summary.csv", ["key", "value"], [
        ["verdict", "pass" if result.passed else "fail"],
        *([key, str(value)] for key, value in result.summary.items()),
    ])
    print(f"{args.name}: {'pass' if result.passed else 'fail'}")
    for key, value in result.summary.items():
        print(f"  {key} = {value}")
    return EXIT_OK if result.passed else EXIT_CRITERION


@functools.cache  # built once per process; in-process callers run main many times
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mlpriv",
        description="Multilingual compression metrics, DP training, and influence analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("metrics", help="compute compression metrics from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--layer", type=int, default=0)
    p.add_argument("--metrics", default=",".join(metrics.METRIC_NAMES),
                   help=f"comma-separated: {','.join(metrics.METRIC_NAMES)}")
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
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (MlprivError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
