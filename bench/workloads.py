"""The benchmark's three workloads: inputs from a seed, operations, checks.

Each workload is a list of operations, each one top-level call into mlpriv
through its public API, run in the same order on every pass. Program
functions are looked up on their module at call time, so a traced pass sees
the tracer's wrappers. ``snapshot`` turns a pass's outputs into bytes that a
seeded rerun must reproduce exactly; ``verify`` checks the first pass against
the reference computations in ``oracles``.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from mlpriv import cli, experiments, influence, metrics, synth, trainer

import oracles as O

TOL = 1e-9


def close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def max_rel_gap(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return math.inf
    return float((np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))).max(initial=0.0))


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    ok: Callable[[Any], bool] = lambda value: True


@dataclass
class Workload:
    ops: list[Op]
    verify: Callable[[list], list[str]]
    workdir: Path

    def begin_pass(self) -> None:
        """Give the pass an empty output directory at a fixed path."""
        shutil.rmtree(self.workdir / "run", ignore_errors=True)
        (self.workdir / "run").mkdir(parents=True)

    def snapshot(self, values: list) -> bytes:
        """Digest of every output of a pass: returned values and written files."""
        h = hashlib.sha256()
        _feed(h, values)
        run = self.workdir / "run"
        for path in sorted(p for p in run.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(run)).encode())
            h.update(path.read_bytes())
        return h.digest()

    def keep_first_pass(self) -> None:
        """Move the first pass's files aside for ``verify``."""
        shutil.rmtree(self.workdir / "first", ignore_errors=True)
        (self.workdir / "run").rename(self.workdir / "first")


def _feed(h, obj) -> None:
    """Hash an output value canonically: floats by bits, arrays by bytes."""
    if isinstance(obj, np.ndarray):
        h.update(f"nd{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, float):
        h.update(b"f" + float(obj).hex().encode())
    elif isinstance(obj, (bool, int, str, type(None), np.generic)):
        h.update(f"{type(obj).__name__}:{obj!r}".encode())
    elif isinstance(obj, bytes):
        h.update(b"b" + obj)
    elif isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj, key=repr):
            _feed(h, key)
            _feed(h, obj[key])
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        _feed(h, {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)})
    elif isinstance(obj, BaseException):
        h.update(f"exc:{type(obj).__name__}:{obj}".encode())
    else:
        raise TypeError(f"cannot digest {type(obj).__name__}")


def _tuples(dataset, i: int, L: int):
    return [(dataset.features[i * L + q], int(dataset.labels[i * L + q])) for q in range(L)]


# ---------------------------------------------------------------------------
# theorem1-loo
# ---------------------------------------------------------------------------

# run_theorem1's default shape; its datasets are SynthSpec(compression=0.5)
# sets with an outlier planted by plant_outlier(seed + 10_000).
T1 = dict(num_languages=4, tuples=16, dim=8, classes=3, magnitude=6.0,
          total_steps=300, batch_size=16, base_lr=0.05, loo_noise_seeds=10,
          orthogonal=False)
# The experiment seeds are fixed: one seed's LOO shortlist holds 8 or 9
# examples (195 or 216 trainings), and a seed-drawn subset would turn that
# difference into run-to-run spread. --seed picks the LOO-exclusion probe.
T1_SEEDS = (0,)


def _t1_dataset(seed: int):
    spec = synth.SynthSpec(num_languages=T1["num_languages"], tuples=T1["tuples"],
                           dim=T1["dim"], classes=T1["classes"], compression=0.5, seed=seed)
    return synth.plant_outlier(synth.gen_classification_data(spec), magnitude=T1["magnitude"],
                               seed=seed + 10_000, orthogonal=T1["orthogonal"])


def theorem1_loo(seed: int, workdir: Path) -> Workload:
    datasets = {s: _t1_dataset(s) for s in T1_SEEDS}
    rng = np.random.default_rng(seed)
    probe_ds, _ = datasets[T1_SEEDS[0]]
    probe = dict(index=int(rng.integers(len(probe_ds))),
                 shift=10.0 * rng.standard_normal(probe_ds.features.shape[1]))

    def op(s):
        return lambda: experiments.run_theorem1(seeds=[s], include_loo=True)

    ops = [Op(f"run_theorem1[seed={s}]", op(s)) for s in T1_SEEDS]

    def verify(values):
        problems = []
        for s, result in zip(T1_SEEDS, values):
            problems += _verify_theorem1(s, datasets[s], result)
        problems += _verify_exclusion(probe_ds, **probe)
        return problems

    return Workload(ops, verify, workdir)


def _t1_config(seed: int, sigma: float) -> O.RefConfig:
    return O.RefConfig(base_lr=T1["base_lr"], total_steps=T1["total_steps"],
                       batch_size=T1["batch_size"], seed=seed, sigma=sigma)


def _verify_theorem1(seed: int, planted_set, result) -> list[str]:
    dataset, planted = planted_set
    X, y = dataset.features, dataset.labels
    L, d, c = T1["num_languages"], T1["dim"], T1["classes"]
    base = (planted // L) * L
    problems = []
    if [r["sigma"] for r in result.rows] != [0.0, 0.5, 2.0]:
        return [f"theorem1 seed {seed}: unexpected sigma grid {[r['sigma'] for r in result.rows]}"]
    for row in result.rows:
        sigma = row["sigma"]
        cfg = _t1_config(seed, sigma)
        noise_seeds = [None] if sigma == 0.0 else [seed * 1000 + j for j in range(T1["loo_noise_seeds"])]
        full = O.reference_train(X, y, 0, c, cfg, [(None, None)] + [(None, ns) for ns in noise_seeds])
        last3 = [(eta, th[0]) for _, eta, th in full.checkpoints[-3:]]

        # planted_influence_margin: max softmax of the planted anchor's scores
        scores = O.tracin_gram(last3, X[base:base + L], y[base:base + L], 0, c)[0]
        margin = float(O.softmax(scores[planted - base]).max())
        if not close(margin, float(row["margin"])):
            problems.append(f"theorem1 seed {seed} sigma {sigma}: margin {row['margin']} != oracle {margin!r}")

        # loo_margin: shortlist by self-influence, coupled LOO retrains
        event = (X[planted], int(y[planted]))
        p = float(O.event_probability(full.theta[1:], *event, d, 0, c).mean())
        self_inf = O.tracin_gram(last3, X, y, 0, c, groups=len(X))[:, 0, 0]
        ranked = sorted(((float(v), i) for i, v in enumerate(self_inf)), reverse=True)
        shortlist = sorted({i for _, i in ranked[:8]} | {planted})
        loo = O.reference_train(X, y, 0, c, cfg, [(i, ns) for i in shortlist for ns in noise_seeds])
        probs = O.event_probability(loo.theta, *event, d, 0, c).reshape(len(shortlist), -1).mean(axis=1)
        p_d, p_2 = sorted(float(v) for v in probs)[:2]
        expected = math.log((p - p_d) / (p - p_2)) if p > p_2 and p > p_d else None
        got = None if row["epsilon_i"] == "" else float(row["epsilon_i"])
        if (expected is None) != (got is None) or (got is not None and not close(got, expected)):
            problems.append(f"theorem1 seed {seed} sigma {sigma}: epsilon_i {got!r} != oracle {expected!r}")
    return problems


def _verify_exclusion(dataset, index: int, shift: np.ndarray) -> list[str]:
    """An excluded example cannot change a LOO run: move it and compare bits."""
    model = trainer.ModelSpec(input_dim=T1["dim"], hidden_dim=0, num_classes=T1["classes"])
    config = trainer.TrainConfig(base_lr=T1["base_lr"], total_steps=T1["total_steps"],
                                 batch_size=T1["batch_size"], seed=7, noise_multiplier=0.5)
    features = dataset.features.copy()
    features[index] += shift
    moved = trainer.LabeledDataset(features=features, labels=dataset.labels,
                                   languages=dataset.languages)
    a = trainer.train(dataset, model, config, exclude_index=index).theta
    b = trainer.train(moved, model, config, exclude_index=index).theta
    if a.tobytes() != b.tobytes():
        return [f"LOO run excluding example {index} changed when its features moved"]
    return []


# ---------------------------------------------------------------------------
# compression-sweep
# ---------------------------------------------------------------------------

LAMBDAS = (0.0, 0.25, 0.5, 0.75, 1.0)
SWEEP = dict(num_languages=4, tuples=120, dim=8, classes=2)
SWEEP_TRAIN = dict(base_lr=0.5, total_steps=480, batch_size=32, checkpoint_interval=30)
METRICS = ("retrieval", "cka", "rsa", "isoscore")


def compression_sweep(seed: int, workdir: Path) -> Workload:
    specs = [synth.SynthSpec(compression=lam, seed=seed, **SWEEP) for lam in LAMBDAS]
    model = trainer.ModelSpec(input_dim=SWEEP["dim"], hidden_dim=0, num_classes=SWEEP["classes"])
    config = trainer.TrainConfig(seed=seed, noise_multiplier=0.0, **SWEEP_TRAIN)
    L = SWEEP["num_languages"]

    def op(spec):
        def run():
            embedding_set, _ = synth.gen_parallel_set(spec)
            reports = [metrics.pairwise_report(embedding_set, name) for name in METRICS]
            dataset = synth.gen_classification_data(spec)
            result = trainer.train(dataset, model, config)
            cks = influence.CheckpointSet(tuple(result.checkpoints))
            profiles = [influence.influence_profile(i, _tuples(dataset, i, L), cks, model)
                        for i in range(spec.tuples)]
            return dict(matrices=embedding_set.matrices, reports=reports,
                        features=dataset.features, labels=dataset.labels,
                        theta=result.theta, checkpoints=result.checkpoints, profiles=profiles)
        return run

    ops = [Op(f"lambda={spec.compression}", op(spec)) for spec in specs]

    def verify(values):
        problems = []
        for spec, value in zip(specs, values):
            problems += _verify_sweep_point(spec.compression, value, seed)
        return problems

    return Workload(ops, verify, workdir)


def _verify_sweep_point(lam: float, value: dict, seed: int) -> list[str]:
    problems = []
    mats = value["matrices"]
    c = SWEEP["classes"]
    for report in value["reports"]:
        if report.metric == "isoscore":
            expected = {(): O.isoscore(np.vstack(mats))}
            got = {(): report.aggregate}
        else:
            oracle = O.pairwise(report.metric, list(mats))
            expected = {(f"L{a:02d}", f"L{b:02d}"): v for (a, b), v in oracle.items()}
            got = dict(report.per_pair)
            expected["ALL"] = float(np.mean(list(oracle.values())))
            got["ALL"] = report.aggregate
            if lam == 1.0 and not close(report.aggregate, 1.0):
                problems.append(f"lambda=1: {report.metric} aggregate {report.aggregate!r} is not 1")
        bad = [k for k in expected if k not in got or not close(got[k], expected[k])]
        if bad:
            problems.append(f"lambda={lam}: {report.metric} differs from oracle at {bad[:3]}")

    cfg = O.RefConfig(seed=seed, **SWEEP_TRAIN)
    ref = O.reference_train(value["features"], value["labels"], 0, c, cfg)
    ckpt_gap = max((max_rel_gap(th[0], ck.theta) for (_, _, th), ck in zip(ref.checkpoints, value["checkpoints"])),
                   default=math.inf)
    if len(ref.checkpoints) != len(value["checkpoints"]) or ckpt_gap > TOL \
            or max_rel_gap(ref.theta[0], value["theta"]) > TOL:
        problems.append(f"lambda={lam}: training differs from the reference loop (gap {ckpt_gap:.3g})")

    cks = [(ck.eta, ck.theta) for ck in value["checkpoints"]]
    grams = O.tracin_gram(cks, value["features"], value["labels"], 0, c, groups=SWEEP["tuples"])
    scores = np.stack([p.scores for p in value["profiles"]])
    infus = np.array([p.infu for p in value["profiles"]])
    if max_rel_gap(scores, grams) > TOL or max_rel_gap(infus, O.infu(grams)) > TOL:
        problems.append(f"lambda={lam}: influence profiles differ from the closed-form Grams")
    if lam == 1.0 and np.abs(infus - 1.0).max() > TOL:
        problems.append(f"lambda=1: InfU {infus.min()!r} is not 1 for every tuple")
    return problems


# ---------------------------------------------------------------------------
# dp-cli-pipeline
# ---------------------------------------------------------------------------

CLI_SYNTH = dict(num_languages=4, tuples=60, dim=8, classes=3, compression=0.5)
CLI_TRAIN = dict(base_lr=0.05, total_steps=1500, batch_size=32, warmup_steps=50,
                 clip_threshold=1.0, optimizer="adamw", checkpoint_interval=150,
                 target_epsilon=4.0, delta=1e-5)
HIDDEN = 16
LAST = 3
ACCOUNTANT_STEPS, ACCOUNTANT_DELTA = 1000, 1e-5
FORWARD = [(q, s) for q in (0.01, 0.05) for s in (0.8, 1.5, 3.0)]
INVERSE = [(q, e) for q in (0.01, 0.05) for e in (1.0, 4.0)]


@dataclass
class Invocation:
    code: int
    out: str
    err: str


def _invoke(argv: list[str]) -> Invocation:
    """Run ``mlpriv`` in-process; an exception that escapes it propagates."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return Invocation(code, out.getvalue(), err.getvalue())


def _succeeded(inv: Invocation) -> bool:
    return inv.code == 0


def _rejected(inv: Invocation) -> bool:
    """A malformed input is handled: exit 2 with one ``error:`` line."""
    lines = inv.err.splitlines()
    return inv.code == 2 and len(lines) == 1 and lines[0].startswith("error:")


def _write_config(path: Path, values: dict) -> str:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
    return str(path)


def _probe_fixture(root: Path) -> None:
    """Seed-independent inputs for the malformed-input probes."""
    rng = np.random.default_rng(0)
    root.mkdir(parents=True)
    O.write_emb(root / "features.emb", rng.standard_normal((12, 4)))
    (root / "labels.tsv").write_text(
        "".join(f"{i // 3 % 3}\tL{i % 3:02d}\n" for i in range(12)), encoding="utf-8")
    for step in (10, 20):
        O.write_ckpt(root / f"ckpt_{step:06d}.ckpt", step, 0.01, rng.standard_normal(3 * 4 + 3))


def dp_cli_pipeline(seed: int, workdir: Path) -> Workload:
    inputs = workdir / "inputs"
    probe = inputs / "probe"
    _probe_fixture(probe)
    synth_cfg = _write_config(inputs / "synth.cfg", dict(CLI_SYNTH, seed=seed))
    train_cfg = _write_config(inputs / "train.cfg", dict(CLI_TRAIN, seed=seed, hidden_dim=HIDDEN))
    probe_train = dict(base_lr=0.1, total_steps=20, batch_size=4, warmup_steps=5, seed=0)
    bad_interval = _write_config(inputs / "interval0.cfg", dict(probe_train, checkpoint_interval=0))
    bad_classes = _write_config(inputs / "classes2.cfg", dict(probe_train, num_classes=2))
    bad_experiment = _write_config(inputs / "theorem2.cfg", dict(batch_size=16))

    # absolute paths: synth writes manifest entries as given, and
    # Manifest.read resolves relative ones against the manifest's directory
    run = (workdir / "run").resolve()
    data, model = str(run / "data"), str(run / "model")

    def cmd(*argv):
        return lambda: _invoke([str(a) for a in argv])

    ops = [
        Op("synth", cmd("synth", "--config", synth_cfg, "--out", data), _succeeded),
        Op("metrics", cmd("metrics", "--manifest", f"{data}/manifest.tsv",
                          "--metrics", ",".join(METRICS), "--out", run / "metrics.csv"), _succeeded),
        Op("train", cmd("train", "--config", train_cfg, "--data", data, "--out", model), _succeeded),
        Op("influence", cmd("influence", "--checkpoints", model, "--data", data,
                            "--out", run / "influence.csv", "--last", LAST,
                            "--hidden-dim", HIDDEN), _succeeded),
    ]
    ops += [Op(f"accountant --q {q} --sigma {s}",
               cmd("accountant", "--q", q, "--sigma", s, "--steps", ACCOUNTANT_STEPS,
                   "--delta", ACCOUNTANT_DELTA), _succeeded) for q, s in FORWARD]
    ops += [Op(f"accountant --q {q} --epsilon {e}",
               cmd("accountant", "--q", q, "--epsilon", e, "--steps", ACCOUNTANT_STEPS,
                   "--delta", ACCOUNTANT_DELTA), _succeeded) for q, e in INVERSE]
    ops += [
        Op("probe: experiment key the experiment does not take",
           cmd("experiment", "theorem2", "--config", bad_experiment, "--out", run / "probe_exp"), _rejected),
        Op("probe: checkpoint_interval = 0",
           cmd("train", "--config", bad_interval, "--data", probe, "--out", run / "probe_interval"), _rejected),
        Op("probe: num_classes below the label range",
           cmd("train", "--config", bad_classes, "--data", probe, "--out", run / "probe_classes"), _rejected),
        Op("probe: influence --last 0",
           cmd("influence", "--checkpoints", probe, "--data", probe, "--out", run / "probe_last0.csv",
               "--last", 0), _rejected),
    ]

    def verify(values):
        return _verify_cli(seed, values, workdir / "first")

    return Workload(ops, verify, workdir)


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _verify_cli(seed: int, values: list, first: Path) -> list[str]:
    data, model = first / "data", first / "model"
    problems = []
    for inv, name in zip(values, ["synth", "metrics", "train", "influence"]):
        if not isinstance(inv, Invocation) or inv.code != 0:
            return [f"cli {name} did not succeed: {inv!r}"]

    # synth: EMB1 files, manifest, tuple-major features, tuple-constant labels
    L, m = CLI_SYNTH["num_languages"], CLI_SYNTH["tuples"]
    mats = [O.read_emb(data / f"L{q:02d}.emb") for q in range(L)]
    features = O.read_emb(data / "features.emb")
    label_rows = [line.split("\t") for line in (data / "labels.tsv").read_text().splitlines()]
    labels = np.array([int(a) for a, _ in label_rows])
    if not np.array_equal(features, np.stack(mats, axis=1).reshape(m * L, -1)):
        problems.append("synth: features.emb is not the tuple-major interleave of the language files")
    if [t for _, t in label_rows] != [f"L{q:02d}" for _ in range(m) for q in range(L)] \
            or np.any(labels.reshape(m, L) != labels.reshape(m, L)[:, :1]):
        problems.append("synth: labels.tsv is not one label per tuple in language order")

    # metrics: one CSV per metric, checked per pair and in aggregate
    for name in METRICS:
        rows = {(r[1], r[2]): float(r[4]) for r in _read_csv(first / f"metrics_{name}.csv")[1:]}
        if name == "isoscore":
            expected = {("ALL", "ALL"): O.isoscore(np.vstack(mats))}
        else:
            oracle = O.pairwise(name, mats)
            expected = {(f"L{a:02d}", f"L{b:02d}"): v for (a, b), v in oracle.items()}
            expected[("ALL", "ALL")] = float(np.mean(list(oracle.values())))
        if rows.keys() != expected.keys() or not all(close(rows[k], expected[k]) for k in rows):
            problems.append(f"metrics: {name} CSV differs from the oracle")

    # train: sigma certifies the target, checkpoints and losses match the reference
    sigma = float(values[2].out.split("sigma = ", 1)[1].split()[0])
    q = CLI_TRAIN["batch_size"] / len(labels)
    problems += _check_sigma("train", sigma, CLI_TRAIN["target_epsilon"], q,
                             CLI_TRAIN["total_steps"], CLI_TRAIN["delta"])
    cfg = O.RefConfig(seed=seed, sigma=sigma, **{k: v for k, v in CLI_TRAIN.items()
                                                 if k not in ("target_epsilon", "delta")})
    c = CLI_SYNTH["classes"]
    ref = O.reference_train(features, labels, HIDDEN, c, cfg)
    ckpt_paths = sorted(model.glob("*.ckpt"))
    if len(ckpt_paths) != len(ref.checkpoints):
        problems.append(f"train: {len(ckpt_paths)} checkpoints, reference has {len(ref.checkpoints)}")
    saved = [O.read_ckpt(p) for p in ckpt_paths]
    for (step, eta, theta), (r_step, r_eta, r_theta) in zip(saved, ref.checkpoints):
        if step != r_step or not close(eta, r_eta) or max_rel_gap(theta, r_theta[0]) > TOL:
            problems.append(f"train: checkpoint at step {step} differs from the reference loop")
            break
    losses = [float(r[2]) for r in _read_csv(model / "train_log.csv")[1:]]
    if max_rel_gap(losses, ref.losses[:, 0]) > TOL:
        problems.append("train: train_log.csv losses differ from the reference loop")

    # influence: per-layer Gram sums over the last checkpoints
    grams = O.tracin_gram([(eta, th) for _, eta, th in saved[-LAST:]], features, labels,
                          HIDDEN, c, groups=m)
    rows = _read_csv(first / "influence.csv")[1:]
    scores = np.array([float(r[3]) for r in rows if r[1] != "ALL"]).reshape(m, L, L)
    infus = np.array([float(r[3]) for r in rows if r[1] == "ALL"])
    if max_rel_gap(scores, grams) > TOL or max_rel_gap(infus, O.infu(grams)) > TOL:
        problems.append("influence: CSV scores differ from the closed-form Grams")

    # accountant: forward epsilon and inverse sigma queries
    results = values[4:4 + len(FORWARD) + len(INVERSE)]
    for (q, s), inv in zip(FORWARD, results):
        eps, order = inv.out.strip().split(",")
        ref_eps, ref_order = O.rdp_epsilon(q, s, ACCOUNTANT_STEPS, ACCOUNTANT_DELTA)
        if not close(float(eps), ref_eps) or int(order) != ref_order:
            problems.append(f"accountant q={q} sigma={s}: {eps},{order} != oracle {ref_eps!r},{ref_order}")
    for (q, e), inv in zip(INVERSE, results[len(FORWARD):]):
        problems += _check_sigma(f"accountant q={q} epsilon={e}", float(inv.out), e, q,
                                 ACCOUNTANT_STEPS, ACCOUNTANT_DELTA)
    return problems


def _check_sigma(what: str, sigma: float, target: float, q: float, steps: int, delta: float) -> list[str]:
    """A returned sigma meets its target epsilon, and 0.999 sigma does not."""
    spent, _ = O.rdp_epsilon(q, sigma, steps, delta)
    under, _ = O.rdp_epsilon(q, 0.999 * sigma, steps, delta)
    if spent > target or under <= target:
        return [f"{what}: sigma {sigma!r} gives epsilon {spent!r}, 0.999 sigma gives {under!r}, target {target}"]
    return []


BUILDERS = {
    "theorem1-loo": theorem1_loo,
    "compression-sweep": compression_sweep,
    "dp-cli-pipeline": dp_cli_pipeline,
}
