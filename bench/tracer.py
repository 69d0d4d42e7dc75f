"""Outside-in tracing of mlpriv's public functions.

``Tracer.install`` rebinds every traced function wherever a module of the
package holds it by name (``train`` in ``trainer``, ``experiments``,
``influence``, ``cli`` and the package itself), so each call goes through
exactly one wrapper and is counted once. Spans stay in flat in-memory arrays
until ``write`` dumps them; ``metrics`` folds them into the per-layer figures.
"""

from __future__ import annotations

import os
import sys
import time
from array import array

# (module, function) pairs wrapped in a traced pass. The benchmark's own
# operations are spans named ``bench.op``; a name missing from the module
# (renamed or removed by a later version) is skipped.
TRACED = {
    "synth": ("gen_parallel_set", "gen_classification_data", "plant_outlier"),
    "repr_store": ("write_embeddings", "read_embeddings", "load_set"),
    "metrics": ("retrieval_precision", "linear_cka", "rsa_score", "isoscore",
                "pairwise_report", "linguistic_fairness_gap"),
    "trainer": ("train", "grad_batch", "grad", "dp_aggregate", "optimizer_step",
                "evaluate", "write_checkpoint", "read_checkpoint", "write_training_log"),
    "accountant": ("epsilon_for", "sigma_for", "rdp_curve"),
    "influence": ("influence_profile", "tracin_cp", "self_influence", "infu",
                  "loo_influence"),
    "experiments": ("run_theorem1", "planted_influence_margin", "loo_margin",
                    "run_experiment"),
    "cli": ("main", "cmd_synth", "cmd_metrics", "cmd_train", "cmd_influence",
            "cmd_accountant", "cmd_experiment"),
}
LAYERS = tuple(TRACED)
CLI_COMMANDS = ("synth", "metrics", "train", "influence", "accountant", "experiment")
FILE_IO = {"trainer.write_checkpoint", "trainer.read_checkpoint",
           "repr_store.write_embeddings", "repr_store.read_embeddings"}


def _measure(name: str, args: tuple, kwargs: dict) -> float:
    """A size recorded with a span: file bytes for I/O, rows for grad_batch."""
    if name in FILE_IO:
        path = args[0] if args else kwargs.get("path")
        return float(os.path.getsize(path))
    if name == "trainer.grad_batch":
        X = args[2] if len(args) > 2 else kwargs["X"]
        return float(len(X))
    return 0.0


class Tracer:
    """Span recorder: one entry per traced call, parent = enclosing span."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("d")
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn):
        """Wrap ``fn`` so that each call records a span named ``name``."""
        fid = self._id(name)
        measured = name in FILE_IO or name == "trainer.grad_batch"
        clock = time.perf_counter
        stack, fns, parents = self._stack, self.fn, self.parent
        starts, ends, sizes = self.start, self.end, self.size

        def traced(*args, **kwargs):
            i = len(fns)
            fns.append(fid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            sizes.append(0.0)
            stack.append(i)
            starts[i] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                if measured:
                    sizes[i] = _measure(name, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str = "mlpriv") -> None:
        """Rebind every traced function at each package module that holds it."""
        wrappers = {}
        for layer, names in TRACED.items():
            module = sys.modules.get(f"{package}.{layer}")
            for name in names:
                fn = getattr(module, name, None)
                if callable(fn):
                    wrappers[id(fn)] = (fn, self.span(f"{layer}.{name}", fn))
        holders = [m for k, m in sys.modules.items() if k == package or k.startswith(package + ".")]
        for module in holders:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def __len__(self) -> int:
        return len(self.fn)

    def write(self, path) -> None:
        """Dump spans as TSV: id, parent, name, start_s, end_s, size."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\tsize\n")
            for i in range(len(self.fn)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.names[self.fn[i]]}\t"
                         f"{self.start[i]!r}\t{self.end[i]!r}\t{self.size[i]:g}\n")

    def metrics(self, first: int, last: int, pass_s: float) -> dict[str, float]:
        """Per-layer figures over spans [first, last) of one traced pass."""
        names = self.names
        n = last - first
        fn = [names[self.fn[i]] for i in range(first, last)]
        parent = [self.parent[i] - first if self.parent[i] >= 0 else -1 for i in range(first, last)]
        dur = [self.end[i] - self.start[i] for i in range(first, last)]
        size = self.size[first:last]

        # spans are stored in call order, so a parent always precedes its children
        # owner: the nearest enclosing train or influence span, so gradients a
        # retrain inside an influence function computes count as training
        self_s = list(dur)
        owner = [""] * n
        under_sigma = [False] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                self_s[p] -= dur[i]
                owner[i] = ("train" if fn[p] == "trainer.train"
                            else "influence" if fn[p].startswith("influence.") else owner[p])
                under_sigma[i] = under_sigma[p] or fn[p] == "accountant.sigma_for"
        under_train = [o == "train" for o in owner]
        under_influence = [o == "influence" for o in owner]

        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        for i in range(n):
            calls[fn[i]] = calls.get(fn[i], 0) + 1
            total[fn[i]] = total.get(fn[i], 0.0) + dur[i]

        def count(name):
            return calls.get(name, 0)

        def ms(*names):
            return 1e3 * sum(total.get(name, 0.0) for name in names)

        def nbytes(*names):
            return sum(s for s, g in zip(size, fn) if g in names)

        def per_call(name, unit):
            return unit * total.get(name, 0.0) / calls[name] if calls.get(name) else 0.0

        def where(flags, name, values):
            return sum(v for f, g, v in zip(flags, fn, values) if f and g == name)

        steps = count("trainer.optimizer_step")
        # step time leaves out resolving sigma: the outermost accountant spans in train
        accounting_s = sum(
            d for i, (f, g, d) in enumerate(zip(under_train, fn, dur))
            if f and g.startswith("accountant.") and not fn[parent[i]].startswith("accountant.")
        )
        train_s = total.get("trainer.train", 0.0) - accounting_s
        out = {
            "trainer.train.calls": count("trainer.train"),
            "trainer.steps": steps,
            "trainer.step_us": 1e6 * train_s / steps if steps else 0.0,
            "trainer.train.self_ms": 1e3 * sum(s for s, g in zip(self_s, fn) if g == "trainer.train"),
            "trainer.grad_batch.ms": 1e3 * where(under_train, "trainer.grad_batch", dur),
            "trainer.dp_aggregate.ms": ms("trainer.dp_aggregate"),
            "trainer.optimizer_step.ms": ms("trainer.optimizer_step"),
            "trainer.checkpoint_io.ms": ms("trainer.write_checkpoint", "trainer.read_checkpoint"),
            "trainer.checkpoint_io.bytes": nbytes("trainer.write_checkpoint", "trainer.read_checkpoint"),
            "accountant.epsilon_for.calls": count("accountant.epsilon_for"),
            "accountant.epsilon_for.us_per_call": per_call("accountant.epsilon_for", 1e6),
            "accountant.rdp_curve.us_per_call": per_call("accountant.rdp_curve", 1e6),
            "accountant.sigma_for.calls": count("accountant.sigma_for"),
            "accountant.sigma_for.ms_per_call": per_call("accountant.sigma_for", 1e3),
            "accountant.sigma_for.evals_per_call": (
                sum(1 for f, g in zip(under_sigma, fn) if f and g == "accountant.epsilon_for")
                / count("accountant.sigma_for") if count("accountant.sigma_for") else 0.0),
        }
        for name in ("retrieval_precision", "linear_cka", "rsa_score", "isoscore"):
            out[f"metrics.{name}.calls"] = count(f"metrics.{name}")
            out[f"metrics.{name}.ms_per_call"] = per_call(f"metrics.{name}", 1e3)
        out["metrics.pairwise_report.ms"] = ms("metrics.pairwise_report")
        for name in ("influence_profile", "self_influence"):
            out[f"influence.{name}.calls"] = count(f"influence.{name}")
            out[f"influence.{name}.us_per_call"] = per_call(f"influence.{name}", 1e6)
        out["influence.grad_evals"] = where(under_influence, "trainer.grad_batch", size)
        for name in ("planted_influence_margin", "loo_margin"):
            out[f"experiments.{name}.ms_per_call"] = per_call(f"experiments.{name}", 1e3)
        for command in CLI_COMMANDS:
            out[f"cli.{command}.ms"] = ms(f"cli.cmd_{command}")
        for name in TRACED["synth"]:
            out[f"synth.{name}.ms"] = ms(f"synth.{name}")
        out["repr_store.io.ms"] = ms("repr_store.write_embeddings", "repr_store.read_embeddings")
        out["repr_store.io.bytes"] = nbytes("repr_store.write_embeddings", "repr_store.read_embeddings")

        layer_self = {layer: 0.0 for layer in LAYERS + ("bench",)}
        for s, g in zip(self_s, fn):
            layer_self[g.split(".", 1)[0]] += s
        for layer, s in layer_self.items():
            out[f"{layer}.self_ms"] = 1e3 * s
        out["trace.unaccounted_ms"] = 1e3 * (pass_s - sum(layer_self.values()))
        out["trace.spans"] = n
        return out
