"""mlpriv benchmark: one workload per process, end-to-end or per-layer figures.

    python3 bench/run.py --workload theorem1-loo --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seconds 1     # every workload, quick

A run times set-up (importing mlpriv and making the inputs) in this process
and in two fresh child processes, then repeats whole passes over the
workload's operations for ``--seconds`` (two passes at least). Times are
scaled to a fixed machine speed with the kernel in ``speed.py``; the raw
wall times are in the run record. With ``--trace 1`` every other pass runs
under the outside-in tracer and the run reports per-layer figures instead.
The first pass is checked against the reference computations in
``oracles.py``; every later pass must reproduce it byte for byte. The last
line of stdout is the JSON result.
"""

from __future__ import annotations

import os

# one BLAS thread, fixed before numpy is first imported here or in a child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("theorem1-loo", "compression-sweep", "dp-cli-pipeline")
SETUP_CHILDREN = 2
MIN_PASSES = 2
CHILD_TIMEOUT_S = 170


def setup(workload: str, seed: int, workdir: Path):
    """Import mlpriv and the benchmark's modules, then build the workload."""
    sys.path[:0] = [str(SRC), str(BENCH)]
    start = time.perf_counter()
    import mlpriv  # noqa: F401
    import workloads
    built = workloads.BUILDERS[workload](seed, workdir)
    elapsed = time.perf_counter() - start
    if not Path(mlpriv.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported mlpriv from {mlpriv.__file__}, not from {SRC}")
    return built, elapsed


def child_setup_s(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter, as a user would pay it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
         "--setup-only"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def clear_program_caches() -> None:
    """Empty every functools cache in mlpriv, so each pass starts cold like a CLI call."""
    for name, module in list(sys.modules.items()):
        if name == "mlpriv" or name.startswith("mlpriv."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_record(args) -> dict:
    import numpy
    import scipy

    def blas(config_fn):
        try:
            return config_fn(mode="dicts")["Build Dependencies"]["blas"].get("version", "?")
        except (TypeError, KeyError, AttributeError):
            return "unknown"

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config), "scipy_blas": blas(scipy.show_config),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def run_passes(wl, seconds: float, trace: bool):
    """Whole passes until ``seconds`` have gone by; returns the pass records."""
    from speed import REFERENCE_S, kernel_s
    from tracer import Tracer

    tracer = Tracer() if trace else None
    kernel = [kernel_s()]  # kernel[i] and kernel[i + 1] bracket pass i
    passes = []
    first_digest = None
    first_values = None
    problems = []
    started = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - started < seconds:
        traced = trace and len(passes) % 2 == 1
        clear_program_caches()
        wl.begin_pass()
        if traced:
            tracer.install()
            mark = len(tracer)
        values, latencies, failures = [], [], []
        t_pass = time.perf_counter()
        for op in wl.ops:
            call = tracer.span("bench.op", op.call) if traced else op.call
            t_op = time.perf_counter()
            try:
                value = call()
                ok = op.ok(value)
            except Exception as exc:  # an operation that crashes counts as failed
                value, ok = exc, False
            latencies.append(time.perf_counter() - t_op)
            values.append(value)
            if not ok:
                failures.append(op.name)
        wall = time.perf_counter() - t_pass
        if traced:
            tracer.uninstall()
        kernel.append(kernel_s())
        scale = REFERENCE_S / statistics.mean(kernel[-2:])
        layers = None
        if traced:
            layers = {k: v * scale if _unit(k) in ("s", "ms", "us") else v
                      for k, v in tracer.metrics(mark, len(tracer), wall).items()}
        digest = wl.snapshot(values)
        if first_digest is None:
            first_digest, first_values = digest, values
            wl.keep_first_pass()
            for name, value in zip((op.name for op in wl.ops), values):
                if name in failures:
                    print(f"failed: {name}: {value!r}"[:300], file=sys.stderr)
        elif digest != first_digest:
            problems.append(f"pass {len(passes) + 1} output differs from pass 1 (traced={traced})")
        passes.append(dict(wall=wall, latencies=latencies, failed=len(failures),
                           traced=traced, layers=layers, scale=scale))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return passes, first_values, problems, peak_rss_mb, tracer


def run_one(args) -> int:
    workdir = BENCH / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        wl, own_setup_s = setup(args.workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup_s}))
            return 0
        from speed import REFERENCE_S, kernel_s

        before = kernel_s()
        setup_samples = [own_setup_s] + [child_setup_s(args.workload, args.seed)
                                         for _ in range(SETUP_CHILDREN)]
        setup_scale = REFERENCE_S / statistics.mean([before, kernel_s()])
        passes, first_values, problems, peak_rss_mb, tracer = run_passes(wl, args.seconds, args.trace)
        try:
            problems += wl.verify(first_values)
        except Exception as exc:  # a check that cannot read an output is a wrong output
            problems.append(f"checks stopped: {exc!r}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            workdir.parent.rmdir()

    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    plain = [p for p in passes if not p["traced"]]
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        names = traced[0]["layers"].keys()
        metrics = {k: statistics.median(p["layers"][k] for p in traced) for k in names}
        metrics["trace.overhead_s"] = (statistics.median(p["wall"] * p["scale"] for p in traced)
                                       - statistics.median(p["wall"] * p["scale"] for p in plain))
        units = {k: _unit(k) for k in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(setup_samples) * setup_scale,
            "wall_s": statistics.median(p["wall"] * p["scale"] for p in plain),
            "op_p50_ms": 1e3 * statistics.median(t * p["scale"] for p in plain for t in p["latencies"]),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}

    record = run_record(args)
    record.update(passes=len(passes), ops_per_pass=len(wl.ops),
                  raw_pass_walls_s=[p["wall"] for p in passes], pass_scales=[p["scale"] for p in passes],
                  raw_setup_samples_s=setup_samples, setup_scale=setup_scale,
                  raw_op_p50_ms=1e3 * statistics.median(t for p in plain for t in p["latencies"]),
                  problems=problems)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(dict(record, metrics=metrics), indent=1))
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.tsv")

    print("record: " + json.dumps(record))
    for problem in problems:
        print(f"WRONG: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{args.workload}  {name} = {value:.6g} {units[name]}")
    print(f"{args.workload}  attempted = {attempted}, failed = {failed}")
    result = {
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


UNITS = {
    "calls": "count", "steps": "count", "grad_evals": "count", "evals_per_call": "count",
    "spans": "count", "bytes": "bytes", "step_us": "us", "us_per_call": "us",
    "ms": "ms", "ms_per_call": "ms", "self_ms": "ms", "unaccounted_ms": "ms", "overhead_s": "s",
}


def _unit(name: str) -> str:
    return UNITS[name.rsplit(".", 1)[-1]]


def run_all(args) -> int:
    """Each workload in its own process, with a summary table."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(int(args.trace))],
            capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("record: ")))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{workload}: no result (exit {proc.returncode})", file=sys.stderr)
            return 1
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "mlpriv" / "__init__.py").is_file():
        print(f"error: no mlpriv sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
