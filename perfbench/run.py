"""Benchmark of the confinement-lab command line, one workload per call.

    python3 perfbench/run.py --workload sweep-p4 --seed 1 --seconds 30 --trace 0

Run from the repository root.  Each workload is a real CLI job run
in-process through ``confinement_lab.cli.main``, one job at a time (a
closed loop with one client), with one BLAS thread and ``--jobs 1``.  The
package's own caches are cleared before every repetition, so each one pays
what a fresh CLI run pays apart from interpreter start-up and imports,
which ``setup_s`` measures in fresh interpreters.

``--trace 0`` repeats the job for ``--seconds`` and reports the end-to-end
metrics: the median wall time, set-up time and peak memory.  ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer
metrics of perfbench/spans.py and the tracing overhead.  Every repetition's
outputs are checked; the last line of standard output is the JSON result,
and the exit code is non-zero when a check fails.  A record with the
environment, every repetition and every check is written to
``.bench_runs/``, together with the spans of the last traced repetition.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_runs"
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_RUNS = 5
SETUP_CODE = ("import confinement_lab\n"
              "from confinement_lab.grid import build\n"
              "build()\n"
              "build(oversample=1)\n")
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy
    import confinement_lab
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "threads": {k: os.environ.get(k) for k in PINNED},
        "jobs": 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "confinement_lab": confinement_lab.__version__,
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def measure_setup() -> list[float]:
    """Wall times of fresh interpreters importing the package and building
    the default grids."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()[-500:]}")
    return times


def package_caches() -> list:
    import spans
    caches = {}
    for mod in spans.package_modules():
        for value in vars(mod).values():
            if hasattr(value, "cache_clear") and \
                    getattr(value, "__module__", "").startswith(spans.PACKAGE):
                caches[id(value)] = value
    return list(caches.values())


def run_once(main, argv: list[str], outdir: Path, caches) -> tuple[int, float, str]:
    """One CLI job from a clean output directory and empty package caches."""
    shutil.rmtree(outdir, ignore_errors=True)
    for cache in caches:
        cache.cache_clear()
    gc.collect()
    log = io.StringIO()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        t0 = time.perf_counter()
        rc = main(argv)
        wall = time.perf_counter() - t0
    return rc, wall, log.getvalue()


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def number(value: float, unit: str):
    if unit == "count" and float(value).is_integer():
        return int(value)
    return float(value)


def bench(workload: str, seed: int, seconds: float, trace: bool,
          size: str = "full") -> dict:
    """Measure one workload at the given size of workloads.SIZES."""
    import spans
    from confinement_lab import cli

    env = environment(seed)
    caches = package_caches()
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    outdir = OUT / tag
    setup = measure_setup() if not trace else []

    # untimed: the first job at full resolution in a process runs slower
    warm = "tiny" if size == "tiny" else "short"
    run_once(cli.main, workloads.argv(workload, seed, outdir, warm), outdir, caches)

    argv = workloads.argv(workload, seed, outdir, size)
    reps, checks, layer, tracer = [], [], [], None
    t_start = time.perf_counter()
    while True:
        rc, wall, log = run_once(cli.main, argv, outdir, caches)
        rep = {"wall_s": wall, "exit_code": rc, "log": log}
        rep_checks = workloads.check(workload, rc, outdir, size)
        if trace:
            tracer = spans.Tracer()
            with tracer:
                traced_main = tracer.wrap("cli.main", cli.main)
                rc_t, wall_t, _ = run_once(traced_main, argv, outdir, caches)
            rep["traced_wall_s"] = wall_t
            rep_checks += workloads.check(workload, rc_t, outdir, size)
            metrics = spans.layer_metrics(tracer)
            metrics["cli.output.bytes"] = float(dir_bytes(outdir))
            layer.append(metrics)
        rep["checks"] = rep_checks
        reps.append(rep)
        checks += rep_checks
        if not all(ok for _, ok, _ in rep_checks):
            break
        per_rep = statistics.median(r["wall_s"] + r.get("traced_wall_s", 0.0) for r in reps)
        if time.perf_counter() - t_start + per_rep > seconds:
            break

    walls = [r["wall_s"] for r in reps]
    if trace:
        traced = statistics.median(r["traced_wall_s"] for r in reps)
        values = {k: statistics.median(m[k] for m in layer) for k in layer[0]}
        values["trace.wall_s"] = traced
        values["trace.overhead_pct"] = 100.0 * (traced / statistics.median(walls) - 1.0)
        units = {name: unit for name, unit, _, _ in spans.LAYER_METRICS}
        tracer.write_spans(OUT / f"{tag}.spans.csv")
    else:
        values = {"wall_s": statistics.median(walls),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        units = dict(END_TO_END)
    metrics = {name: {"value": number(values[name], unit), "unit": unit}
               for name, unit in units.items()}
    failed = sum(1 for _, ok, _ in checks if not ok)
    result = {"correct": failed == 0, "attempted": len(checks), "failed": failed,
              "metrics": metrics}
    record = {"workload": workload, "argv": argv, "environment": env,
              "samples": {"wall_s": len(walls), "setup_s": len(setup)},
              "setup_s": setup, "repetitions": reps, "result": result}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2))
    return record


def report(record: dict) -> None:
    """Human-readable lines ahead of the JSON result."""
    result = record["result"]
    print(f"workload {record['workload']}: {' '.join(record['argv'])}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for rep in record["repetitions"]:
        for name, ok, detail in rep["checks"]:
            if not ok:
                print(f"  check FAILED {name}: {detail}")
    print(f"checks: {result['attempted'] - result['failed']}/{result['attempted']} passed; "
          f"samples {record['samples']}")
    metrics = result["metrics"]
    wall = metrics.get("trace.wall_s", {}).get("value")
    for name, m in metrics.items():
        share = ""
        if wall and m["unit"] == "s" and name != "trace.wall_s":
            share = f"  ({100.0 * m['value'] / wall:.1f}% of traced wall)"
        print(f"  {name:42s} {m['value']:>16.6g} {m['unit']}{share}")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if "CONFINEMENT_LAB_JOBS" in os.environ:
            raise BenchError("CONFINEMENT_LAB_JOBS is set; the benchmark runs --jobs 1 only")
        if not (SRC / "confinement_lab" / "__init__.py").is_file():
            raise BenchError(f"no package source under {SRC}")
        # before numpy is first imported, so OpenBLAS starts one thread
        os.environ.update(PINNED)
        sys.path.insert(0, str(SRC))
        record = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    report(record)
    print(json.dumps(record["result"]))
    return 1 if record["result"]["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
